//! Sharded execution is an optimization, not a semantics: a run with
//! `shards = N` must be byte-identical to `shards = 1` — same integration
//! and WFMS counters, same session states, same dead letters, same audit
//! history, same simulated clock — under arbitrary network fault mixes.

use proptest::prelude::*;
use semantic_b2b::integration::engine::{IntegrationEngine, IntegrationStats};
use semantic_b2b::integration::metrics::{CodecCacheStats, HealthStats, StageCounters};
use semantic_b2b::integration::scenario::TwoEnterpriseScenario;
use semantic_b2b::integration::{BreakerState, PartnerPolicy, SessionState};
use semantic_b2b::network::FaultConfig;
use semantic_b2b::wfms::HistoryEvent;

/// Everything observable about one engine after a run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    stats: IntegrationStats,
    wf_stats: semantic_b2b::wfms::EngineStats,
    states: Vec<(String, SessionState)>,
    dead_letters: Vec<(u64, String, String)>,
    completed: usize,
    history: Vec<HistoryEvent>,
    cache: CodecCacheStats,
    /// Per-pump-stage counters (not the timers — those are wall-clock).
    stages: StageCounters,
    /// Shed/trip counters of the partner-health subsystem.
    health: HealthStats,
    /// Final circuit-breaker state and trip count per partner.
    breakers: Vec<(String, BreakerState, u64)>,
}

fn fingerprint(engine: &IntegrationEngine) -> Fingerprint {
    Fingerprint {
        stats: engine.stats().clone(),
        wf_stats: engine.wf().stats().clone(),
        states: engine
            .correlations()
            .iter()
            .map(|c| (c.to_string(), engine.session_state(c)))
            .collect(),
        dead_letters: engine
            .dead_letters()
            .iter()
            .map(|l| (l.seq, l.reason.to_string(), l.envelope.id.to_string()))
            .collect(),
        completed: engine.completed_sessions(),
        history: engine.wf().history().to_vec(),
        cache: *engine.codec_cache_stats(),
        stages: engine.stage_profile().counters,
        health: *engine.health_stats(),
        breakers: engine.breaker_states(),
    }
}

/// Runs the two-enterprise scenario with the given worker count and
/// dispatch mode (`interpreted` switches *both* the transform executor
/// and the rule programs to their tree interpreters), returning
/// (elapsed ms, buyer fingerprint, seller fingerprint).
fn run(
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    interpreted: bool,
) -> (u64, Fingerprint, Fingerprint) {
    run_with_policy(faults, seed, pos, shards, interpreted, PartnerPolicy::permissive())
}

/// [`run`], with a partner containment policy installed on both engines.
fn run_with_policy(
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    interpreted: bool,
    policy: PartnerPolicy,
) -> (u64, Fingerprint, Fingerprint) {
    let mut s = TwoEnterpriseScenario::new(faults, seed).unwrap();
    s.buyer.set_shards(shards);
    s.seller.set_shards(shards);
    s.buyer.set_interpreted_transforms(interpreted);
    s.seller.set_interpreted_transforms(interpreted);
    s.buyer.set_interpreted_rules(interpreted);
    s.seller.set_interpreted_rules(interpreted);
    s.buyer.set_partner_policy(policy.clone());
    s.seller.set_partner_policy(policy);
    for i in 0..pos {
        let po = s.po(&format!("po-{i}"), 1_000 + i as i64).unwrap();
        s.submit(po).unwrap();
    }
    let elapsed = s.run_until_quiescent(240_000).unwrap();
    (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_runs_are_byte_identical_to_sequential(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
        shards in 2usize..=4,
    ) {
        let faults = FaultConfig { loss, duplicate, corrupt, min_delay_ms: 1, max_delay_ms: 40 };
        let sequential = run(faults.clone(), seed, pos, 1, false);
        let sharded = run(faults.clone(), seed, pos, shards, false);
        prop_assert_eq!(&sequential.0, &sharded.0, "elapsed simulated time diverged");
        prop_assert_eq!(&sequential.1, &sharded.1, "buyer observables diverged");
        prop_assert_eq!(&sequential.2, &sharded.2, "seller observables diverged");
        // Compiled transform and rule dispatch are the default above; the
        // same run on the tree-walking interpreters must be observably
        // identical, down to the codec cache and stage counters in the
        // fingerprint.
        let interpreted = run(faults, seed, pos, shards, true);
        prop_assert_eq!(&sequential.0, &interpreted.0, "elapsed diverged under interpreter");
        prop_assert_eq!(&sequential.1, &interpreted.1, "buyer diverged under interpreter");
        prop_assert_eq!(&sequential.2, &interpreted.2, "seller diverged under interpreter");
    }

    /// The same identity with the containment subsystem fully armed: a
    /// guarded policy (breakers, bounded queues, finite send budget) under
    /// hostile fault mixes must not introduce any shard-count dependence —
    /// breaker states and shed counters are part of the fingerprint.
    #[test]
    fn guarded_policy_runs_are_byte_identical_across_shards(
        loss in 0.0f64..0.9,
        duplicate in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig { loss, duplicate, corrupt, min_delay_ms: 1, max_delay_ms: 40 };
        let policy = PartnerPolicy { pump_send_budget: 4, ..PartnerPolicy::guarded() };
        let sequential =
            run_with_policy(faults.clone(), seed, pos, 1, false, policy.clone());
        let sharded = run_with_policy(faults, seed, pos, 4, false, policy);
        prop_assert_eq!(&sequential.0, &sharded.0, "elapsed simulated time diverged");
        prop_assert_eq!(&sequential.1, &sharded.1, "buyer observables diverged");
        prop_assert_eq!(&sequential.2, &sharded.2, "seller observables diverged");
    }
}

proptest! {
    // Each case is four full scenario runs; fewer cases keep the matrix
    // affordable while still sampling the fault space.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pool shape is invisible: for pool sizes 1, 2, and 4 workers
    /// (shards = workers + 1), every fingerprint is byte-identical to the
    /// sequential run. The pool claims one index per `fetch_add`, the
    /// schedule with the most inter-thread interleaving.
    #[test]
    fn pool_size_is_invisible(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
    ) {
        let faults = FaultConfig {
            loss, duplicate, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40,
        };
        let sequential = run(faults.clone(), seed, pos, 1, false);
        for workers in [1usize, 2, 4] {
            let pooled = run(faults.clone(), seed, pos, workers + 1, false);
            prop_assert_eq!(&sequential.0, &pooled.0, "elapsed diverged at {} workers", workers);
            prop_assert_eq!(&sequential.1, &pooled.1, "buyer diverged at {} workers", workers);
            prop_assert_eq!(&sequential.2, &pooled.2, "seller diverged at {} workers", workers);
        }
    }
}

#[test]
fn flaky_broadcast_workload_is_identical_across_shard_counts() {
    // A deterministic anchor alongside the property: a lossy multi-session
    // run compared across 1, 2, 4, and 8 workers.
    let baseline = run(FaultConfig::flaky(0.3), 7, 8, 1, false);
    for shards in [2, 4, 8] {
        let parallel = run(FaultConfig::flaky(0.3), 7, 8, shards, false);
        assert_eq!(baseline.0, parallel.0, "elapsed diverged at {shards} shards");
        assert_eq!(baseline.1, parallel.1, "buyer diverged at {shards} shards");
        assert_eq!(baseline.2, parallel.2, "seller diverged at {shards} shards");
    }
    // Dispatch mode must be as invisible as the shard count.
    let interpreted = run(FaultConfig::flaky(0.3), 7, 8, 4, true);
    assert_eq!(baseline.0, interpreted.0, "elapsed diverged under interpreter");
    assert_eq!(baseline.1, interpreted.1, "buyer diverged under interpreter");
    assert_eq!(baseline.2, interpreted.2, "seller diverged under interpreter");
    // The run was not trivially clean: sessions really completed.
    assert!(baseline.1.completed >= 1, "at least one session completed");
}

#[test]
fn zero_shards_means_auto_and_is_identical_to_sequential() {
    // `set_shards(0)` (and `B2B_SHARDS=0`) resolves to the machine's
    // real available parallelism. Whatever it resolves to, the run must
    // stay byte-identical to shards = 1.
    let mut probe = TwoEnterpriseScenario::new(FaultConfig::reliable(), 1).unwrap();
    probe.buyer.set_shards(0);
    let auto = probe.buyer.shards();
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    assert!(auto >= 1, "auto shard count must be positive: {auto}");
    assert!(auto <= cores, "auto shard count {auto} exceeds host parallelism {cores}");

    let baseline = run(FaultConfig::flaky(0.3), 13, 4, 1, false);
    let auto_run = run(FaultConfig::flaky(0.3), 13, 4, 0, false);
    assert_eq!(baseline.0, auto_run.0, "elapsed diverged under auto shards");
    assert_eq!(baseline.1, auto_run.1, "buyer diverged under auto shards");
    assert_eq!(baseline.2, auto_run.2, "seller diverged under auto shards");
}

#[test]
fn pool_spawns_no_threads_after_warm_up() {
    // The persistent pool is the point of the exercise: `shards = N`
    // spawns its N-1 workers once (the dispatcher is the Nth), then every
    // subsequent pump reuses them. A fork/join regression would show up
    // here as a growing `threads_spawned`.
    let mut s = TwoEnterpriseScenario::new(FaultConfig::flaky(0.2), 17).unwrap();
    s.buyer.set_shards(4);
    s.seller.set_shards(4);
    for i in 0..4 {
        let po = s.po(&format!("po-warm-{i}"), 1_000 + i).unwrap();
        s.submit(po).unwrap();
    }
    s.run_until_quiescent(240_000).unwrap();
    let warm = (s.buyer.pool_stats(), s.seller.pool_stats());
    for (who, stats) in [("buyer", warm.0), ("seller", warm.1)] {
        assert_eq!(stats.workers, 3, "{who}: 4 shards keep 3 pool workers");
        assert_eq!(stats.threads_spawned, 3, "{who}: warm-up spawns exactly the workers");
        assert!(stats.tasks >= stats.rounds, "{who}: every round ran at least one task");
    }
    // A session's instances all pin to one shard, so an engine whose
    // sessions happen to share a shard settles inline; across both
    // engines the multi-session run must have dispatched real rounds.
    assert!(warm.0.rounds + warm.1.rounds > 0, "no parallel rounds dispatched: {warm:?}");

    for batch in 0..2 {
        for i in 0..4 {
            let po = s.po(&format!("po-steady-{batch}-{i}"), 2_000 + batch * 10 + i).unwrap();
            s.submit(po).unwrap();
        }
        s.run_until_quiescent(240_000).unwrap();
    }
    let steady = (s.buyer.pool_stats(), s.seller.pool_stats());
    assert_eq!(
        (steady.0.threads_spawned, steady.1.threads_spawned),
        (warm.0.threads_spawned, warm.1.threads_spawned),
        "steady-state pumps must spawn zero threads"
    );
    assert!(
        steady.0.rounds + steady.1.rounds > warm.0.rounds + warm.1.rounds,
        "steady-state pumps kept using the pool"
    );
}

#[test]
fn binary_protocol_fingerprints_are_identical_across_shards() {
    // The zero-copy decode path must be as deterministic as the text
    // codecs: with both partners on the compact binary wire format
    // (documents full of borrowed `Str`s at the edge), a lossy run's
    // fingerprint is byte-identical across shard counts and dispatch
    // modes. Text ownership — borrowed slices of the payload `Bytes`
    // versus owned strings after a transform — must be invisible to
    // every counter, state, and audit record.
    use semantic_b2b::integration::scenario::ScenarioProtocol;

    let run_binary = |shards: usize, interpreted: bool| {
        let mut s = TwoEnterpriseScenario::with_protocol(
            ScenarioProtocol::Binary,
            FaultConfig::flaky(0.3),
            23,
        )
        .unwrap();
        s.buyer.set_shards(shards);
        s.seller.set_shards(shards);
        s.buyer.set_interpreted_transforms(interpreted);
        s.seller.set_interpreted_transforms(interpreted);
        s.buyer.set_interpreted_rules(interpreted);
        s.seller.set_interpreted_rules(interpreted);
        s.buyer.set_partner_policy(PartnerPolicy::permissive());
        s.seller.set_partner_policy(PartnerPolicy::permissive());
        for i in 0..6 {
            let po = s.po(&format!("po-bin-{i}"), 1_000 + i).unwrap();
            s.submit(po).unwrap();
        }
        let elapsed = s.run_until_quiescent(240_000).unwrap();
        (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller))
    };

    let baseline = run_binary(1, false);
    assert!(baseline.1.completed >= 1, "at least one binary session completed");
    for (shards, interpreted) in [(4, false), (1, true), (4, true)] {
        let other = run_binary(shards, interpreted);
        assert_eq!(
            baseline.0, other.0,
            "elapsed diverged at {shards} shards (interpreted: {interpreted})"
        );
        assert_eq!(
            baseline.1, other.1,
            "buyer diverged at {shards} shards (interpreted: {interpreted})"
        );
        assert_eq!(
            baseline.2, other.2,
            "seller diverged at {shards} shards (interpreted: {interpreted})"
        );
    }
}

/// [`run`], with a scenario wire protocol and the settle reference path
/// selectable. Returns the fingerprints plus both engines' settle
/// planner counters (rounds / touched), which are part of the
/// determinism bar for the touched-only path.
fn run_settle(
    protocol: semantic_b2b::integration::scenario::ScenarioProtocol,
    faults: FaultConfig,
    seed: u64,
    pos: usize,
    shards: usize,
    interpreted: bool,
    full_partition: bool,
) -> (u64, Fingerprint, Fingerprint, [(u64, u64); 2]) {
    let mut s = TwoEnterpriseScenario::with_protocol(protocol, faults, seed).unwrap();
    s.buyer.set_shards(shards);
    s.seller.set_shards(shards);
    s.buyer.set_interpreted_transforms(interpreted);
    s.seller.set_interpreted_transforms(interpreted);
    s.buyer.set_interpreted_rules(interpreted);
    s.seller.set_interpreted_rules(interpreted);
    s.buyer.set_full_partition_settle(full_partition);
    s.seller.set_full_partition_settle(full_partition);
    s.buyer.set_partner_policy(PartnerPolicy::permissive());
    s.seller.set_partner_policy(PartnerPolicy::permissive());
    for i in 0..pos {
        let po = s.po(&format!("po-{i}"), 1_000 + i as i64).unwrap();
        s.submit(po).unwrap();
    }
    let elapsed = s.run_until_quiescent(240_000).unwrap();
    let planner = [&s.buyer, &s.seller].map(|e| {
        let m = e.settle_metrics();
        (m.rounds, m.touched_total)
    });
    (elapsed, fingerprint(&s.buyer), fingerprint(&s.seller), planner)
}

proptest! {
    // Each case is ten full scenario runs (2 protocols x 5 settle
    // configurations); fewer cases keep the matrix affordable.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The touched-only settle planner is an optimization, not a
    /// semantics: against the full-partition reference path (every
    /// resident instance moved into a shard slice every round) the run
    /// must be byte-identical, across shard counts {1, 2, 4}, both
    /// dispatch modes, and both a text (EDI) and the binary wire
    /// protocol. The planner's own counters (rounds, touched) must also
    /// be shard-count- and dispatch-invariant: slices settle to
    /// quiescence independently inside a round, so how the touched set
    /// is split cannot change what was touched.
    #[test]
    fn touched_only_settle_matches_full_partition_reference(
        loss in 0.0f64..0.35,
        duplicate in 0.0f64..0.25,
        seed in any::<u64>(),
        pos in 1usize..5,
        interpreted in any::<bool>(),
    ) {
        use semantic_b2b::integration::scenario::ScenarioProtocol;
        let faults = FaultConfig {
            loss, duplicate, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40,
        };
        for protocol in [ScenarioProtocol::Edi, ScenarioProtocol::Binary] {
            let touched =
                run_settle(protocol, faults.clone(), seed, pos, 1, interpreted, false);
            for shards in [2usize, 4] {
                let sharded =
                    run_settle(protocol, faults.clone(), seed, pos, shards, interpreted, false);
                prop_assert_eq!(
                    &touched.0, &sharded.0,
                    "{:?}: elapsed diverged at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.1, &sharded.1,
                    "{:?}: buyer diverged at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.2, &sharded.2,
                    "{:?}: seller diverged at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.3, &sharded.3,
                    "{:?}: settle planner counters diverged at {} shards", protocol, shards
                );
            }
            for shards in [1usize, 4] {
                let full =
                    run_settle(protocol, faults.clone(), seed, pos, shards, interpreted, true);
                prop_assert_eq!(
                    &touched.0, &full.0,
                    "{:?}: elapsed diverged vs full partition at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.1, &full.1,
                    "{:?}: buyer diverged vs full partition at {} shards", protocol, shards
                );
                prop_assert_eq!(
                    &touched.2, &full.2,
                    "{:?}: seller diverged vs full partition at {} shards", protocol, shards
                );
            }
        }
    }
}

#[test]
fn edge_parses_each_routed_payload_exactly_once() {
    // The edge parses every routed payload once, inline, and suppressed
    // duplicates never reach the decoder: successful parses equal routed
    // wire documents, with or without duplication on the wire. Neither
    // run corrupts, loses or replays anything, so no decode fails and
    // nothing is parsed twice.
    let dup_heavy =
        FaultConfig { loss: 0.0, duplicate: 0.6, corrupt: 0.0, min_delay_ms: 1, max_delay_ms: 40 };
    for (label, faults, duplicated) in
        [("duplicate=0.6", dup_heavy, true), ("clean", FaultConfig::reliable(), false)]
    {
        let (_, buyer, seller) = run(faults, 11, 4, 1, false);
        for (who, fp) in [("buyer", &buyer), ("seller", &seller)] {
            assert_eq!(fp.stats.decode_failures, 0, "{label}: {who} had decode failures");
            assert_eq!(fp.stats.replays, 0, "{label}: {who} replayed dead letters");
            assert!(fp.stats.wire_received > 0, "{label}: {who} routed no wire documents");
            assert_eq!(
                fp.cache.decode_misses, fp.stats.wire_received,
                "{label}: {who} parsed a payload other than once: {:?} vs {:?}",
                fp.cache, fp.stats
            );
            assert_eq!(fp.cache.decode_hits, 0, "{label}: {who} answered a decode unparsed");
        }
        let suppressed = buyer.stages.edge_duplicates + seller.stages.edge_duplicates;
        assert_eq!(
            suppressed > 0,
            duplicated,
            "{label}: suppressed duplicates {suppressed} (buyer {:?}, seller {:?})",
            buyer.stages,
            seller.stages
        );
    }
}
