//! The repository's end-to-end benchmark.
//!
//! Three seeded workloads run against the real `IntegrationEngine`, each
//! as a closed loop in simulated time on one driver thread: every step
//! advances the network 10 ms, pumps the engine(s), then pumps the
//! simulated partners, and the next wave of sessions starts only when the
//! previous one is quiescent. A run repeats *episodes* — a freshly built
//! world, warmed with one wave, then the whole plan's traffic — until its
//! timed phases add up to the requested seconds. Every episode replays the
//! same seeded inputs, so the deterministic metrics are the same in each,
//! and the timed metrics pool all of them (set-up time is their median).
//!
//! Throughput is measured against *engine busy time*, the wall time spent
//! inside engine calls; the partner simulation is the load generator and
//! its time is excluded. See `README.md` in this directory for the metric
//! definitions.

pub mod counters;
pub mod host;
pub mod meter;
pub mod po;
pub mod report;
pub mod rfq;

use b2b_bench::population::SizeTier;
use b2b_core::{IntegrationEngine, SessionState};
use b2b_document::CorrelationId;
use counters::Counters;
use meter::Meter;

/// Errors are reported as text: the benchmark only prints them.
pub type Result<T> = std::result::Result<T, String>;

/// Converts any displayable error into the benchmark's error text.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E21's canonical population: per-initiate settles over a lossy
    /// network with idle lurker sessions.
    RfqTrickle,
    /// The same hub, all RosettaNet responders, lossless, whole waves
    /// started deferred and settled in one pump.
    RfqBurst,
    /// The paper's running example: buyer and seller engines trading EDI
    /// purchase orders through back ends and business rules.
    PoRoundtrip,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Self::RfqTrickle, Self::RfqBurst, Self::PoRoundtrip];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::RfqTrickle => "rfq-trickle",
            Self::RfqBurst => "rfq-burst",
            Self::PoRoundtrip => "po-roundtrip",
        }
    }

    /// The number that keys session `n`'s correlation id.
    pub fn session_number(self, n: u64) -> String {
        match self {
            Self::RfqTrickle | Self::RfqBurst => rfq::rfq_number(n),
            Self::PoRoundtrip => po::po_number(n),
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size: 512 partners and 20,000 sessions per episode
    /// for the population workloads, 4,000 POs per episode for the round
    /// trip.
    Full,
    /// A few dozen sessions per episode, for the self-test.
    Tiny,
}

impl Scale {
    fn tier(self) -> SizeTier {
        match self {
            Self::Full => SizeTier::Medium,
            Self::Tiny => SizeTier::Tiny,
        }
    }

    /// (POs per episode, POs per wave) of the round-trip workload.
    fn po_size(self) -> (usize, usize) {
        match self {
            Self::Full => (4_000, 500),
            Self::Tiny => (40, 20),
        }
    }
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed seconds to accumulate across episodes.
    pub seconds: f64,
    /// Record spans (in every other episode) and report per-layer
    /// metrics.
    pub trace: bool,
    /// Execute-stage workers of every engine.
    pub shards: usize,
    /// Input size.
    pub scale: Scale,
}

/// Episodes a run makes at least, whatever `seconds` says: enough for a
/// median set-up time, and for traced and untraced episodes to alternate.
const MIN_EPISODES: usize = 3;

/// The one place the benchmark configures an engine: defaults, except
/// that the execute stage runs `shards` workers — [`host::cores`] in a
/// measured run, so the pool is measured where it would be deployed.
pub fn configure_engine(engine: &mut IntegrationEngine, shards: usize) {
    engine.set_shards(shards);
}

/// Session bookkeeping on the initiating side: which sessions should
/// complete, when they started in simulated time, and when they did.
#[derive(Debug, Default)]
pub struct Sessions {
    pending: Vec<(CorrelationId, u64)>,
    done: Vec<CorrelationId>,
    lurkers: Vec<CorrelationId>,
    /// Simulated ms from initiate to `Completed`, timed sessions only.
    pub sim_ms: Vec<u64>,
    /// Sessions expected to complete, warm-up included.
    pub expected_total: usize,
    seen_completed: usize,
    timed: bool,
    /// Sessions initiated in the timed phase.
    pub timed_initiated: usize,
    /// Sessions of the timed phase expected to complete.
    pub timed_expected: usize,
}

impl Sessions {
    /// Records a session started at simulated `now_ms`; `completes` says
    /// whether its counterparty answers.
    pub fn started(&mut self, correlation: CorrelationId, completes: bool, now_ms: u64) {
        if self.timed {
            self.timed_initiated += 1;
            self.timed_expected += usize::from(completes);
        }
        if completes {
            self.expected_total += 1;
            self.pending.push((correlation, now_ms));
        } else {
            self.lurkers.push(correlation);
        }
    }

    /// Notes the sessions `engine` completed by simulated `now_ms`. Looks
    /// at the pending ones only when the engine's completion count moved.
    pub fn observe(&mut self, engine: &IntegrationEngine, now_ms: u64) {
        let completed = engine.completed_sessions();
        if completed == self.seen_completed {
            return;
        }
        self.seen_completed = completed;
        let timed = self.timed;
        let (sim_ms, done) = (&mut self.sim_ms, &mut self.done);
        self.pending.retain(|(c, started)| {
            if engine.session_state(c) != SessionState::Completed {
                return true;
            }
            if timed {
                sim_ms.push(now_ms - started);
            }
            done.push(c.clone());
            false
        });
    }

    /// Ends the warm-up: sessions started from now on are measured.
    pub fn start_timed(&mut self) {
        self.timed = true;
    }

    /// Every session expected to complete: the completed ones in
    /// completion order, then any still pending.
    pub fn correlations(&self) -> impl Iterator<Item = &CorrelationId> {
        self.done.iter().chain(self.pending.iter().map(|(c, _)| c))
    }

    /// Timed sessions expected to complete that did not.
    pub fn timed_missing(&self) -> usize {
        self.timed_expected - self.sim_ms.len()
    }

    /// Checks the initiating side: every answered session completed,
    /// nothing else did, and lurker sessions are still open.
    pub fn check(&self, engine: &IntegrationEngine) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.pending.is_empty() {
            problems.push(format!("{} answered sessions never completed", self.pending.len()));
        }
        if engine.completed_sessions() != self.expected_total {
            problems.push(format!(
                "{} sessions completed, {} expected",
                engine.completed_sessions(),
                self.expected_total
            ));
        }
        let open = self
            .lurkers
            .iter()
            .filter(|c| engine.session_state(c) == SessionState::InProgress)
            .count();
        if open != self.lurkers.len() {
            problems.push(format!(
                "only {open} of {} lurker sessions are still InProgress",
                self.lurkers.len()
            ));
        }
        problems
    }
}

/// Everything one episode measured.
#[derive(Debug)]
pub struct Episode {
    /// Wall seconds to build the world and warm it.
    pub setup_s: f64,
    /// Wall seconds of the timed phase (engine and generator).
    pub timed_s: f64,
    /// Engine-call and generator accounting of the timed phase.
    pub meter: Meter,
    /// Counter deltas of the timed phase.
    pub counters: Counters,
    /// Simulated ms from initiate to `Completed`, per timed session.
    pub sim_ms: Vec<u64>,
    /// Sessions initiated in the timed phase.
    pub initiated: usize,
    /// Timed sessions that failed: expected to complete but did not,
    /// plus dead letters, plus shed payloads.
    pub failed: usize,
    /// Session-table bytes per open session at the end.
    pub bytes_per_session: f64,
    /// Workflow instances resident per open session at the end.
    pub instances_per_session: f64,
    /// Orders the seller's back ends filed (round trip only).
    pub orders_filed: u64,
    /// Violated output checks.
    pub problems: Vec<String>,
}

impl Episode {
    #[allow(clippy::too_many_arguments)]
    fn finish(
        setup_s: f64,
        timed_s: f64,
        meter: Meter,
        counters: Counters,
        sessions: Sessions,
        engines: &[&IntegrationEngine],
        orders_filed: u64,
        problems: Vec<String>,
    ) -> Self {
        let (mut bytes, mut open, mut resident) = (0usize, 0usize, 0u64);
        for e in engines {
            let m = e.session_memory();
            bytes += m.bytes;
            open += m.sessions;
            resident += e.settle_metrics().instances_resident;
        }
        let failed = sessions.timed_missing() + (counters.dead_lettered + counters.shed) as usize;
        Episode {
            setup_s,
            timed_s,
            meter,
            counters,
            initiated: sessions.timed_initiated,
            sim_ms: sessions.sim_ms,
            failed,
            bytes_per_session: bytes as f64 / open.max(1) as f64,
            instances_per_session: resident as f64 / open.max(1) as f64,
            orders_filed,
            problems,
        }
    }

    /// Wall-time-free fingerprint: identical inputs must give identical
    /// values in every episode of a run. The pool counters depend on
    /// scheduling, so they are left out.
    fn fingerprint(&self) -> String {
        let counters = Counters {
            pool_rounds: 0,
            pool_inline_rounds: 0,
            pool_chunks: 0,
            pool_steals: 0,
            pool_idle_wakeups: 0,
            ..self.counters
        };
        format!(
            "{counters:?} sim={:?} initiated={} failed={} orders={}",
            self.sim_ms, self.initiated, self.failed, self.orders_filed
        )
    }
}

enum Plan {
    Rfq(rfq::Shape, b2b_bench::population::PopulationPlan),
    Po(po::PoPlan),
}

/// Runs one workload: episodes until `seconds` of timed phase have
/// accumulated (and at least [`MIN_EPISODES`]), then the report.
pub fn run(cfg: &RunConfig) -> Result<report::Report> {
    host::check_env()?;
    let rfq_plan = |shape| Plan::Rfq(shape, rfq::plan(shape, cfg.scale.tier(), cfg.seed));
    let plan = match cfg.workload {
        Workload::RfqTrickle => rfq_plan(rfq::Shape::Trickle),
        Workload::RfqBurst => rfq_plan(rfq::Shape::Burst),
        Workload::PoRoundtrip => {
            let (count, wave) = cfg.scale.po_size();
            Plan::Po(po::PoPlan::generate(count, wave, cfg.seed))
        }
    };
    let inputs = match &plan {
        Plan::Rfq(_, p) => rfq::describe(p),
        Plan::Po(p) => p.describe(),
    };
    let mut episodes: Vec<Episode> = Vec::new();
    let mut timed_s = 0.0;
    while episodes.len() < MIN_EPISODES || timed_s < cfg.seconds {
        let traced = cfg.trace && episodes.len() % 2 == 1;
        let episode = match &plan {
            Plan::Rfq(shape, p) => rfq::episode(p, *shape, cfg.shards, traced)?,
            Plan::Po(p) => po::episode(p, cfg.shards, traced)?,
        };
        timed_s += episode.timed_s;
        episodes.push(episode);
    }
    let mut problems: Vec<String> = episodes.iter().flat_map(|e| e.problems.clone()).collect();
    let first = episodes[0].fingerprint();
    if episodes.iter().any(|e| e.fingerprint() != first) {
        problems.push("episodes replaying the same inputs diverged".into());
    }
    problems.dedup();
    Ok(report::Report::build(cfg, inputs, episodes, problems))
}
