//! Turning episodes into the named metrics, and printing them.

use crate::meter::{Gen, Span};
use crate::{Episode, RunConfig};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics whose value is a pure function of the inputs: the
/// same seed gives the same value on every run and at every shard count.
pub const DETERMINISTIC_END_TO_END: [&str; 3] =
    ["session_sim_p50_ms", "session_sim_tail_ms", "success_share"];

/// Per-layer metrics whose value is a pure function of the inputs. Not
/// listed: the pool metrics, which depend on scheduling;
/// `wfms.settle.moved_per_round`, which depends on the shard count (the
/// self-test checks it at one count); and the timings.
pub const DETERMINISTIC_PER_LAYER: [&str; 13] = [
    "wfms.instances_resident_per_session",
    "wfms.settle.rounds_per_doc",
    "wfms.settle.touched_per_round",
    "wfms.steps_per_doc",
    "wfms.transforms_per_doc",
    "wfms.guard_evals_per_doc",
    "rules.invocations_per_doc",
    "document.decode_memo_hit_ratio",
    "document.encode_buffer_reuse_ratio",
    "network.retry_ratio",
    "network.duplicate_ratio",
    "network.envelopes_per_doc",
    "backend.orders_filed",
];

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    /// The run's configuration.
    pub config: RunConfig,
    /// Measured properties of the generated inputs.
    pub inputs: Vec<(&'static str, f64)>,
    /// Metrics a user of the system would see.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers.
    pub per_layer: Vec<Metric>,
    /// Sessions initiated in timed phases.
    pub attempted: u64,
    /// Sessions failed in timed phases.
    pub failed: u64,
    /// Violated output checks; empty when the run is correct.
    pub problems: Vec<String>,
    /// Human-readable details: sample counts, percentiles, the ledger.
    pub notes: Vec<String>,
    /// Spans of the first traced episode.
    pub spans: Vec<Span>,
}

/// Nearest-rank quantile `q` of ascending `sorted` (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest quantile, up to 0.99, with at least ten samples beyond it.
fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Mean over `episodes` of each one's quantile, as `quantile_of` reads
/// it. A shared virtual machine's speed can switch between two modes
/// every few seconds (the median initiate of a one-second episode read
/// either ~35 or ~50 µs on `po-roundtrip` on the baseline host), so a
/// quantile pooled over the episodes jumps between the modes from run to
/// run, while this mean moves only with the share of the run spent in
/// each.
fn mean_of_quantiles(episodes: &[Episode], quantile_of: impl Fn(&Episode) -> f64) -> f64 {
    episodes.iter().map(quantile_of).sum::<f64>() / episodes.len().max(1) as f64
}

/// Median initiate latency (the mean of the per-episode medians) and the
/// tail pooled over every episode, in µs, plus a note with the sample
/// count.
fn initiate_latency_us(episodes: &[Episode]) -> (f64, f64, String) {
    let sorted = |e: &Episode| {
        let mut ns = e.meter.initiate_ns.clone();
        ns.sort_unstable();
        ns
    };
    let p50 = mean_of_quantiles(episodes, |e| quantile(&sorted(e), 0.5) as f64 / 1e3);
    let mut pooled: Vec<u64> =
        episodes.iter().flat_map(|e| e.meter.initiate_ns.iter().copied()).collect();
    pooled.sort_unstable();
    let q = tail_quantile(pooled.len());
    let tail = quantile(&pooled, q) as f64 / 1e3;
    let note = format!(
        "initiate latency: {} calls, p50 {p50:.3} us (mean of episode medians), p{:.3} {tail:.3} us",
        pooled.len(),
        q * 100.0
    );
    (p50, tail, note)
}

/// The duration, µs, of the call holding the document of rank
/// ceil(q·documents) in `calls`, ascending (duration ns, documents) pairs.
fn doc_quantile(calls: &[(u64, u64)], q: f64) -> f64 {
    let docs: u64 = calls.iter().map(|c| c.1).sum();
    let rank = ((q * docs as f64).ceil() as u64).max(1);
    let mut seen = 0;
    calls
        .iter()
        .find(|c| {
            seen += c.1;
            seen >= rank
        })
        .map_or(0.0, |c| c.0 as f64 / 1e3)
}

/// Median and p90 document latency, each the mean over episodes of the
/// episode's own quantile, in µs, plus a note. Every document takes the
/// wall time of the engine call that routed it, so the documents of one
/// call are one sample, not many: an episode routes a few dozen to a few
/// hundred wave-sized calls, and its p90 document sits in one of the
/// slowest few. A quantile pooled over every episode would sit in the
/// run's handful of slowest calls instead, which come from host stalls
/// and spread by a quarter between runs.
fn doc_latency_us(episodes: &[Episode]) -> (f64, f64, String) {
    let sorted = |e: &Episode| {
        let mut calls = e.meter.doc_calls.clone();
        calls.sort_unstable();
        calls
    };
    let p50 = mean_of_quantiles(episodes, |e| doc_quantile(&sorted(e), 0.5));
    let p90 = mean_of_quantiles(episodes, |e| doc_quantile(&sorted(e), 0.9));
    let docs: u64 = episodes.iter().flat_map(|e| &e.meter.doc_calls).map(|c| c.1).sum();
    let calls: usize = episodes.iter().map(|e| e.meter.doc_calls.len()).sum();
    let note = format!(
        "doc latency: {docs} documents in {calls} routing calls, p50 {p50:.3} us, p90 {p90:.3} us \
         (means of episode quantiles)"
    );
    (p50, p90, note)
}

/// Documents routed per second of engine busy time, over `episodes`.
fn docs_per_s_of<'a>(episodes: impl Iterator<Item = &'a Episode>) -> f64 {
    let (routed, busy) =
        episodes.fold((0, 0), |(r, b), e| (r + e.meter.routed, b + e.meter.busy_ns));
    ratio(routed, busy) * 1e9
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Report {
    /// Computes every metric of the run's episodes.
    pub fn build(
        config: &RunConfig,
        inputs: Vec<(&'static str, f64)>,
        episodes: Vec<Episode>,
        problems: Vec<String>,
    ) -> Self {
        let mut notes = Vec::new();
        let sum = |f: &dyn Fn(&Episode) -> u64| episodes.iter().map(f).sum::<u64>();

        let (doc_p50, doc_p90, note) = doc_latency_us(&episodes);
        notes.push(note);
        let (init_p50, init_tail, note) = initiate_latency_us(&episodes);
        notes.push(note);
        // Every episode replays the same inputs, so one episode's
        // simulated latencies are every episode's.
        let mut sim = episodes[0].sim_ms.clone();
        sim.sort_unstable();
        // The tail is the highest percentile with ten samples beyond it:
        // p99 would sit on the edge of the ~1% of trickle sessions that
        // lose a message and jump between two modes from seed to seed.
        let sim_tail = 1.0 - 10.0 / sim.len().max(20) as f64;
        let p50 = quantile(&sim, 0.5);
        notes.push(format!(
            "session sim latency: {} samples per episode, {} slower than the median, tail at p{:.3}",
            sim.len(),
            sim.iter().filter(|&&ms| ms > p50).count(),
            sim_tail * 100.0
        ));

        let routed = sum(&|e| e.meter.routed);
        let busy = sum(&|e| e.meter.busy_ns);
        let attempted = sum(&|e| e.initiated as u64);
        let failed = sum(&|e| e.failed as u64);
        let end_to_end = vec![
            Metric { name: "docs_per_s", value: docs_per_s_of(episodes.iter()), unit: "docs/s" },
            Metric { name: "doc_p50_us", value: doc_p50, unit: "us" },
            Metric { name: "initiate_p50_us", value: init_p50, unit: "us" },
            Metric { name: "session_sim_p50_ms", value: p50 as f64, unit: "sim-ms" },
            Metric {
                name: "session_sim_tail_ms",
                value: quantile(&sim, sim_tail) as f64,
                unit: "sim-ms",
            },
            Metric {
                name: "allocs_per_doc",
                value: ratio(sum(&|e| e.meter.allocs), routed),
                unit: "allocs/doc",
            },
            Metric {
                name: "peak_rss_mb",
                value: crate::host::vm_hwm_kib().unwrap_or(0) as f64 / 1024.0,
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: median(episodes.iter().map(|e| e.setup_s).collect()),
                unit: "s",
            },
            Metric { name: "success_share", value: 1.0 - ratio(failed, attempted), unit: "ratio" },
        ];

        let stage = |i: usize| sum(&|e| e.meter.stage_ns[i]);
        let staged: u64 = (0..4).map(stage).sum();
        let residual = busy - staged;
        notes.push(format!(
            "ledger: edge {} + route {} + execute {} + emit {} + residual {residual} = engine busy {busy} ns",
            stage(0),
            stage(1),
            stage(2),
            stage(3)
        ));
        let c = |f: &dyn Fn(&crate::counters::Counters) -> u64| sum(&|e| f(&e.counters));
        let gen = |kind: Gen| {
            let (calls, ns) = episodes
                .iter()
                .map(|e| e.meter.gen_total(kind))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            ratio(ns, calls)
        };
        let quotes = episodes.iter().map(|e| e.meter.gen_total(Gen::Send).0).sum::<u64>();
        let transform_ns =
            episodes.iter().map(|e| e.meter.gen_total(Gen::Transform).1).sum::<u64>();
        let settle_rounds = c(&|c| c.settle_rounds);
        let pool_rounds = c(&|c| c.pool_rounds);
        let last = episodes.last().expect("a run has at least one episode");
        let (traced, untraced): (Vec<&Episode>, Vec<&Episode>) =
            episodes.iter().partition(|e| e.meter.trace.is_some());
        let mut per_layer = vec![
            Metric { name: "core.edge.ns_per_doc", value: ratio(stage(0), routed), unit: "ns/doc" },
            Metric {
                name: "core.route.ns_per_doc",
                value: ratio(stage(1), routed),
                unit: "ns/doc",
            },
            Metric {
                name: "core.execute.ns_per_doc",
                value: ratio(stage(2), routed),
                unit: "ns/doc",
            },
            Metric { name: "core.emit.ns_per_doc", value: ratio(stage(3), routed), unit: "ns/doc" },
            Metric {
                name: "core.residual.ns_per_doc",
                value: ratio(residual, routed),
                unit: "ns/doc",
            },
            Metric {
                name: "core.initiate.allocs_per_call",
                value: ratio(
                    sum(&|e| e.meter.initiate_allocs),
                    sum(&|e| e.meter.initiate_ns.len() as u64),
                ),
                unit: "allocs/call",
            },
            Metric { name: "core.initiate.p99_us", value: init_tail, unit: "us" },
            Metric { name: "core.doc.p90_us", value: doc_p90, unit: "us" },
            Metric {
                name: "core.pump.allocs_per_doc",
                value: ratio(sum(&|e| e.meter.pump_allocs), sum(&|e| e.meter.pump_routed)),
                unit: "allocs/doc",
            },
            Metric {
                name: "core.session.bytes_per_session",
                value: last.bytes_per_session,
                unit: "B/session",
            },
            Metric {
                name: "wfms.instances_resident_per_session",
                value: last.instances_per_session,
                unit: "inst/session",
            },
            Metric {
                name: "wfms.settle.rounds_per_doc",
                value: ratio(settle_rounds, routed),
                unit: "rounds/doc",
            },
            Metric {
                name: "wfms.settle.touched_per_round",
                value: ratio(c(&|c| c.touched), settle_rounds),
                unit: "instances/round",
            },
            Metric {
                name: "wfms.settle.moved_per_round",
                value: ratio(c(&|c| c.moved), settle_rounds),
                unit: "instances/round",
            },
            Metric {
                name: "wfms.pool.parallel_share",
                value: ratio(pool_rounds, pool_rounds + c(&|c| c.pool_inline_rounds)),
                unit: "ratio",
            },
            Metric {
                name: "wfms.pool.steal_share",
                value: ratio(c(&|c| c.pool_steals), c(&|c| c.pool_chunks)),
                unit: "ratio",
            },
            Metric {
                name: "wfms.pool.idle_wakeups",
                value: ratio(c(&|c| c.pool_idle_wakeups), episodes.len() as u64),
                unit: "count/episode",
            },
            Metric {
                name: "wfms.steps_per_doc",
                value: ratio(c(&|c| c.steps), routed),
                unit: "steps/doc",
            },
            Metric {
                name: "wfms.transforms_per_doc",
                value: ratio(c(&|c| c.transforms), routed),
                unit: "transforms/doc",
            },
            Metric {
                name: "wfms.guard_evals_per_doc",
                value: ratio(c(&|c| c.guard_evals), routed),
                unit: "evals/doc",
            },
            Metric {
                name: "rules.invocations_per_doc",
                value: ratio(c(&|c| c.rule_invocations), routed),
                unit: "calls/doc",
            },
            Metric {
                name: "document.decode_memo_hit_ratio",
                value: ratio(c(&|c| c.decode_hits), c(&|c| c.decode_hits + c.decode_misses)),
                unit: "ratio",
            },
            Metric {
                name: "document.encode_buffer_reuse_ratio",
                value: ratio(c(&|c| c.encode_reuses), c(&|c| c.encode_reuses + c.encode_allocs)),
                unit: "ratio",
            },
            Metric {
                name: "document.gen.decode_ns.rosettanet",
                value: gen(Gen::DecodeRosettaNet),
                unit: "ns/call",
            },
            Metric {
                name: "document.gen.decode_ns.binary",
                value: gen(Gen::DecodeBinary),
                unit: "ns/call",
            },
            Metric {
                name: "document.gen.encode_ns.rosettanet",
                value: gen(Gen::EncodeRosettaNet),
                unit: "ns/call",
            },
            Metric {
                name: "document.gen.encode_ns.binary",
                value: gen(Gen::EncodeBinary),
                unit: "ns/call",
            },
            Metric {
                name: "transform.gen.ns_per_doc",
                value: ratio(transform_ns, quotes),
                unit: "ns/doc",
            },
            Metric {
                name: "network.retry_ratio",
                value: ratio(c(&|c| c.reliable_retries), c(&|c| c.reliable_sends)),
                unit: "ratio",
            },
            Metric {
                name: "network.duplicate_ratio",
                value: ratio(c(&|c| c.net_duplicated), c(&|c| c.net_sent)),
                unit: "ratio",
            },
            Metric {
                name: "network.envelopes_per_doc",
                value: ratio(c(&|c| c.net_sent), routed),
                unit: "envelopes/doc",
            },
            Metric { name: "backend.orders_filed", value: last.orders_filed as f64, unit: "count" },
        ];
        if !traced.is_empty() && !untraced.is_empty() {
            per_layer.push(Metric {
                name: "trace.docs_per_s_ratio",
                value: docs_per_s_of(traced.iter().copied())
                    / docs_per_s_of(untraced.iter().copied()),
                unit: "ratio",
            });
        }
        notes.push(format!(
            "episodes: {} ({} traced), timed {:.3} s, engine busy {:.3} s, {} docs routed",
            episodes.len(),
            traced.len(),
            episodes.iter().map(|e| e.timed_s).sum::<f64>(),
            busy as f64 / 1e9,
            routed
        ));
        let mut rates: Vec<f64> = episodes.iter().map(std::iter::once).map(docs_per_s_of).collect();
        rates.sort_by(f64::total_cmp);
        let rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        notes.push(format!("docs_per_s by episode, ascending: {}", rates.join(" ")));
        let mut problems = problems;
        for m in end_to_end.iter().chain(&per_layer) {
            if !m.value.is_finite() {
                problems.push(format!("{} is not a finite number", m.name));
            }
        }
        // One traced episode's spans make the trace file; the others were
        // recorded only so that the overhead ratio compares like with like.
        let spans = traced
            .first()
            .and_then(|e| e.meter.trace.as_ref())
            .map_or(Vec::new(), |t| t.spans.clone());
        Report {
            config: config.clone(),
            inputs,
            end_to_end,
            per_layer,
            attempted,
            failed,
            problems,
            notes,
            spans,
        }
    }

    /// The run's result line: the four keys the contract names, with
    /// `metrics` taken from `metrics`.
    pub fn json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number with all its digits; a non-finite value (already
/// reported as a problem) prints as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
