//! Measurement from outside the program: every call into an engine's
//! public API and every library call the simulated partners make goes
//! through a [`Meter`], which times it, counts the allocator calls made
//! inside it, and — in a traced episode — records a span for it.
//!
//! Engine calls are exact on allocation counts because the engine's pool
//! workers only run while the dispatching call is inside the engine, and
//! the load generator runs on the same thread, outside those calls.

use b2b_bench::alloc_count;
use b2b_core::IntegrationEngine;
use std::time::Instant;

/// The engine entry points the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `IntegrationEngine::initiate`: starts a session and settles inline.
    Initiate,
    /// `IntegrationEngine::initiate_deferred`: starts a session; the next
    /// pump settles it.
    InitiateDeferred,
    /// `IntegrationEngine::pump`: one pipeline pass.
    Pump,
}

impl Call {
    fn span_name(self) -> &'static str {
        match self {
            Self::Initiate => "initiate",
            Self::InitiateDeferred => "initiate_deferred",
            Self::Pump => "pump",
        }
    }
}

/// The load generator's library calls, timed but excluded from engine
/// busy time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    /// `SimNetwork::advance`.
    Advance,
    /// `ReliableEndpoint::receive_classified`.
    Receive,
    /// `FormatRegistry::decode_bytes` on RosettaNet bytes.
    DecodeRosettaNet,
    /// `FormatRegistry::decode_bytes` on binary bytes.
    DecodeBinary,
    /// `TransformRegistry::transform`.
    Transform,
    /// `FormatRegistry::encode` into RosettaNet.
    EncodeRosettaNet,
    /// `FormatRegistry::encode` into binary.
    EncodeBinary,
    /// `ReliableEndpoint::send`.
    Send,
    /// `ReliableEndpoint::tick`.
    Tick,
}

impl Gen {
    fn index(self) -> usize {
        self as usize
    }

    fn span_name(self) -> &'static str {
        match self {
            Self::Advance => "advance",
            Self::Receive => "receive_classified",
            Self::DecodeRosettaNet => "decode_bytes.rosettanet",
            Self::DecodeBinary => "decode_bytes.binary",
            Self::Transform => "transform",
            Self::EncodeRosettaNet => "encode.rosettanet",
            Self::EncodeBinary => "encode.binary",
            Self::Send => "send",
            Self::Tick => "tick",
        }
    }
}

/// Names of the four pump stages, in `StageTimers` order.
const STAGES: [&str; 4] = ["edge", "route", "execute", "emit"];

/// One recorded span. Times are nanoseconds since the episode started.
/// Stage children carry the exact `stage_profile().timers` deltas of
/// their engine call; they are laid end to end from the call's start,
/// so their positions are nominal and their durations exact.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, ns since the episode began.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Session ordinal for `initiate` spans, partner index for partner
    /// calls, 0 otherwise.
    pub tag: u64,
    /// Counter deltas attached to the span: engine calls carry
    /// (documents routed, allocator calls, settle rounds); generator
    /// calls carry (items handled, bytes, 0).
    pub deltas: [u64; 3],
}

const ROOT: u32 = u32::MAX;

/// In-memory span recorder of one traced episode.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(ROOT)
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }
}

/// Engine-call and generator-call accounting of one episode.
#[derive(Debug, Default)]
pub struct Meter {
    /// Wall ns spent inside engine calls.
    pub busy_ns: u64,
    /// Documents the engine(s) routed (`StageCounters::routed_documents`).
    pub routed: u64,
    /// Allocator calls made inside engine calls.
    pub allocs: u64,
    /// (wall ns, documents routed) of each engine call that routed
    /// documents: every document it routed waited that long.
    pub doc_calls: Vec<(u64, u64)>,
    /// Wall ns of each initiate / initiate_deferred call.
    pub initiate_ns: Vec<u64>,
    /// Allocator calls inside initiate calls.
    pub initiate_allocs: u64,
    /// Allocator calls inside pump calls.
    pub pump_allocs: u64,
    /// Documents routed inside pump calls.
    pub pump_routed: u64,
    /// Σ `StageTimers` deltas over all engine calls: edge, route,
    /// execute, emit.
    pub stage_ns: [u64; 4],
    /// Per generator call kind, indexed by `Gen as usize`: (calls, wall
    /// ns).
    pub gen: [(u64, u64); 9],
    /// Span recorder, present in traced episodes only.
    pub trace: Option<Tracer>,
}

impl Meter {
    /// A meter that records spans when `traced`.
    pub fn new(traced: bool) -> Self {
        Self { trace: traced.then(Tracer::new), ..Self::default() }
    }

    /// Runs one engine call, accounting its wall time, allocations,
    /// routed documents and stage-timer deltas. Fails if the stage
    /// timers inside the call exceed its wall time, which would break the
    /// ledger (stages + residual = engine-call time).
    pub fn call<R>(
        &mut self,
        kind: Call,
        engine: &mut IntegrationEngine,
        tag: u64,
        f: impl FnOnce(&mut IntegrationEngine) -> R,
    ) -> Result<R, String> {
        let start = self.trace.as_ref().map_or(0, Tracer::now_ns);
        let routed_before = engine.stage_profile().counters.routed_documents;
        let timers_before = engine.stage_profile().timers;
        let rounds_before = self.trace.as_ref().map(|_| engine.settle_metrics().rounds);
        let ((out, dur), alloc) = alloc_count::measure(|| {
            let t0 = Instant::now();
            let out = f(engine);
            (out, t0.elapsed().as_nanos() as u64)
        });
        let profile = engine.stage_profile();
        let routed = profile.counters.routed_documents - routed_before;
        let t = profile.timers;
        let stages = [
            t.edge_ns - timers_before.edge_ns,
            t.route_ns - timers_before.route_ns,
            t.execute_ns - timers_before.execute_ns,
            t.emit_ns - timers_before.emit_ns,
        ];
        let staged: u64 = stages.iter().sum();
        if staged > dur {
            return Err(format!(
                "ledger broken: stage timers {staged} ns exceed the {} call's {dur} ns",
                kind.span_name()
            ));
        }
        self.busy_ns += dur;
        self.routed += routed;
        self.allocs += alloc.allocations;
        if routed > 0 {
            self.doc_calls.push((dur, routed));
        }
        for (sum, ns) in self.stage_ns.iter_mut().zip(stages) {
            *sum += ns;
        }
        match kind {
            Call::Initiate | Call::InitiateDeferred => {
                self.initiate_ns.push(dur);
                self.initiate_allocs += alloc.allocations;
            }
            Call::Pump => {
                self.pump_allocs += alloc.allocations;
                self.pump_routed += routed;
            }
        }
        if let Some(tr) = &mut self.trace {
            let rounds = engine.settle_metrics().rounds - rounds_before.unwrap_or(0);
            let parent = tr.parent();
            let id = tr.push(Span {
                parent,
                name: kind.span_name(),
                start_ns: start,
                dur_ns: dur,
                tag,
                deltas: [routed, alloc.allocations, rounds],
            });
            let mut at = start;
            for (name, ns) in STAGES.into_iter().zip(stages) {
                if ns > 0 {
                    tr.push(Span {
                        parent: id,
                        name,
                        start_ns: at,
                        dur_ns: ns,
                        tag: 0,
                        deltas: [0; 3],
                    });
                    at += ns;
                }
            }
        }
        Ok(out)
    }

    /// Runs one generator call, accounting its wall time.
    pub fn gen<R>(&mut self, kind: Gen, tag: u64, f: impl FnOnce() -> R) -> R {
        self.gen_counted(kind, tag, f, |_| Some((1, 0)))
    }

    /// Like [`gen`](Self::gen); `counts` derives the span's (items,
    /// bytes) deltas from the result, or `None` to record no span for a
    /// call that did nothing (its time stays in the enclosing span).
    pub fn gen_counted<R>(
        &mut self,
        kind: Gen,
        tag: u64,
        f: impl FnOnce() -> R,
        counts: impl FnOnce(&R) -> Option<(u64, u64)>,
    ) -> R {
        let start = self.trace.as_ref().map_or(0, Tracer::now_ns);
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        let slot = &mut self.gen[kind.index()];
        slot.0 += 1;
        slot.1 += dur;
        if let Some(tr) = &mut self.trace {
            if let Some((items, bytes)) = counts(&out) {
                let parent = tr.parent();
                tr.push(Span {
                    parent,
                    name: kind.span_name(),
                    start_ns: start,
                    dur_ns: dur,
                    tag,
                    deltas: [items, bytes, 0],
                });
            }
        }
        out
    }

    /// Opens an enclosing span (a simulation step, the partner sweep);
    /// a no-op outside traced episodes. Close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, tag: u64) {
        if let Some(tr) = &mut self.trace {
            let span = Span {
                parent: tr.parent(),
                name,
                start_ns: tr.now_ns(),
                dur_ns: 0,
                tag,
                deltas: [0; 3],
            };
            let id = tr.push(span);
            tr.open.push(id);
        }
    }

    /// Closes the innermost span opened by [`begin`](Self::begin).
    pub fn end(&mut self) {
        if let Some(tr) = &mut self.trace {
            let id = tr.open.pop().expect("end() matches a begin()") as usize;
            tr.spans[id].dur_ns = tr.now_ns() - tr.spans[id].start_ns;
        }
    }

    /// How many generator calls of `kind` ran, and their wall ns.
    pub fn gen_total(&self, kind: Gen) -> (u64, u64) {
        self.gen[kind.index()]
    }
}
