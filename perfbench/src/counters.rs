//! Snapshots of the counters the engines already expose, so a run can
//! take deltas over its timed phase.

use b2b_core::IntegrationEngine;
use b2b_network::{ReliableEndpoint, SimNetwork};

/// Declares [`Counters`] and its field-by-field difference from one list.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counter totals of one or more engines plus the network. Every
        /// field is a plain count; subtracting two snapshots gives the
        /// traffic of the interval between them.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// The traffic between `earlier` and `self`, field by field.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }
        }
    };
}

counters! {
    /// `StageCounters::routed_documents`.
    routed,
    /// `SettleMetrics::rounds`.
    settle_rounds,
    /// `SettleMetrics::touched_total`.
    touched,
    /// `SettleMetrics::moved_total`. Depends on the shard layout.
    moved,
    /// `PoolStats::rounds` (published to the workers).
    pool_rounds,
    /// `PoolStats::inline_rounds`.
    pool_inline_rounds,
    /// `PoolStats::chunks`.
    pool_chunks,
    /// `PoolStats::steals`. Depends on scheduling.
    pool_steals,
    /// `PoolStats::idle_wakeups`. Depends on scheduling.
    pool_idle_wakeups,
    /// `EngineStats::steps_executed`.
    steps,
    /// `EngineStats::transforms`.
    transforms,
    /// `EngineStats::guard_evals`.
    guard_evals,
    /// `EngineStats::rule_invocations`.
    rule_invocations,
    /// `CodecCacheStats::decode_hits`.
    decode_hits,
    /// `CodecCacheStats::decode_misses`.
    decode_misses,
    /// `CodecCacheStats::encode_buffer_reuses`.
    encode_reuses,
    /// `CodecCacheStats::encode_buffer_allocs`.
    encode_allocs,
    /// `ReliableStats::sends`, engines and partner endpoints.
    reliable_sends,
    /// `ReliableStats::retries`, engines and partner endpoints.
    reliable_retries,
    /// `ReliableStats::acks`, engines and partner endpoints.
    reliable_acks,
    /// `ReliableStats::failures`, engines and partner endpoints.
    reliable_failures,
    /// `IntegrationStats::dead_lettered`.
    dead_lettered,
    /// `IntegrationStats::shed` plus inbound sheds.
    shed,
    /// `NetworkStats::sent`.
    net_sent,
    /// `NetworkStats::duplicated`.
    net_duplicated,
}

impl Counters {
    /// Adds one engine's counters.
    pub fn add_engine(&mut self, e: &IntegrationEngine) {
        let profile = e.stage_profile();
        let settle = e.settle_metrics();
        let pool = e.pool_stats();
        let wf = e.wf().stats();
        let cache = e.codec_cache_stats();
        self.routed += profile.counters.routed_documents;
        self.settle_rounds += settle.rounds;
        self.touched += settle.touched_total;
        self.moved += settle.moved_total;
        self.pool_rounds += pool.rounds;
        self.pool_inline_rounds += pool.inline_rounds;
        self.pool_chunks += pool.chunks;
        self.pool_steals += pool.steals;
        self.pool_idle_wakeups += pool.idle_wakeups;
        self.steps += wf.steps_executed;
        self.transforms += wf.transforms;
        self.guard_evals += wf.guard_evals;
        self.rule_invocations += wf.rule_invocations;
        self.decode_hits += cache.decode_hits;
        self.decode_misses += cache.decode_misses;
        self.encode_reuses += cache.encode_buffer_reuses;
        self.encode_allocs += cache.encode_buffer_allocs;
        self.add_reliable(e.reliable_stats());
        self.dead_lettered += e.stats().dead_lettered;
        self.shed += e.stats().shed + e.health_stats().shed_inbound;
    }

    /// Adds one raw partner endpoint's reliable-layer counters.
    pub fn add_endpoint(&mut self, ep: &ReliableEndpoint) {
        self.add_reliable(ep.stats());
    }

    fn add_reliable(&mut self, r: &b2b_network::ReliableStats) {
        self.reliable_sends += r.sends;
        self.reliable_retries += r.retries;
        self.reliable_acks += r.acks;
        self.reliable_failures += r.failures;
    }

    /// Adds the network's counters.
    pub fn add_network(&mut self, net: &SimNetwork) {
        self.net_sent += net.stats().sent;
        self.net_duplicated += net.stats().duplicated;
    }
}
