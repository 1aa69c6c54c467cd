//! Stage 1 of the pump: the wire edge.
//!
//! The edge owns everything that touches raw bytes — the reliable
//! endpoint, the format registry, and the dead-letter queue — and is the
//! ONLY place malformed traffic is handled: payloads that fail to decode
//! or verify are quarantined here, before routing ever sees them, and
//! failure notices are parsed here. Inner stages (route, execute, emit)
//! therefore deal exclusively in well-formed documents.

use crate::deadletter::{DeadLetterQueue, DeadLetterReason};
use crate::metrics::CodecCacheStats;
use b2b_document::{DocKind, Document, FormatId, FormatRegistry};
use b2b_network::fnv::FnvMap;
use b2b_network::{
    Bytes, EndpointId, Envelope, InboundBatch, MessageId, ReliableConfig, ReliableEndpoint,
    SimNetwork,
};
use b2b_protocol::FailureNotice;
use std::fmt;

/// Decode-memo bound per generation: once the hot generation fills, it
/// becomes the cold generation and a fresh hot one starts.
const DECODE_MEMO_CAP: usize = 1024;

/// Two-generation (second-chance) decode memo keyed by
/// (declared format, payload checksum); the stored payload guards
/// against checksum collisions.
///
/// Entries are inserted into the hot generation. When the hot
/// generation reaches its cap it is demoted wholesale to cold and the
/// previous cold generation is dropped; a hit on a cold entry promotes
/// it back to hot. Keys that keep being looked up therefore survive
/// eviction indefinitely, while one-shot keys age out after at most two
/// generations — deterministic like the old wholesale clear, but
/// without dropping the working set at the cap boundary.
struct DecodeMemo {
    hot: FnvMap<(FormatId, u64), (Bytes, Document)>,
    cold: FnvMap<(FormatId, u64), (Bytes, Document)>,
    cap: usize,
}

impl DecodeMemo {
    fn new(cap: usize) -> Self {
        Self { hot: FnvMap::default(), cold: FnvMap::default(), cap }
    }

    /// Looks up a memoized decode, promoting cold hits to the hot
    /// generation. The payload must match the stored payload exactly;
    /// a checksum collision is treated as a miss.
    fn get(&mut self, key: &(FormatId, u64), payload: &Bytes) -> Option<&Document> {
        if let Some((stored, _)) = self.hot.get(key) {
            if stored == payload {
                return self.hot.get(key).map(|(_, doc)| doc);
            }
            return None;
        }
        if let Some((stored, _)) = self.cold.get(key) {
            if stored != payload {
                return None;
            }
            let entry = self.cold.remove(key).expect("checked above");
            self.rotate_if_full();
            return Some(&self.hot.entry(key.clone()).or_insert(entry).1);
        }
        None
    }

    /// Like [`get`](Self::get) but without promotion; used for counting
    /// suppressed duplicates without mutating generation state.
    fn peek(&self, key: &(FormatId, u64), payload: &Bytes) -> bool {
        self.hot
            .get(key)
            .or_else(|| self.cold.get(key))
            .map(|(stored, _)| stored == payload)
            .unwrap_or(false)
    }

    fn insert(&mut self, key: (FormatId, u64), payload: Bytes, doc: Document) {
        self.rotate_if_full();
        self.hot.insert(key, (payload, doc));
    }

    /// Whether a [`get`](Self::get) would hit, mirroring its quirks (a
    /// hot entry with a mismatched payload shadows cold) but without
    /// mutating generation state. Used by the batch-decode planner to
    /// predict which envelopes need a parse — a wrong prediction only
    /// costs a wasted parallel parse or an inline fallback, never a
    /// wrong result.
    fn predict_hit(&self, key: &(FormatId, u64), payload: &Bytes) -> bool {
        if let Some((stored, _)) = self.hot.get(key) {
            return stored == payload;
        }
        if let Some((stored, _)) = self.cold.get(key) {
            return stored == payload;
        }
        false
    }

    fn rotate_if_full(&mut self) {
        if self.hot.len() >= self.cap {
            self.cold = std::mem::take(&mut self.hot);
        }
    }
}

/// One slot of batch-parse output. Sharing across pool workers is sound
/// because the pool claims each index exactly once, so the owning task's
/// mutable access is exclusive (same argument as the settle slices).
struct ParseCell(std::cell::UnsafeCell<Option<b2b_document::Result<Document>>>);

unsafe impl Sync for ParseCell {}

/// What the edge rejects (and quarantines) without involving routing.
#[derive(Debug)]
pub enum EdgeError {
    /// Payload bytes did not decode in the declared format.
    Decode(String),
    /// A failure-notice body did not parse.
    Notice(String),
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Decode(e) => f.write_str(e),
            Self::Notice(e) => write!(f, "failure notice: {e}"),
        }
    }
}

impl std::error::Error for EdgeError {}

/// The byte boundary of one enterprise: reliable messaging outward,
/// decode/verify plus quarantine inward.
pub(crate) struct Edge {
    reliable: ReliableEndpoint,
    formats: FormatRegistry,
    dead_letters: DeadLetterQueue,
    /// Memoized decodes; retransmitted duplicates and dead-letter
    /// replays skip re-parsing.
    decode_memo: DecodeMemo,
    /// Reusable encode buffers, one per (format, kind): after warm-up,
    /// outbound encodes append into an existing allocation.
    encode_buffers: FnvMap<(FormatId, DocKind), Vec<u8>>,
    /// Reused JSON scratch for failure-notice bodies.
    notice_scratch: String,
    cache_stats: CodecCacheStats,
}

impl Edge {
    pub fn new(
        endpoint: EndpointId,
        config: ReliableConfig,
        net: &mut SimNetwork,
    ) -> b2b_network::Result<Self> {
        Ok(Self {
            reliable: ReliableEndpoint::new(endpoint, config, net)?,
            formats: FormatRegistry::with_builtins(),
            dead_letters: DeadLetterQueue::default(),
            decode_memo: DecodeMemo::new(DECODE_MEMO_CAP),
            encode_buffers: FnvMap::default(),
            notice_scratch: String::new(),
            cache_stats: CodecCacheStats::default(),
        })
    }

    /// Drains inbound wire traffic, already acknowledged, deduplicated,
    /// and integrity-checked, classified into payloads and notices.
    pub fn receive(&mut self, net: &mut SimNetwork) -> b2b_network::Result<InboundBatch> {
        self.reliable.receive_classified(net)
    }

    /// Decodes a payload envelope into a document, memoizing by
    /// (format, payload checksum). Decoding is deterministic, so a memo
    /// hit returns exactly the document a fresh parse would.
    pub fn decode(&mut self, envelope: &Envelope) -> Result<Document, EdgeError> {
        let key = (envelope.format.clone(), envelope.checksum);
        if let Some(doc) = self.decode_memo.get(&key, &envelope.payload) {
            self.cache_stats.decode_hits += 1;
            return Ok(doc.clone());
        }
        let doc = self
            .formats
            .decode_bytes(&envelope.format, &envelope.payload)
            .map_err(|e| EdgeError::Decode(e.to_string()))?;
        self.cache_stats.decode_misses += 1;
        self.decode_memo.insert(key, envelope.payload.clone(), doc.clone());
        Ok(doc)
    }

    /// Decodes a batch of payload envelopes, farming the predicted memo
    /// misses out to the worker pool. Results, counters, and memo state
    /// are byte-identical to calling [`decode`](Self::decode) once per
    /// envelope in order: a sequential replay over the memo is the
    /// source of truth, and the parallel phase only pre-computes parses
    /// the replay would have done inline. A mis-prediction (memo
    /// rotation evicting a predicted hit, or a duplicate key parsed
    /// twice) costs a wasted or repeated parse, never a different
    /// outcome.
    pub fn decode_batch(
        &mut self,
        envelopes: &[Envelope],
        pool: &b2b_wfms::WorkerPool,
        chunk: usize,
    ) -> Vec<Result<Document, EdgeError>> {
        if envelopes.len() <= 1 || pool.workers() == 0 {
            return envelopes.iter().map(|e| self.decode(e)).collect();
        }

        // Phase 1: predict which envelopes miss the memo. Only the first
        // occurrence of a (key, payload) pair parses — the replay inserts
        // it, so later duplicates hit.
        let mut planned: FnvMap<(FormatId, u64), &Bytes> = FnvMap::default();
        let mut jobs: Vec<usize> = Vec::new();
        for (i, envelope) in envelopes.iter().enumerate() {
            let key = (envelope.format.clone(), envelope.checksum);
            if self.decode_memo.predict_hit(&key, &envelope.payload) {
                continue;
            }
            match planned.get(&key) {
                Some(payload) if **payload == envelope.payload => {}
                _ => {
                    planned.insert(key, &envelope.payload);
                    jobs.push(i);
                }
            }
        }

        // Phase 2: parse predicted misses in parallel. The registry is
        // shared immutably; codecs are `Send + Sync`.
        let parsed: Vec<ParseCell> =
            jobs.iter().map(|_| ParseCell(std::cell::UnsafeCell::new(None))).collect();
        if jobs.len() > 1 {
            let formats = &self.formats;
            pool.run(jobs.len(), chunk, &|k| {
                let envelope = &envelopes[jobs[k]];
                let result = formats.decode_bytes(&envelope.format, &envelope.payload);
                unsafe { *parsed[k].0.get() = Some(result) };
            });
        } else if let Some(&i) = jobs.first() {
            let envelope = &envelopes[i];
            let result = self.formats.decode_bytes(&envelope.format, &envelope.payload);
            unsafe { *parsed[0].0.get() = Some(result) };
        }
        let mut pre: FnvMap<usize, b2b_document::Result<Document>> = jobs
            .iter()
            .zip(parsed)
            .map(|(&i, cell)| (i, cell.0.into_inner().expect("pool ran every parse")))
            .collect();

        // Phase 3: sequential replay against the memo, exactly the loop
        // `decode` runs, except a pre-parsed result stands in for the
        // inline parse when available.
        let mut out = Vec::with_capacity(envelopes.len());
        for (i, envelope) in envelopes.iter().enumerate() {
            let key = (envelope.format.clone(), envelope.checksum);
            if let Some(doc) = self.decode_memo.get(&key, &envelope.payload) {
                self.cache_stats.decode_hits += 1;
                out.push(Ok(doc.clone()));
                continue;
            }
            let result = match pre.remove(&i) {
                Some(result) => result,
                None => self.formats.decode_bytes(&envelope.format, &envelope.payload),
            };
            match result {
                Ok(doc) => {
                    self.cache_stats.decode_misses += 1;
                    self.decode_memo.insert(key, envelope.payload.clone(), doc.clone());
                    out.push(Ok(doc));
                }
                Err(e) => out.push(Err(EdgeError::Decode(e.to_string()))),
            }
        }
        out
    }

    /// Counts a suppressed duplicate delivery against the decode memo: a
    /// hit means the memo would have saved a re-parse had the duplicate
    /// been decoded. Never parses (duplicates are not routed), so a
    /// duplicate of a payload the memo no longer holds counts nothing.
    pub fn note_duplicate(&mut self, envelope: &Envelope) {
        let key = (envelope.format.clone(), envelope.checksum);
        if self.decode_memo.peek(&key, &envelope.payload) {
            self.cache_stats.decode_hits += 1;
        }
    }

    /// Counters for the decode memo and encode buffers.
    pub fn cache_stats(&self) -> &CodecCacheStats {
        &self.cache_stats
    }

    /// Parses a failure-notice body.
    pub fn parse_notice(envelope: &Envelope) -> Result<FailureNotice, EdgeError> {
        std::str::from_utf8(&envelope.payload)
            .map_err(|e| EdgeError::Notice(e.to_string()))
            .and_then(|s| serde_json::from_str(s).map_err(|e| EdgeError::Notice(e.to_string())))
    }

    /// Encodes a document for the wire, reusing a per-(format, kind)
    /// buffer so steady-state encodes amortize the growth of the scratch
    /// buffer. (The returned [`Bytes`] is an `Arc<[u8]>`, so each call
    /// still pays one exact-size allocation to freeze the result.)
    pub fn encode(&mut self, doc: &Document) -> Result<Bytes, b2b_document::DocumentError> {
        let key = (doc.format().clone(), doc.kind());
        match self.encode_buffers.get_mut(&key) {
            Some(buf) => {
                self.cache_stats.encode_buffer_reuses += 1;
                buf.clear();
                self.formats.encode_into(doc, buf)?;
                Ok(Bytes::copy_from_slice(buf))
            }
            None => {
                self.cache_stats.encode_buffer_allocs += 1;
                let mut buf = Vec::with_capacity(256);
                self.formats.encode_into(doc, &mut buf)?;
                let bytes = Bytes::copy_from_slice(&buf);
                self.encode_buffers.insert(key, buf);
                Ok(bytes)
            }
        }
    }

    /// Serializes a failure notice through the reused JSON scratch, so
    /// steady-state notices skip the fresh per-notice string allocation
    /// of `serde_json::to_string`.
    pub fn encode_notice(&mut self, notice: &FailureNotice) -> Result<Bytes, serde_json::Error> {
        serde_json::to_string_into(notice, &mut self.notice_scratch)?;
        Ok(Bytes::copy_from_slice(self.notice_scratch.as_bytes()))
    }

    /// Sends a payload reliably, optionally bounded by a receipt deadline.
    pub fn send_payload(
        &mut self,
        net: &mut SimNetwork,
        to: &EndpointId,
        format: FormatId,
        bytes: Bytes,
        deadline_ms: Option<u64>,
    ) -> b2b_network::Result<MessageId> {
        match deadline_ms {
            Some(ms) => self.reliable.send_with_deadline(net, to, format, bytes, Some(ms)),
            None => self.reliable.send(net, to, format, bytes),
        }
    }

    /// Sends a pre-built coalesced batch frame reliably as one unit; the
    /// receiving endpoint splits it back into per-document payloads.
    pub fn send_batch(
        &mut self,
        net: &mut SimNetwork,
        to: &EndpointId,
        format: FormatId,
        frame: Bytes,
        deadline_ms: Option<u64>,
    ) -> b2b_network::Result<MessageId> {
        self.reliable.send_batch(net, to, format, frame, deadline_ms)
    }

    /// Sends a failure notice reliably.
    pub fn send_notice(
        &mut self,
        net: &mut SimNetwork,
        to: &EndpointId,
        payload: Bytes,
    ) -> b2b_network::Result<MessageId> {
        self.reliable.send_notify(net, to, FormatId::ROSETTANET, payload)
    }

    /// Drives retransmissions with a cap on how many run this pump;
    /// failures are always processed, deferred retransmits stay due.
    /// Returns envelopes that failed permanently.
    pub fn tick_budgeted(
        &mut self,
        net: &mut SimNetwork,
        budget: usize,
    ) -> b2b_network::Result<Vec<Envelope>> {
        self.reliable.tick_budgeted(net, budget)
    }

    /// Fails every outstanding send toward `to` immediately (circuit
    /// breaker trip) and returns the abandoned envelopes.
    pub fn abandon_to(&mut self, to: &EndpointId) -> Vec<Envelope> {
        self.reliable.abandon_to(to)
    }

    /// Delivery status of a previously sent message.
    pub fn delivery_status(&self, id: &MessageId) -> b2b_network::DeliveryStatus {
        self.reliable.delivery_status(id)
    }

    /// Sends awaiting acknowledgment or retransmission.
    pub fn outstanding(&self) -> usize {
        self.reliable.outstanding_count()
    }

    /// Quarantines an envelope; never drops it.
    pub fn quarantine(
        &mut self,
        reason: DeadLetterReason,
        envelope: Envelope,
        now: b2b_network::SimTime,
    ) {
        self.dead_letters.push(reason, envelope, now);
    }

    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dead_letters
    }

    pub fn dead_letters_mut(&mut self) -> &mut DeadLetterQueue {
        &mut self.dead_letters
    }

    pub fn attempts(&self, id: &MessageId) -> u32 {
        self.reliable.attempts(id)
    }

    pub fn snapshot(&self) -> b2b_network::ReliableSnapshot {
        self.reliable.snapshot()
    }

    pub fn stats(&self) -> &b2b_network::ReliableStats {
        self.reliable.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_document::{CorrelationId, Value};

    fn doc(n: u64) -> Document {
        Document::new(
            DocKind::PurchaseOrder,
            FormatId::EDI_X12,
            CorrelationId::for_po_number(&n.to_string()),
            Value::Int(n as i64),
        )
    }

    fn payload(n: u64) -> Bytes {
        Bytes::copy_from_slice(n.to_string().as_bytes())
    }

    fn key(n: u64) -> (FormatId, u64) {
        (FormatId::EDI_X12, n)
    }

    #[test]
    fn hot_key_survives_eviction_past_the_cap() {
        let cap = 8;
        let mut memo = DecodeMemo::new(cap);
        memo.insert(key(0), payload(0), doc(0));
        // Churn through many generations of one-shot keys, re-touching
        // key 0 after each insert so it keeps getting promoted.
        for n in 1..(6 * cap as u64) {
            memo.insert(key(n), payload(n), doc(n));
            assert!(memo.get(&key(0), &payload(0)).is_some(), "hot key lost after insert {n}");
        }
        assert!(memo.get(&key(0), &payload(0)).is_some());
    }

    #[test]
    fn untouched_keys_age_out_after_two_generations() {
        let cap = 4;
        let mut memo = DecodeMemo::new(cap);
        memo.insert(key(0), payload(0), doc(0));
        // Two full generations of churn with no re-touch of key 0.
        for n in 1..=(2 * cap as u64) {
            memo.insert(key(n), payload(n), doc(n));
        }
        assert!(memo.get(&key(0), &payload(0)).is_none(), "one-shot key should age out");
        assert!(memo.hot.len() <= cap && memo.cold.len() <= cap, "generations stay bounded");
    }

    #[test]
    fn checksum_collision_is_a_miss_not_a_wrong_document() {
        let mut memo = DecodeMemo::new(4);
        memo.insert(key(7), payload(7), doc(7));
        assert!(memo.get(&key(7), &payload(8)).is_none(), "colliding payload must miss");
        assert!(!memo.peek(&key(7), &payload(8)));
        assert!(memo.peek(&key(7), &payload(7)));
    }
}
