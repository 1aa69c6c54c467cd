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

    /// Decodes a payload envelope into a document. Every routed payload
    /// parses exactly once, here, in route order; duplicates the reliable
    /// layer suppressed never reach this point.
    pub fn decode(&mut self, envelope: &Envelope) -> Result<Document, EdgeError> {
        let doc = self
            .formats
            .decode_bytes(&envelope.format, &envelope.payload)
            .map_err(|e| EdgeError::Decode(e.to_string()))?;
        self.cache_stats.decode_misses += 1;
        Ok(doc)
    }

    /// Counters for decodes and encode buffers.
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
