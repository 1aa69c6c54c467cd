//! Wire envelopes.

use crate::clock::SimTime;
use b2b_document::FormatId;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies a network endpoint (one enterprise's B2B gateway).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EndpointId(String);

impl EndpointId {
    /// Wraps an endpoint name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Unique id of one wire message (retransmits reuse it; duplicates are
/// detected through it).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MessageId(u64);

impl MessageId {
    /// Allocates a fresh process-unique id.
    ///
    /// Prefer [`SimNetwork::alloc_message_id`](crate::SimNetwork) where a
    /// network is at hand: network-scoped ids are a pure function of the
    /// traffic so far, which keeps independent runs comparable (the
    /// process-global counter here depends on what else ran before).
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// Wraps a raw id value (allocated by a network).
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw value (for logs).
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg-{}", self.0)
    }
}

/// Whether an envelope carries business payload or a transport signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireClass {
    /// Business document bytes.
    Payload,
    /// Transport-level receipt acknowledgment for `ref_id`.
    Ack,
    /// Negative acknowledgment for `ref_id`: the bytes arrived but failed
    /// the integrity check, so the sender should retransmit.
    Nack,
    /// Process-level failure notification (RosettaNet PIP0A1 style): the
    /// sender's side of the exchange identified by the payload has failed
    /// and the receiver must terminate its half. Travels reliably, like a
    /// payload: checksummed, acknowledged, and deduplicated.
    Notify,
}

/// One message on the wire: routing, framing, and opaque payload bytes.
///
/// The payload is the *encoded* document — the network never sees parsed
/// documents, mirroring reality (and letting the fault injector corrupt
/// bytes). The `checksum` seals the payload at construction so receivers
/// can reject in-flight corruption *before* acknowledging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Message id (stable across retransmits).
    pub id: MessageId,
    /// Sending endpoint.
    pub from: EndpointId,
    /// Receiving endpoint.
    pub to: EndpointId,
    /// Format of the payload bytes.
    pub format: FormatId,
    /// Payload vs. transport signal.
    pub class: WireClass,
    /// For acks/nacks: the message being (n)acked.
    pub ref_id: Option<MessageId>,
    /// Encoded document (empty for acks and nacks).
    pub payload: Bytes,
    /// When the sender handed it to the network.
    pub sent_at: SimTime,
    /// FNV-1a checksum of the payload bytes at construction time.
    pub checksum: u64,
}

/// FNV-1a over a byte slice: the integrity seal carried by envelopes.
pub fn checksum_of(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

impl Envelope {
    /// Builds a payload envelope with an explicit (network-allocated) id.
    pub fn payload_with_id(
        id: MessageId,
        from: EndpointId,
        to: EndpointId,
        format: FormatId,
        payload: Bytes,
        sent_at: SimTime,
    ) -> Self {
        let checksum = checksum_of(&payload);
        Self {
            id,
            from,
            to,
            format,
            class: WireClass::Payload,
            ref_id: None,
            payload,
            sent_at,
            checksum,
        }
    }

    /// Builds a payload envelope with a process-unique id.
    pub fn payload(
        from: EndpointId,
        to: EndpointId,
        format: FormatId,
        payload: Bytes,
        sent_at: SimTime,
    ) -> Self {
        Self::payload_with_id(MessageId::fresh(), from, to, format, payload, sent_at)
    }

    /// Builds an acknowledgment for `of` with an explicit id.
    pub fn ack_with_id(
        id: MessageId,
        from: EndpointId,
        to: EndpointId,
        of: &Envelope,
        sent_at: SimTime,
    ) -> Self {
        Self {
            id,
            from,
            to,
            format: of.format.clone(),
            class: WireClass::Ack,
            ref_id: Some(of.id.clone()),
            payload: Bytes::new(),
            sent_at,
            checksum: checksum_of(&[]),
        }
    }

    /// Builds an acknowledgment for `of`.
    pub fn ack(from: EndpointId, to: EndpointId, of: &Envelope, sent_at: SimTime) -> Self {
        Self::ack_with_id(MessageId::fresh(), from, to, of, sent_at)
    }

    /// Builds a negative acknowledgment for `of` (integrity check failed;
    /// please retransmit) with an explicit id.
    pub fn nack_with_id(
        id: MessageId,
        from: EndpointId,
        to: EndpointId,
        of: &Envelope,
        sent_at: SimTime,
    ) -> Self {
        Self {
            id,
            from,
            to,
            format: of.format.clone(),
            class: WireClass::Nack,
            ref_id: Some(of.id.clone()),
            payload: Bytes::new(),
            sent_at,
            checksum: checksum_of(&[]),
        }
    }

    /// Builds a negative acknowledgment for `of`.
    pub fn nack(from: EndpointId, to: EndpointId, of: &Envelope, sent_at: SimTime) -> Self {
        Self::nack_with_id(MessageId::fresh(), from, to, of, sent_at)
    }

    /// Builds a failure-notification envelope with an explicit id.
    pub fn notify_with_id(
        id: MessageId,
        from: EndpointId,
        to: EndpointId,
        format: FormatId,
        payload: Bytes,
        sent_at: SimTime,
    ) -> Self {
        let checksum = checksum_of(&payload);
        Self {
            id,
            from,
            to,
            format,
            class: WireClass::Notify,
            ref_id: None,
            payload,
            sent_at,
            checksum,
        }
    }

    /// Builds a failure-notification envelope carrying an encoded
    /// [`FailureNotice`](crate::reliable)-style body.
    pub fn notify(
        from: EndpointId,
        to: EndpointId,
        format: FormatId,
        payload: Bytes,
        sent_at: SimTime,
    ) -> Self {
        Self::notify_with_id(MessageId::fresh(), from, to, format, payload, sent_at)
    }

    /// Whether the payload still matches the checksum sealed at
    /// construction.
    pub fn verify_integrity(&self) -> bool {
        checksum_of(&self.payload) == self.checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_references_the_original() {
        let a = EndpointId::new("acme");
        let b = EndpointId::new("gadget");
        let msg = Envelope::payload(
            a.clone(),
            b.clone(),
            FormatId::EDI_X12,
            Bytes::from_static(b"ISA*"),
            SimTime::ZERO,
        );
        let ack = Envelope::ack(b, a, &msg, SimTime::ZERO + 5);
        assert_eq!(ack.class, WireClass::Ack);
        assert_eq!(ack.ref_id.as_ref(), Some(&msg.id));
        assert!(ack.payload.is_empty());
        assert_ne!(ack.id, msg.id);
    }

    #[test]
    fn message_ids_are_unique() {
        assert_ne!(MessageId::fresh(), MessageId::fresh());
    }

    #[test]
    fn checksum_detects_a_flipped_byte() {
        let a = EndpointId::new("acme");
        let b = EndpointId::new("gadget");
        let mut msg = Envelope::payload(
            a,
            b,
            FormatId::EDI_X12,
            Bytes::from_static(b"ISA*00*"),
            SimTime::ZERO,
        );
        assert!(msg.verify_integrity());
        let mut bytes = msg.payload.to_vec();
        bytes[3] ^= 0x20; // the simulator's corruption pattern
        msg.payload = Bytes::from(bytes);
        assert!(!msg.verify_integrity());
    }

    #[test]
    fn nack_references_the_original() {
        let a = EndpointId::new("acme");
        let b = EndpointId::new("gadget");
        let msg = Envelope::payload(
            a.clone(),
            b.clone(),
            FormatId::EDI_X12,
            Bytes::from_static(b"ISA*"),
            SimTime::ZERO,
        );
        let nack = Envelope::nack(b, a, &msg, SimTime::ZERO + 5);
        assert_eq!(nack.class, WireClass::Nack);
        assert_eq!(nack.ref_id.as_ref(), Some(&msg.id));
        assert!(nack.verify_integrity(), "empty body checksums cleanly");
    }

    #[test]
    fn envelopes_roundtrip_through_serde() {
        let msg = Envelope::notify(
            EndpointId::new("acme"),
            EndpointId::new("gadget"),
            FormatId::ROSETTANET,
            Bytes::from_static(b"{\"reason\":\"timeout\"}"),
            SimTime::ZERO + 17,
        );
        let json = serde_json::to_string(&msg).unwrap();
        let back: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
        assert!(back.verify_integrity());
    }
}
