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
    /// A coalesced frame of several encoded documents to the same
    /// receiver, framed by [`encode_batch_frame`]. Travels reliably as a
    /// unit (one checksum, one ack, one dedup id); the *receiving*
    /// endpoint splits an intact frame back into per-document
    /// [`WireClass::Payload`] envelopes before anything above the
    /// reliable layer sees it.
    Batch,
}

/// Builds a batch frame from encoded document payloads, appending to
/// `out` (reusable across frames): a little-endian `u32` count, then
/// each payload as `u32` length + bytes.
pub fn encode_batch_frame(parts: &[Bytes], out: &mut Vec<u8>) {
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for part in parts {
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(part);
    }
}

/// Splits a batch frame into its per-document payloads as zero-copy
/// slices of the frame bytes. Returns `None` when the frame is
/// structurally malformed (truncated header, length running past the
/// end, trailing garbage) — every read is bounds-checked, so corrupt
/// frames can never panic or over-allocate.
pub fn decode_batch_frame(payload: &Bytes) -> Option<Vec<Bytes>> {
    let bytes: &[u8] = payload;
    let count = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    // Each entry needs at least its 4-byte length prefix; this bounds the
    // preallocation by the frame size before trusting the count.
    if count > bytes.len().saturating_sub(4) / 4 {
        return None;
    }
    let mut parts = Vec::with_capacity(count);
    let mut at = 4usize;
    for _ in 0..count {
        let len = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        if at.checked_add(len)? > bytes.len() {
            return None;
        }
        parts.push(payload.slice(at..at + len));
        at += len;
    }
    if at != bytes.len() {
        return None; // trailing garbage: reject the whole frame
    }
    Some(parts)
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

    /// Builds a batch-frame envelope with an explicit (network-allocated)
    /// id. The payload must be a frame built by [`encode_batch_frame`];
    /// `format` is the (shared) format of every document inside.
    pub fn batch_with_id(
        id: MessageId,
        from: EndpointId,
        to: EndpointId,
        format: FormatId,
        frame: Bytes,
        sent_at: SimTime,
    ) -> Self {
        let checksum = checksum_of(&frame);
        Self {
            id,
            from,
            to,
            format,
            class: WireClass::Batch,
            ref_id: None,
            payload: frame,
            sent_at,
            checksum,
        }
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
    use proptest::prelude::*;

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
    fn batch_frame_roundtrips_zero_copy() {
        let parts = vec![
            Bytes::from_static(b"ISA*00*first"),
            Bytes::from_static(b""),
            Bytes::from_static(b"ISA*00*third-and-longer"),
        ];
        let mut frame = Vec::new();
        encode_batch_frame(&parts, &mut frame);
        let frame = Bytes::from(frame);
        let back = decode_batch_frame(&frame).expect("well-formed frame");
        assert_eq!(back, parts);
        // Zero-copy: every part aliases the frame allocation.
        assert_eq!(back[0].as_ptr(), frame[8..].as_ptr());
    }

    #[test]
    fn malformed_batch_frames_are_rejected_not_panicked() {
        let parts = vec![Bytes::from_static(b"one"), Bytes::from_static(b"two")];
        let mut frame = Vec::new();
        encode_batch_frame(&parts, &mut frame);
        // Truncations at every length never panic; only the full frame
        // (and the degenerate empty-count prefix) decode.
        for cut in 0..frame.len() {
            let truncated = Bytes::copy_from_slice(&frame[..cut]);
            assert!(decode_batch_frame(&truncated).is_none(), "cut at {cut} must reject");
        }
        // Trailing garbage is rejected too.
        let mut padded = frame.clone();
        padded.push(0);
        assert!(decode_batch_frame(&Bytes::from(padded)).is_none());
        // A count claiming more entries than the bytes could hold is
        // rejected before any allocation trusts it.
        let mut lying = frame.clone();
        lying[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch_frame(&Bytes::from(lying)).is_none());
        assert!(decode_batch_frame(&Bytes::from(frame)).is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mutated_batch_frames_never_panic_and_accepted_frames_are_canonical(
            parts in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..17),
            flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..8),
            cut in 0usize..=100,
            appended in prop::collection::vec(any::<u8>(), 0..8),
        ) {
            // Frame hardening: byte flips (counts, length prefixes, part
            // bodies), truncations and appended bytes must never panic the
            // splitter, and any frame it accepts must be the canonical
            // encoding of the parts it returns — no two byte strings split
            // to the same parts.
            let parts: Vec<Bytes> = parts.into_iter().map(Bytes::from).collect();
            let mut frame = Vec::new();
            encode_batch_frame(&parts, &mut frame);
            for (at, byte) in &flips {
                let len = frame.len();
                frame[at % len] = *byte;
            }
            frame.truncate(frame.len() * cut / 100);
            frame.extend_from_slice(&appended);
            let mutated = Bytes::from(frame);
            if let Some(split) = decode_batch_frame(&mutated) {
                let mut reencoded = Vec::new();
                encode_batch_frame(&split, &mut reencoded);
                prop_assert_eq!(&reencoded[..], &mutated[..]);
            }
        }
    }

    #[test]
    fn batch_envelope_seals_the_frame_checksum() {
        let mut frame = Vec::new();
        encode_batch_frame(&[Bytes::from_static(b"doc")], &mut frame);
        let env = Envelope::batch_with_id(
            MessageId::from_raw(9),
            EndpointId::new("acme"),
            EndpointId::new("gadget"),
            FormatId::EDI_X12,
            Bytes::from(frame),
            SimTime::ZERO,
        );
        assert_eq!(env.class, WireClass::Batch);
        assert!(env.verify_integrity());
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
