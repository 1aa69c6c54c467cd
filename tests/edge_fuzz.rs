//! Wire bytes cannot panic the engine: mutation fuzzing of the one decode
//! path.
//!
//! Every codec starts from a valid encoded document, which is then
//! mutated: bytes flipped (to arbitrary values or to the structural
//! characters the text formats use as delimiters), the tail truncated,
//! garbage or a copy of the document itself appended. Decoding the result
//! must return a document or a `Parse` error and never panic. The edge
//! test runs mutated payloads of every partner wire protocol through a
//! live hub's pump from a known partner endpoint and checks that every
//! payload is accounted for.

use proptest::prelude::*;
use semantic_b2b::document::formats::{
    sample_binary_po, sample_edi_po, sample_oagis_po, sample_oracle_po, sample_rn_po, sample_sap_po,
};
use semantic_b2b::document::{Document, DocumentError, FormatRegistry};
use semantic_b2b::integration::deadletter::DeadLetterReason;
use semantic_b2b::integration::scenario::{ScenarioProtocol, TwoEnterpriseScenario};
use semantic_b2b::network::{Bytes, Envelope, FaultConfig};
use semantic_b2b::transform::{TransformContext, TransformRegistry};

/// One valid document per codec; `n` varies the content.
fn samples(n: i64) -> Vec<Document> {
    let number = format!("PO-{n}");
    vec![
        sample_edi_po(&number, n),
        sample_rn_po(&number, n),
        sample_oagis_po(&number, n),
        sample_sap_po(&number, n),
        sample_oracle_po(&number, n),
        sample_binary_po(&number, 1 + n as usize % 4),
    ]
}

/// A replacement byte: arbitrary, or one of the delimiters, digits and
/// markup characters the text codecs split on, which drive a parser much
/// deeper than random bytes (those mostly stop at the UTF-8 check).
fn mutation_byte() -> impl Strategy<Value = u8> {
    const STRUCTURAL: &[u8] = b"<>/=\"'&;:|*~^+-,.[]# \n\r\t0123456789AZ";
    prop_oneof![any::<u8>(), (0..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i])]
}

/// One payload mutation: byte flips at positions taken modulo the
/// length, a cut (in percent of the length, 100 = keep all), then an
/// appended tail of garbage and a prefix (in percent) of the original.
#[derive(Debug, Clone)]
struct Mutation {
    flips: Vec<(usize, u8)>,
    keep_percent: usize,
    garbage: Vec<u8>,
    repeat_percent: usize,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        prop::collection::vec((any::<usize>(), mutation_byte()), 0..8),
        prop_oneof![Just(100usize), 0usize..100],
        prop::collection::vec(mutation_byte(), 0..12),
        prop_oneof![Just(0usize), 1usize..=100],
    )
        .prop_map(|(flips, keep_percent, garbage, repeat_percent)| Mutation {
            flips,
            keep_percent,
            garbage,
            repeat_percent,
        })
}

impl Mutation {
    fn apply(&self, original: &[u8]) -> Bytes {
        let mut bytes = original.to_vec();
        for &(at, byte) in &self.flips {
            if !bytes.is_empty() {
                let len = bytes.len();
                bytes[at % len] = byte;
            }
        }
        bytes.truncate(bytes.len() * self.keep_percent / 100);
        bytes.extend_from_slice(&self.garbage);
        bytes.extend_from_slice(&original[..original.len() * self.repeat_percent / 100]);
        Bytes::from(bytes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_codec_survives_mutated_payloads(n in 1i64..500, m in mutation()) {
        let formats = FormatRegistry::with_builtins();
        for doc in samples(n) {
            let format = doc.format().clone();
            let wire = formats.encode(&doc).unwrap();
            let mutated = m.apply(&wire);
            match formats.decode_bytes(&format, &mutated) {
                // A surviving decode must not panic on the way back out
                // either; refusing to encode is allowed.
                Ok(decoded) => {
                    let _ = formats.encode(&decoded);
                }
                Err(DocumentError::Parse { .. }) => {}
                Err(other) => prop_assert!(false, "{}: non-parse decode error {:?}", format, other),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A hub receives one unmutated and several mutated purchase orders
    /// from its known buyer, on any of the four partner wire protocols.
    /// Each payload is decoded exactly once: it is either routed (counted
    /// in `wire_received`) or dead-lettered as a decode failure, and the
    /// pump never panics.
    #[test]
    fn hub_routes_or_dead_letters_every_mutated_payload(
        protocol in prop_oneof![
            Just(ScenarioProtocol::Edi),
            Just(ScenarioProtocol::RosettaNet),
            Just(ScenarioProtocol::Oagis),
            Just(ScenarioProtocol::Binary),
        ],
        seed in any::<u64>(),
        mutations in prop::collection::vec(mutation(), 1..8),
    ) {
        let mut s =
            TwoEnterpriseScenario::with_protocol(protocol, FaultConfig::reliable(), seed).unwrap();
        let po = s.po("PO-FUZZ", 1_000).unwrap();
        let ctx = TransformContext::new(
            s.buyer.name(),
            s.seller.name(),
            "000000001",
            "fuzz-instance",
        );
        let wire_doc = TransformRegistry::with_builtins()
            .transform(&po, &protocol.format(), &ctx)
            .unwrap();
        let valid = FormatRegistry::with_builtins().encode(&wire_doc).unwrap();

        let mut payloads = vec![Bytes::from(valid.clone())];
        payloads.extend(mutations.iter().map(|m| m.apply(&valid)));
        let from = s.buyer.endpoint().clone();
        let to = s.seller.endpoint().clone();
        for payload in &payloads {
            let id = s.net.alloc_message_id();
            let envelope = Envelope::payload_with_id(
                id,
                from.clone(),
                to.clone(),
                protocol.format(),
                payload.clone(),
                s.net.now(),
            );
            s.net.send(envelope).unwrap();
        }
        s.run_until_quiescent(60_000).unwrap();

        let hub = &s.seller;
        let decode_letters = hub
            .dead_letters()
            .iter()
            .filter(|l| matches!(l.reason, DeadLetterReason::DecodeFailure(_)))
            .count() as u64;
        prop_assert_eq!(decode_letters, hub.stats().decode_failures);
        prop_assert_eq!(
            hub.stats().wire_received + decode_letters,
            payloads.len() as u64,
            "payloads neither routed nor dead-lettered: {:?}",
            hub.stats()
        );
        prop_assert_eq!(hub.codec_cache_stats().decode_misses, hub.stats().wire_received);
        prop_assert!(hub.stats().sessions_started >= 1, "the unmutated order started a session");
    }
}
