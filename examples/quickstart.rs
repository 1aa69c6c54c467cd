//! Quickstart: one EDI purchase-order round trip through the full
//! advanced architecture (public process → binding → private process →
//! back-end binding → ERP, and back).
//!
//! Run with: `cargo run --example quickstart`

use b2b_core::scenario::TwoEnterpriseScenario;
use b2b_core::SessionState;
use b2b_network::FaultConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A buyer (TP1) and a seller (GadgetSupply, running SAP + Oracle)
    // connected by a simulated network with fixed 1 ms latency.
    let mut scenario = TwoEnterpriseScenario::new(FaultConfig::reliable(), 42)?;

    // The buyer's procurement system produces a normalized purchase order…
    let po = scenario.po("PO-2001-4711", 12_000)?;
    println!("submitting {} for {}", po.get("header.po_number")?, po.get("amount")?);

    // …and hands it to the integration engine, which pushes it through
    // the initiator private process, the EDI binding, and the public
    // process onto the wire.
    let correlation = scenario.submit(po)?;
    let elapsed = scenario.run_until_quiescent(60_000)?;

    println!("round trip settled after {elapsed} simulated ms");
    println!("buyer session:  {:?}", scenario.buyer.session_state(&correlation));
    println!("seller session: {:?}", scenario.seller.session_state(&correlation));
    println!(
        "seller SAP order status: {:?}",
        scenario.seller.backend("SAP")?.backend().order_status("PO-2001-4711")
    );
    println!(
        "buyer filed acknowledgments: {}",
        scenario.buyer.backend("SAP")?.backend().poa_count()
    );
    // The wire edge parses each routed payload once and reuses encode
    // buffers per (format, kind) after the first allocation.
    let cache = scenario.buyer.codec_cache_stats();
    println!(
        "buyer edge codecs: {} payloads decoded, {} encode buffer reuses / {} allocs",
        cache.decode_misses, cache.encode_buffer_reuses, cache.encode_buffer_allocs
    );
    // Partner health on a clean run: no breaker trips, nothing shed,
    // nothing dead-lettered (see examples/failure_recovery.rs for the
    // unhappy paths).
    let health = scenario.buyer.health_stats();
    println!(
        "buyer partner health: {} breaker trips, {} sends shed, {} dead letters",
        health.breaker_trips,
        scenario.buyer.stats().shed,
        scenario.buyer.stats().dead_lettered
    );

    assert_eq!(scenario.buyer.session_state(&correlation), SessionState::Completed);
    assert_eq!(scenario.seller.session_state(&correlation), SessionState::Completed);
    println!("OK");
    Ok(())
}
