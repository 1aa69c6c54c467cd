//! The paper's running example as a workload: buyer and seller engines
//! trading EDI 850/855 purchase-order round trips, the seller filing
//! orders into SAP or Oracle through the `select-backend` rule and
//! routing large orders through the externalized approval rule.

use crate::counters::Counters;
use crate::meter::{Call, Gen, Meter};
use crate::{configure_engine, err, Episode, Result, Sessions};
use b2b_core::scenario::{ScenarioProtocol, TwoEnterpriseScenario};
use b2b_core::SessionState;
use b2b_network::{FaultConfig, SimRng};
use std::time::Instant;

/// The order total above which the seller's approval rule routes a PO
/// through the approval activity (the paper's TP1 threshold).
pub const APPROVAL_THRESHOLD: i64 = 55_000;

/// Steps a wave may take to quiesce before the run is declared stuck.
const MAX_WAVE_STEPS: usize = 4_000;

/// The seeded orders of one run: PO totals drawn uniformly from
/// 40,000–69,999 dollars, so about half cross the approval threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoPlan {
    /// Order total of each PO, in initiation order.
    pub amounts: Vec<i64>,
    /// POs initiated per wave.
    pub wave: usize,
    /// The generation seed (also seeds the network).
    pub seed: u64,
}

impl PoPlan {
    /// `count` orders in waves of `wave`, drawn from `seed`.
    pub fn generate(count: usize, wave: usize, seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x0850_0855);
        let amounts = (0..count).map(|_| rng.range(40_000, 69_999) as i64).collect();
        Self { amounts, wave, seed }
    }

    /// POs whose total needs approval.
    pub fn above_threshold(&self) -> usize {
        self.amounts.iter().filter(|&&a| a > APPROVAL_THRESHOLD).count()
    }

    /// Measured properties of the orders, printed with every run.
    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sessions", self.amounts.len() as f64),
            ("wave", self.wave as f64),
            ("above_threshold_share", self.above_threshold() as f64 / self.amounts.len() as f64),
        ]
    }
}

/// The PO number (and correlation key) of session `n`.
pub fn po_number(n: u64) -> String {
    format!("PO{n:07}")
}

struct World {
    s: TwoEnterpriseScenario,
    next_po: u64,
}

impl World {
    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_engine(&self.s.buyer);
        c.add_engine(&self.s.seller);
        c.add_network(&self.s.net);
        c
    }

    /// O(1) quiescence: every expected session completed on both sides,
    /// nothing in flight and nothing unacknowledged.
    fn quiescent(&self, expected: usize) -> bool {
        let s = &self.s;
        s.net.idle()
            && s.buyer.completed_sessions() == expected
            && s.seller.completed_sessions() == expected
            && s.buyer.wire_outstanding() == 0
            && s.seller.wire_outstanding() == 0
            && !s.buyer.has_pending_wire()
            && !s.seller.has_pending_wire()
    }

    fn step(&mut self, meter: &mut Meter, sessions: &mut Sessions) -> Result<()> {
        let TwoEnterpriseScenario { net, buyer, seller, .. } = &mut self.s;
        meter.begin("step", 0);
        meter.gen(Gen::Advance, 0, || net.advance(10));
        meter.call(Call::Pump, buyer, 0, |e| e.pump(net))?.map_err(err)?;
        meter.call(Call::Pump, seller, 1, |e| e.pump(net))?.map_err(err)?;
        sessions.observe(buyer, net.now().as_millis());
        meter.end();
        Ok(())
    }

    fn wave(&mut self, amounts: &[i64], meter: &mut Meter, sessions: &mut Sessions) -> Result<()> {
        for &amount in amounts {
            let n = self.next_po;
            self.next_po += 1;
            let po = self.s.po(&po_number(n), amount).map_err(err)?;
            let TwoEnterpriseScenario { net, buyer, agreement_id, .. } = &mut self.s;
            let correlation = meter
                .call(Call::Initiate, buyer, n, |e| e.initiate(net, agreement_id, po))?
                .map_err(err)?;
            sessions.started(correlation, true, net.now().as_millis());
        }
        for _ in 0..MAX_WAVE_STEPS {
            if self.quiescent(sessions.expected_total) {
                return Ok(());
            }
            self.step(meter, sessions)?;
        }
        Err(format!("a PO wave did not quiesce within {MAX_WAVE_STEPS} steps"))
    }
}

/// Builds a fresh buyer/seller pair, warms it with one wave, then runs
/// the plan's orders in waves and checks every output.
pub fn episode(plan: &PoPlan, shards: usize, traced: bool) -> Result<Episode> {
    let setup_started = Instant::now();
    let mut s = TwoEnterpriseScenario::with_protocol(
        ScenarioProtocol::Edi,
        FaultConfig::reliable(),
        plan.seed,
    )
    .map_err(err)?;
    configure_engine(&mut s.buyer, shards);
    configure_engine(&mut s.seller, shards);
    let mut world = World { s, next_po: 0 };
    let mut sessions = Sessions::default();
    let warm = &plan.amounts[..plan.wave.min(plan.amounts.len())];
    world.wave(warm, &mut Meter::new(false), &mut sessions)?;
    sessions.start_timed();
    let setup_s = setup_started.elapsed().as_secs_f64();

    let before = world.counters();
    let rules_before = world.s.seller.wf().stats().rule_invocations;
    let mut meter = Meter::new(traced);
    let timed_started = Instant::now();
    for chunk in plan.amounts.chunks(plan.wave) {
        world.wave(chunk, &mut meter, &mut sessions)?;
    }
    let timed_s = timed_started.elapsed().as_secs_f64();
    let counters = world.counters().since(&before);

    let s = &world.s;
    let mut problems = sessions.check(&s.buyer);
    let pos = sessions.expected_total;
    let not_done = sessions
        .correlations()
        .filter(|c| s.seller.session_state(c) != SessionState::Completed)
        .count();
    if not_done > 0 {
        problems.push(format!("{not_done} POs not Completed on the seller side"));
    }
    let backend = |engine: &b2b_core::IntegrationEngine, name: &str| {
        engine.backend(name).map(|b| (b.backend().order_count(), b.backend().poa_count()))
    };
    let (_, buyer_poas) = backend(&s.buyer, "SAP").map_err(err)?;
    let (sap_orders, _) = backend(&s.seller, "SAP").map_err(err)?;
    let (oracle_orders, _) = backend(&s.seller, "Oracle").map_err(err)?;
    if buyer_poas != pos {
        problems.push(format!("buyer filed {buyer_poas} POAs for {pos} POs"));
    }
    if sap_orders + oracle_orders != pos {
        problems.push(format!(
            "seller filed {sap_orders} SAP + {oracle_orders} Oracle orders for {pos} POs"
        ));
    }
    // Every timed PO runs the seller's check-need-for-approval rule, so
    // the invocations cover (at least) the POs above the threshold.
    let rules = s.seller.wf().stats().rule_invocations - rules_before;
    let timed_pos = plan.amounts.len() as u64;
    if rules < timed_pos {
        problems.push(format!("{rules} rule invocations for {timed_pos} timed POs"));
    }
    let total = world.counters();
    if total.reliable_acks + total.reliable_failures != total.reliable_sends {
        problems.push(format!(
            "wire ledger not drained: {} acks + {} failures != {} sends",
            total.reliable_acks, total.reliable_failures, total.reliable_sends
        ));
    }
    Ok(Episode::finish(
        setup_s,
        timed_s,
        meter,
        counters,
        sessions,
        &[&s.buyer, &s.seller],
        (sap_orders + oracle_orders) as u64,
        problems,
    ))
}
