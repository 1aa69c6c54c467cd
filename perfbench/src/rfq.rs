//! The two population workloads: one hub engine trading RFQ/quote
//! round trips with a seeded population of lightweight simulated
//! partners.
//!
//! The partners are built here rather than taken from
//! `b2b_bench::population` so that every library call they make (decode,
//! transform, encode, send, tick) can be timed as load-generator work.
//! Their behaviour is the same: responders decode the RFQ, build the quote
//! a seller's `make-quote` activity would, and reply in their own wire
//! format; lurkers let the reliable layer acknowledge and go silent.

use crate::counters::Counters;
use crate::meter::{Call, Gen, Meter};
use crate::{configure_engine, err, Episode, Result, Sessions};
use b2b_bench::population::{PartnerSpec, PopulationPlan, SizeTier, HUB};
use b2b_core::partner::TradingPartner;
use b2b_core::IntegrationEngine;
use b2b_document::{
    record, CorrelationId, Currency, Date, DocKind, Document, FormatId, FormatRegistry, Money,
    Value,
};
use b2b_network::{Bytes, EndpointId, FaultConfig, ReliableConfig, ReliableEndpoint, SimNetwork};
use b2b_protocol::{MessageExchangePattern, TradingPartnerAgreement};
use b2b_transform::{TransformContext, TransformRegistry};
use std::time::Instant;

/// Steps a wave may take to quiesce before the run is declared stuck.
const MAX_WAVE_STEPS: usize = 4_000;

/// Which population workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The generated population as is, lossy network, `initiate`.
    Trickle,
    /// Every partner a RosettaNet responder, lossless network, whole
    /// waves started with `initiate_deferred`.
    Burst,
}

/// The seeded plan of one population workload: Zipf(1.1) traffic over
/// 512 partners from `PopulationPlan::generate`, with the partner specs
/// rewritten.
///
/// The generator draws each partner's spec at random, and with a fifth of
/// the traffic going to the top partner, whether that one partner is a
/// lurker or trades binary swings the whole mix (allocations per document
/// ranged over ±20% across seeds). So the trickle shape pins the specs by
/// Zipf rank instead — ranks 1 and 3 of every 5 are lurkers (40% of
/// partners), ranks 1 and 2 of every 4 trade binary (50%) — and the seed
/// draws the traffic and the network faults. The burst shape makes every
/// partner a RosettaNet responder.
pub fn plan(shape: Shape, tier: SizeTier, seed: u64) -> PopulationPlan {
    let mut plan = PopulationPlan::generate(tier, seed);
    for (rank, spec) in plan.partners.iter_mut().enumerate() {
        *spec = match shape {
            Shape::Trickle => PartnerSpec {
                binary: matches!(rank % 4, 1 | 2),
                responder: !matches!(rank % 5, 1 | 3),
            },
            Shape::Burst => PartnerSpec { binary: false, responder: true },
        };
    }
    plan
}

/// Measured properties of a plan's traffic, printed with every run.
pub fn describe(plan: &PopulationPlan) -> Vec<(&'static str, f64)> {
    let sessions = plan.traffic.len();
    let share = |pred: &dyn Fn(&PartnerSpec) -> bool| {
        plan.traffic.iter().filter(|&&p| pred(&plan.partners[p as usize])).count() as f64
            / sessions as f64
    };
    let mut per_partner = vec![0usize; plan.partners.len()];
    for &p in &plan.traffic {
        per_partner[p as usize] += 1;
    }
    let head = per_partner.iter().copied().max().unwrap_or(0);
    vec![
        ("partners", plan.partners.len() as f64),
        ("sessions", sessions as f64),
        ("wave", plan.tier.wave() as f64),
        ("binary_share", share(&|s| s.binary)),
        ("lurker_share", share(&|s| !s.responder)),
        ("head_partner_share", head as f64 / sessions as f64),
    ]
}

/// One simulated partner: a raw reliable endpoint plus a behaviour.
struct PartnerSim {
    endpoint: ReliableEndpoint,
    format: FormatId,
    responder: bool,
    ctx: TransformContext,
    price: Money,
    replied: u64,
}

/// What every partner shares: the codecs, the transforms and the hub's
/// address.
struct Shared {
    formats: FormatRegistry,
    transforms: TransformRegistry,
    hub_ep: EndpointId,
}

/// The hub, its partners and the network of one episode.
struct World {
    net: SimNetwork,
    hub: IntegrationEngine,
    partners: Vec<PartnerSim>,
    agreement_ids: Vec<String>,
    shared: Shared,
    next_session: u64,
}

impl World {
    fn build(plan: &PopulationPlan, shape: Shape, shards: usize) -> Result<Self> {
        let faults = match shape {
            Shape::Trickle => {
                FaultConfig { loss: 0.005, duplicate: 0.01, ..FaultConfig::reliable() }
            }
            Shape::Burst => FaultConfig::reliable(),
        };
        let mut net = SimNetwork::new(faults, plan.seed);
        let mut hub = IntegrationEngine::new(HUB, &mut net).map_err(err)?;
        configure_engine(&mut hub, shards);
        let mut partners = Vec::with_capacity(plan.partners.len());
        let mut agreement_ids = Vec::with_capacity(plan.partners.len());
        for (i, spec) in plan.partners.iter().enumerate() {
            let name = PopulationPlan::partner_name(i);
            hub.add_partner(TradingPartner::new(&name));
            let format = if spec.binary { FormatId::BINARY } else { FormatId::ROSETTANET };
            let (init, resp) = MessageExchangePattern::RequestReply {
                request: DocKind::RequestForQuote,
                reply: DocKind::Quote,
            }
            .role_processes(&format!("rfq-{name}"), format.clone())
            .map_err(err)?;
            let agreement = TradingPartnerAgreement::between(
                &format!("rfq-{name}"),
                HUB,
                &name,
                &init,
                &resp,
                true,
            )
            .map_err(err)?;
            agreement_ids.push(agreement.id.clone());
            hub.install_agreement(agreement, &init, &resp).map_err(err)?;
            let endpoint = ReliableEndpoint::new(
                EndpointId::new(format!("ep:{name}")),
                ReliableConfig::default(),
                &mut net,
            )
            .map_err(err)?;
            partners.push(PartnerSim {
                endpoint,
                format,
                responder: spec.responder,
                ctx: TransformContext::new(&name, HUB, "000000001", &format!("i-{name}")),
                price: Money::from_units(800 + (i % 397) as i64, Currency::Usd),
                replied: 0,
            });
        }
        Ok(Self {
            net,
            hub,
            partners,
            agreement_ids,
            shared: Shared {
                formats: FormatRegistry::with_builtins(),
                transforms: TransformRegistry::with_builtins(),
                hub_ep: EndpointId::new(format!("ep:{HUB}")),
            },
            next_session: 0,
        })
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        c.add_engine(&self.hub);
        for p in &self.partners {
            c.add_endpoint(&p.endpoint);
        }
        c.add_network(&self.net);
        c
    }

    fn quiescent(&self) -> bool {
        self.net.idle()
            && self.hub.wire_outstanding() == 0
            && !self.hub.has_pending_wire()
            && self.partners.iter().all(|p| p.endpoint.outstanding_count() == 0)
    }

    /// One simulation step: advance 10 ms, pump the hub, pump every
    /// partner.
    fn step(&mut self, meter: &mut Meter, sessions: &mut Sessions) -> Result<()> {
        let World { net, hub, partners, shared, .. } = self;
        meter.begin("step", 0);
        meter.gen(Gen::Advance, 0, || net.advance(10));
        meter.call(Call::Pump, hub, 0, |h| h.pump(net))?.map_err(err)?;
        sessions.observe(hub, net.now().as_millis());
        meter.begin("partners", 0);
        for (i, p) in partners.iter_mut().enumerate() {
            p.pump(i as u64, net, shared, meter)?;
        }
        meter.end();
        meter.end();
        Ok(())
    }

    /// Initiates one wave and steps until it quiesces.
    fn wave(
        &mut self,
        traffic: &[u32],
        plan: &PopulationPlan,
        shape: Shape,
        meter: &mut Meter,
        sessions: &mut Sessions,
    ) -> Result<()> {
        for &p in traffic {
            let n = self.next_session;
            self.next_session += 1;
            let rfq = rfq(n);
            let World { net, hub, agreement_ids, .. } = self;
            let agreement = &agreement_ids[p as usize];
            let correlation = match shape {
                Shape::Trickle => {
                    meter.call(Call::Initiate, hub, n, |h| h.initiate(net, agreement, rfq))?
                }
                Shape::Burst => meter.call(Call::InitiateDeferred, hub, n, |h| {
                    h.initiate_deferred(agreement, rfq)
                })?,
            }
            .map_err(err)?;
            sessions.started(
                correlation,
                plan.partners[p as usize].responder,
                net.now().as_millis(),
            );
        }
        if shape == Shape::Burst {
            // Deferred sessions only move on a pump, which `quiescent`
            // cannot see: force the settling step.
            self.step(meter, sessions)?;
        }
        for _ in 0..MAX_WAVE_STEPS {
            if self.quiescent() {
                return Ok(());
            }
            self.step(meter, sessions)?;
        }
        Err(format!("a wave did not quiesce within {MAX_WAVE_STEPS} steps"))
    }
}

impl PartnerSim {
    /// Drains the inbox; responders answer each RFQ with a quote.
    fn pump(
        &mut self,
        index: u64,
        net: &mut SimNetwork,
        shared: &Shared,
        meter: &mut Meter,
    ) -> Result<()> {
        // Empty inboxes and idle retransmit timers are the common case:
        // their calls are timed but get no span of their own, so the
        // enclosing `partners` span holds their time.
        let batch = meter
            .gen_counted(
                Gen::Receive,
                index,
                || self.endpoint.receive_classified(net),
                |b| {
                    let items = b.as_ref().map_or(0, |b| b.payloads.len() + b.duplicates.len());
                    (items > 0).then_some((items as u64, 0))
                },
            )
            .map_err(err)?;
        if self.responder {
            for env in batch.payloads {
                self.reply(index, net, shared, meter, &env.format, &env.payload)?;
            }
        }
        let armed = self.endpoint.outstanding_count() > 0;
        meter
            .gen_counted(Gen::Tick, index, || self.endpoint.tick(net), |_| armed.then_some((1, 0)))
            .map_err(err)?;
        Ok(())
    }

    fn reply(
        &mut self,
        index: u64,
        net: &mut SimNetwork,
        shared: &Shared,
        meter: &mut Meter,
        format: &FormatId,
        payload: &Bytes,
    ) -> Result<()> {
        let Shared { formats, transforms, hub_ep } = shared;
        let binary = *format == FormatId::BINARY;
        let decode = if binary { Gen::DecodeBinary } else { Gen::DecodeRosettaNet };
        let wire_doc = meter
            .gen_counted(
                decode,
                index,
                || formats.decode_bytes(format, payload),
                |_| Some((1, payload.len() as u64)),
            )
            .map_err(err)?;
        if wire_doc.kind() != DocKind::RequestForQuote {
            return Ok(());
        }
        let rfq = meter
            .gen(Gen::Transform, index, || {
                transforms.transform(&wire_doc, &FormatId::NORMALIZED, &self.ctx)
            })
            .map_err(err)?;
        let rfq_number = rfq
            .get("header.rfq_number")
            .and_then(|v| v.as_text("rfq_number").map(str::to_string))
            .map_err(err)?;
        let respond_by =
            rfq.get("header.respond_by").and_then(|v| v.as_date("respond_by")).map_err(err)?;
        let body = record! {
            "header" => record! {
                "rfq_number" => Value::text(&rfq_number),
                "seller" => Value::text(&self.ctx.sender),
                "unit_price" => Value::Money(self.price),
                "valid_until" => Value::Date(respond_by.plus_days(30)),
            },
        };
        let quote = rfq.reply(DocKind::Quote, FormatId::NORMALIZED, body);
        let wire_quote = meter
            .gen(Gen::Transform, index, || transforms.transform(&quote, &self.format, &self.ctx))
            .map_err(err)?;
        let encode = if binary { Gen::EncodeBinary } else { Gen::EncodeRosettaNet };
        let bytes = meter
            .gen_counted(
                encode,
                index,
                || formats.encode(&wire_quote),
                |b| Some((1, b.as_ref().map_or(0, |b| b.len() as u64))),
            )
            .map_err(err)?;
        let format = self.format.clone();
        meter
            .gen(Gen::Send, index, || self.endpoint.send(net, hub_ep, format, Bytes::from(bytes)))
            .map_err(err)?;
        self.replied += 1;
        Ok(())
    }
}

/// The RFQ number (and correlation key) of session `n`.
pub fn rfq_number(n: u64) -> String {
    format!("S{n:07}")
}

/// The uniquely numbered RFQ of session `n`.
fn rfq(n: u64) -> Document {
    let number = rfq_number(n);
    Document::new(
        DocKind::RequestForQuote,
        FormatId::NORMALIZED,
        CorrelationId::for_rfq_number(&number),
        record! {
            "header" => record! {
                "rfq_number" => Value::text(&number),
                "buyer" => Value::text(HUB),
                "item" => Value::text("LAPTOP-T23"),
                "quantity" => Value::Int(100),
                "respond_by" => Value::Date(Date::new(2001, 10, 1).expect("a valid date")),
            },
        },
    )
}

/// Builds a fresh world, warms it with one wave, then runs the plan's
/// traffic in waves, checking every output at the end.
pub fn episode(
    plan: &PopulationPlan,
    shape: Shape,
    shards: usize,
    traced: bool,
) -> Result<Episode> {
    let setup_started = Instant::now();
    let mut world = World::build(plan, shape, shards)?;
    let wave = plan.tier.wave();
    let mut sessions = Sessions::default();
    // Warm-up: codec caches, compiled programs, the pool and scratch
    // capacity fill on one wave drawn like the timed traffic.
    world.wave(
        &plan.traffic[..wave.min(plan.traffic.len())],
        plan,
        shape,
        &mut Meter::new(false),
        &mut sessions,
    )?;
    sessions.start_timed();
    let setup_s = setup_started.elapsed().as_secs_f64();

    let before = world.counters();
    let mut meter = Meter::new(traced);
    let timed_started = Instant::now();
    for chunk in plan.traffic.chunks(wave) {
        world.wave(chunk, plan, shape, &mut meter, &mut sessions)?;
    }
    let timed_s = timed_started.elapsed().as_secs_f64();
    let counters = world.counters().since(&before);

    let mut problems = sessions.check(&world.hub);
    let replies: u64 = world.partners.iter().map(|p| p.replied).sum();
    let completed = world.hub.completed_sessions() as u64;
    if replies < completed {
        problems.push(format!("{replies} quotes sent for {completed} completions"));
    }
    let total = world.counters();
    if total.reliable_acks + total.reliable_failures != total.reliable_sends {
        problems.push(format!(
            "wire ledger not drained: {} acks + {} failures != {} sends",
            total.reliable_acks, total.reliable_failures, total.reliable_sends
        ));
    }
    Ok(Episode::finish(setup_s, timed_s, meter, counters, sessions, &[&world.hub], 0, problems))
}
