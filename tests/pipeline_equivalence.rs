//! The staged step pipeline (active-edge iteration + discipline fast
//! paths + batched admission) must be trajectory-identical to the
//! naive reference model (`oracle::ReferenceModel`), for every
//! protocol, schedule, and fault plan. Each run attaches the lockstep
//! oracle at cadence 1 with a second, identically seeded protocol
//! instance, so a divergence fails `step` at the exact step it
//! happens. These tests are the license for the engine's fast path —
//! if one fails, the optimization changed the model.

use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::registry::{by_name, protocol_names};
use aqt_protocols::Fifo;
use aqt_sim::{
    snapshot, Engine, EngineConfig, FaultEvent, FaultPlan, Injection, Metrics, Protocol, Schedule,
};
use proptest::prelude::*;

/// A length-3 route around `ring(6)` starting at edge `start`.
fn ring_route(g: &Arc<Graph>, start: u64) -> Route {
    let ids = vec![
        EdgeId((start % 6) as u32),
        EdgeId(((start + 1) % 6) as u32),
        EdgeId(((start + 2) % 6) as u32),
    ];
    Route::new(g, ids).expect("contiguous ring edges")
}

fn config() -> EngineConfig {
    EngineConfig {
        sample_every: 3,
        ..Default::default()
    }
}

/// An engine running protocol `name` with the lockstep oracle diffing
/// every step against a second instance of the same protocol.
fn checked_engine(g: &Arc<Graph>, name: &str, seed: u64) -> Engine<Box<dyn Protocol>> {
    let mut eng = Engine::new(Arc::clone(g), by_name(name, seed).unwrap(), config());
    eng.attach_oracle(by_name(name, seed).unwrap(), 1);
    eng
}

/// What the reference model predicts for the send substep of a run:
/// one outage-suppressed send per nonempty down edge, and one crossing
/// per nonempty up edge, step by step.
struct SendLedger {
    outages: Vec<FaultEvent>,
    crossings: Vec<u64>,
}

impl SendLedger {
    fn new(edge_count: usize) -> Self {
        SendLedger {
            outages: Vec::new(),
            crossings: vec![0; edge_count],
        }
    }

    /// Account for step `t` from the reference model's state before
    /// it.
    fn before_step<P: Protocol>(&mut self, eng: &Engine<P>, t: u64) {
        let model = eng.oracle().expect("oracle attached").model().to_snapshot();
        for (ei, buf) in model.buffers.iter().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let edge = EdgeId(ei as u32);
            if eng.faults().is_some_and(|f| f.edge_down(edge, t)) {
                self.outages
                    .push(FaultEvent::OutageSuppressedSend { time: t, edge });
            } else {
                self.crossings[ei] += 1;
            }
        }
    }
}

/// Drive `steps` steps, injecting per the decoded plan: at step `t`,
/// one packet for every entry `(t, start)` in `inj`.
fn drive<P: Protocol>(
    eng: &mut Engine<P>,
    g: &Arc<Graph>,
    inj: &[(u64, u64)],
    steps: u64,
    ledger: &mut SendLedger,
) {
    for t in 1..=steps {
        let packets: Vec<Injection> = inj
            .iter()
            .filter(|&&(at, _)| at == t)
            .map(|&(_, start)| Injection::new(ring_route(g, start), start as u32))
            .collect();
        ledger.before_step(eng, t);
        eng.step(packets).unwrap();
    }
}

fn assert_counters_equal(a: &Metrics, b: &Metrics) {
    assert_eq!(a.injected(), b.injected());
    assert_eq!(a.absorbed(), b.absorbed());
    assert_eq!(a.dropped(), b.dropped());
    assert_eq!(a.duplicated(), b.duplicated());
    assert_eq!(a.max_buffer_wait(), b.max_buffer_wait());
    assert_eq!(a.max_latency(), b.max_latency());
    assert_eq!(a.max_queue_per_edge(), b.max_queue_per_edge());
    assert_eq!(a.crossings_per_edge(), b.crossings_per_edge());
    assert_eq!(a.series(), b.series());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random schedules x all protocols x random fault plans: the
    /// pipeline tracks the reference model every step, its outage log
    /// and per-edge crossings are the ones the model's states predict,
    /// and the books balance.
    #[test]
    fn pipelines_agree_on_random_runs(
        proto in 0usize..9,
        inj_raw in prop::collection::vec(0u64..360, 0..40),
        drops in prop::collection::vec(0u64..300, 0..4),
        dups in prop::collection::vec(0u64..300, 0..4),
        outage in 0u64..300,
        outage_len in 0u64..8,
        burst_at in 1u64..50,
        burst_n in 0usize..6,
    ) {
        let g = Arc::new(topologies::ring(6));
        let name = protocol_names()[proto];
        // decode each scalar into (step 1..=60, route start 0..6)
        let inj: Vec<(u64, u64)> = inj_raw.iter().map(|&v| (1 + v / 6, v % 6)).collect();

        let mut plan = FaultPlan::new();
        for &d in &drops {
            plan = plan.with_drop(EdgeId((d % 6) as u32), 1 + d / 6);
        }
        for &d in &dups {
            plan = plan.with_duplicate(EdgeId((d % 6) as u32), 1 + d / 6);
        }
        let from = 1 + outage / 6;
        plan = plan.with_outage(EdgeId((outage % 6) as u32), from, from + outage_len);
        if burst_n > 0 {
            plan = plan.with_burst(
                burst_at,
                vec![Injection::new(ring_route(&g, burst_at), 99); burst_n],
            );
        }

        let mut eng = checked_engine(&g, name, 11);
        eng.install_faults(plan).unwrap();
        let mut ledger = SendLedger::new(g.edge_count());
        drive(&mut eng, &g, &inj, 70, &mut ledger);

        let outages: Vec<FaultEvent> = eng
            .fault_log()
            .iter()
            .filter(|e| matches!(e, FaultEvent::OutageSuppressedSend { .. }))
            .cloned()
            .collect();
        prop_assert_eq!(outages, ledger.outages);
        prop_assert_eq!(eng.metrics().crossings_per_edge(), &ledger.crossings[..]);

        // packet conservation, independently recounted
        let live: u64 = g.edge_ids().map(|e| eng.queue_len(e) as u64).sum();
        let m = eng.metrics();
        prop_assert_eq!(m.injected() + m.duplicated(), m.absorbed() + m.dropped() + live);
    }

    /// Random cohort bursts x all protocols x random fault plans: a
    /// single `Injection::cohort(route, tag, n)` must be
    /// trajectory-identical to `n` consecutive singleton injections at
    /// the same step, and both must track the reference model, which
    /// mirrors every cohort as `n` single admissions. This pins the
    /// batched admission path (one route intern, one buffer
    /// range-extend) to the one-packet-at-a-time semantics of the
    /// model.
    #[test]
    fn cohorts_are_identical_to_singleton_injections(
        proto in 0usize..9,
        cohorts_raw in prop::collection::vec(0u64..1440, 0..12),
        drops in prop::collection::vec(0u64..300, 0..3),
        seed_n in 0u64..20,
    ) {
        let g = Arc::new(topologies::ring(6));
        let name = protocol_names()[proto];
        // decode each scalar into (step 1..=40, route start 0..6, n 1..=6)
        let cohorts: Vec<(u64, u64, u32)> = cohorts_raw
            .iter()
            .map(|&v| (1 + (v % 240) / 6, v % 6, 1 + (v / 240) as u32))
            .collect();
        let mut plan = FaultPlan::new();
        for &d in &drops {
            plan = plan.with_drop(EdgeId((d % 6) as u32), 1 + d / 6);
        }

        let run = |batched: bool| {
            let mut eng = checked_engine(&g, name, 11);
            eng.install_faults(plan.clone()).unwrap();
            let seed_route = ring_route(&g, 0);
            if batched {
                if seed_n > 0 {
                    eng.seed_cohort(seed_route, 7, seed_n).unwrap();
                }
            } else {
                for _ in 0..seed_n {
                    eng.seed(seed_route.clone(), 7).unwrap();
                }
            }
            for t in 1..=50u64 {
                let packets: Vec<Injection> = cohorts
                    .iter()
                    .filter(|&&(at, _, _)| at == t)
                    .flat_map(|&(_, start, n)| {
                        let route = ring_route(&g, start);
                        if batched {
                            vec![Injection::cohort(route, start as u32, n)]
                        } else {
                            vec![Injection::new(route, start as u32); n as usize]
                        }
                    })
                    .collect();
                eng.step(packets).unwrap();
            }
            eng
        };

        let batched = run(true);
        let singles = run(false);

        prop_assert_eq!(snapshot::capture(&batched), snapshot::capture(&singles));
        assert_counters_equal(batched.metrics(), singles.metrics());
    }
}

/// Deterministic cross-check on every bundled protocol: a congested
/// phase (all sources firing) followed by a full drain, no faults.
#[test]
fn pipelines_agree_for_every_protocol_through_a_drain() {
    let g = Arc::new(topologies::ring(6));
    for &name in protocol_names() {
        let mut eng = checked_engine(&g, name, 5);
        for t in 1..=40u64 {
            let inj: Vec<Injection> = (0..(t % 4))
                .map(|k| Injection::new(ring_route(&g, t + k), t as u32))
                .collect();
            eng.step(inj)
                .unwrap_or_else(|e| panic!("{name}: diverged from the reference model: {e}"));
        }
        // quiet drain: the active-edge set shrinks to nothing
        eng.run_quiet(60)
            .unwrap_or_else(|e| panic!("{name}: diverged from the reference model: {e}"));
        assert_eq!(eng.backlog(), 0, "{name}: drain must complete");
    }
}

/// The recorded Theorem 3.17 adversary (which exercises `Extend` ops —
/// the Lemma 3.3 reroutes — plus massive single-edge backlogs) replays
/// in lockstep with the reference model. The engine seeds its initial
/// set as one cohort and the model packet by packet, pinning batched
/// seeding to singleton seeding on the heavyweight fixture as well.
#[test]
fn pipelines_agree_on_a_recorded_instability_run() {
    let mut cfg = InstabilityConfig::new(1, 4);
    cfg.iterations = 1;
    cfg.s0_safety = 1.0;
    cfg.m_override = Some(4);
    cfg.record_ops = true;
    cfg.validate = false;
    let construction = InstabilityConstruction::new(cfg);
    let run = construction.run().expect("legal adversary");

    let graph = Arc::new(construction.geps.graph.clone());
    let ingress = construction.geps.ingress();
    let unit = Route::single(&graph, ingress).expect("unit route");

    let mut eng = Engine::new(Arc::clone(&graph), Fifo, config());
    eng.attach_oracle(Box::new(Fifo), 1);
    eng.seed_cohort(unit, 0, run.s_star).expect("seeding");
    let sched: Schedule = run.recorded.clone();
    sched
        .run(&mut eng, run.total_steps)
        .expect("replay tracks the reference model");

    // and it matches the driver's own measurement of the final queue
    let s_end = run.iterations.last().expect("one iteration").s_end;
    assert_eq!(eng.backlog(), s_end);
}
