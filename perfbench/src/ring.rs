//! `ring_sharded`: the E18 ring with contention — FIFO on
//! `ring(120_000)`, every edge seeded with a cohort of 4 packets on a
//! 64-hop wrap-around route, stepped at 2 shards (`ShardPlan::auto`)
//! until it drains. No adversary, nothing attached.

use std::sync::Arc;
use std::time::Instant;

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::Fifo;
use aqt_sim::{fnv1a_u64s, Engine, EngineConfig, ShardPlan, TelemetryConfig, TelemetryCounters};

use crate::util;
use crate::Report;

const EDGES: usize = 120_000;
const ROUTE_LEN: usize = 64;
const COHORT: u64 = 4;
const SHARDS: usize = 2;
const PACKETS: u64 = EDGES as u64 * COHORT;
/// Every edge carries `COHORT` packets over `ROUTE_LEN` hops, one per step.
const CROSSINGS_PER_EDGE: u64 = COHORT * ROUTE_LEN as u64;

/// Fingerprint of the sequential (1-shard) trajectory; the sharded run
/// must reproduce it bit for bit.
const PIN_FINGERPRINT: u64 = 0x2b31_f7e3_8eeb_76af;

/// The seeded engine, with its set-up split into two parts for the
/// traced run.
struct Setup {
    eng: Engine<Fifo>,
    graph_s: f64,
    seed_s: f64,
    /// Packet storage per packet once seeded (the peak: nothing is
    /// injected afterwards), read only when timing.
    bytes_per_packet: f64,
}

/// Build the ring at `shards` shards and seed every edge. `timing`
/// attaches the engine's stage timing before seeding. Seeds count as
/// admitted cohorts, not injected packets: nothing is injected while
/// the ring drains, so `engine.packets_injected` and `engine.inject_ns`
/// do not apply here.
fn setup(shards: usize, timing: bool) -> Result<Setup, String> {
    let t0 = Instant::now();
    let g: Arc<Graph> = Arc::new(topologies::ring(EDGES));
    let graph_s = t0.elapsed().as_secs_f64();
    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    if shards > 1 {
        eng.set_shards(ShardPlan::auto(&g, shards))
            .map_err(|e| e.to_string())?;
    }
    if timing {
        eng.attach_telemetry(TelemetryConfig::timing().with_timing_sample_every(1));
    }
    let t0 = Instant::now();
    for e in 0..EDGES {
        let ids: Vec<EdgeId> = (0..ROUTE_LEN)
            .map(|k| EdgeId(((e + k) % EDGES) as u32))
            .collect();
        let route = Route::new(&g, ids).map_err(|e| e.to_string())?;
        eng.seed_cohort(route, e as u32, COHORT)
            .map_err(|e| e.to_string())?;
    }
    let seed_s = t0.elapsed().as_secs_f64();
    let bytes_per_packet = if timing {
        util::ratio(eng.packet_heap_bytes() as f64, eng.backlog() as f64)
    } else {
        0.0
    };
    Ok(Setup {
        eng,
        graph_s,
        seed_s,
        bytes_per_packet,
    })
}

/// What a run must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    steps: u64,
    absorbed: u64,
    /// Edges whose crossing count is not `CROSSINGS_PER_EDGE`.
    uneven_edges: usize,
    fingerprint: u64,
}

/// Step until drained (bounded well past the 256 steps it takes).
fn drain(eng: &mut Engine<Fifo>) -> Result<Summary, String> {
    while eng.backlog() > 0 {
        if eng.time() > 4 * CROSSINGS_PER_EDGE {
            return Err(format!("not drained after {} steps", eng.time()));
        }
        eng.run_quiet(1).map_err(|e| e.to_string())?;
    }
    let m = eng.metrics();
    let mut words = vec![
        eng.time(),
        m.absorbed(),
        m.max_buffer_wait(),
        m.max_latency(),
    ];
    words.extend_from_slice(m.crossings_per_edge());
    words.extend_from_slice(m.max_queue_per_edge());
    Ok(Summary {
        steps: eng.time(),
        absorbed: m.absorbed(),
        uneven_edges: m
            .crossings_per_edge()
            .iter()
            .filter(|&&c| c != CROSSINGS_PER_EDGE)
            .count(),
        fingerprint: fnv1a_u64s(words),
    })
}

fn gate(r: &Result<Summary, String>, first: &Result<Summary, String>) -> Vec<String> {
    let mut p = Vec::new();
    match r {
        Err(e) => p.push(e.clone()),
        Ok(s) => {
            if s.absorbed != PACKETS {
                p.push(format!("absorbed {} != {PACKETS}", s.absorbed));
            }
            if s.steps != CROSSINGS_PER_EDGE {
                p.push(format!(
                    "drained in {} steps, not {CROSSINGS_PER_EDGE}",
                    s.steps
                ));
            }
            if s.uneven_edges != 0 {
                p.push(format!(
                    "{} edges not crossed exactly {CROSSINGS_PER_EDGE} times",
                    s.uneven_edges
                ));
            }
            if s.fingerprint != PIN_FINGERPRINT {
                p.push(format!(
                    "trajectory fingerprint {:#018x} != sequential {PIN_FINGERPRINT:#018x}",
                    s.fingerprint
                ));
            }
        }
    }
    if r != first {
        p.push(format!(
            "run drifted from the first sample: {r:?} vs {first:?}"
        ));
    }
    p
}

/// The layers the traced run measures (see NOTES.md).
pub const LAYERS: &[&str] = &[
    "engine.step_ns",
    "engine.send_ns",
    "engine.receive_ns",
    "engine.packets_sent",
    "engine.packets_absorbed",
    "buffer.bytes_per_packet",
    "telemetry.windows",
    "shard.barrier_ns_per_step",
    "shard.work_ns_p50",
    "shard.work_ns_max",
    "shard.msgs_merged",
    "shard.cross_frac",
    "setup.graph_s",
    "setup.seed_ns_per_packet",
    "trace.overhead_frac",
];

pub fn measure(seconds: f64) -> Report {
    let mut rep = Report::default();
    let s = match util::sample(seconds, || setup(SHARDS, false), |st| drain(&mut st.eng)) {
        Ok(s) => s,
        Err(e) => return rep.failed(e),
    };
    rep.gate_all(&s.results, gate);
    let run_s = rep.timings(&s);
    rep.info(
        "hops_per_s",
        util::num((PACKETS * ROUTE_LEN as u64) as f64 / run_s),
    );
    rep
}

pub fn trace(seconds: f64) -> Report {
    let mut rep = Report::default();
    // The pin is the sequential trajectory: re-derive it here.
    let sequential = setup(1, false).and_then(|mut st| drain(&mut st.eng));
    rep.op(gate(&sequential, &sequential));

    let alt = util::alternate(
        seconds,
        |traced| setup(SHARDS, traced),
        |st| drain(&mut st.eng),
        |mut st, _| {
            st.eng.finish_telemetry();
            let tel = st.eng.telemetry();
            let c: TelemetryCounters = *tel.counters();
            let t = tel.timings();
            let steps = c.steps;
            let q = |x: f64| t.shard_work.quantile_bound(x).unwrap_or(0) as f64;
            let layers = vec![
                ("engine.step_ns", util::ns_per_step(&t.step, steps)),
                ("engine.send_ns", util::ns_per_step(&t.send, steps)),
                ("engine.receive_ns", util::ns_per_step(&t.receive, steps)),
                (
                    "shard.barrier_ns_per_step",
                    util::ratio(c.shard_barrier_ns as f64, steps as f64),
                ),
                ("shard.work_ns_p50", q(0.5)),
                ("shard.work_ns_max", q(1.0)),
                ("buffer.bytes_per_packet", st.bytes_per_packet),
                ("setup.graph_s", st.graph_s),
                ("setup.seed_ns_per_packet", st.seed_s * 1e9 / PACKETS as f64),
            ];
            (layers, c)
        },
    );
    let alt = match alt {
        Ok(a) => a,
        Err(e) => return rep.failed(e),
    };
    for r in &alt.results {
        rep.op(gate(r, &sequential));
    }
    let mut layers = Vec::new();
    for (l, c) in alt.layers {
        rep.counters(&c);
        layers.push(l);
    }
    rep.layers(&layers, &alt.plain, &alt.traced);
    rep
}
