//! `instability`: one iteration of the live Theorem 3.17 construction
//! at ε = 1/4 — FIFO on `G_ε` under the exact rate validator and the
//! Lemma 3.3 reroute checks, nothing else attached.

use std::sync::{Arc, Mutex};

use aqt_core::{InstabilityConfig, InstabilityConstruction, InstabilityRun};
use aqt_graph::Route;
use aqt_protocols::Fifo;
use aqt_sim::{Engine, EngineConfig, Schedule, SharedSink, TelemetryConfig};

use crate::util::{self, RunEnd, RunEndSink};
use crate::Report;

/// Steps the one-iteration run takes.
const PIN_TOTAL_STEPS: u64 = 904_670;
/// Largest sampled backlog of the run.
const PIN_MAX_BACKLOG: u64 = 310_053;

fn config() -> InstabilityConfig {
    InstabilityConfig {
        iterations: 1,
        ..InstabilityConfig::new(1, 4)
    }
}

/// What a run must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    diverged: bool,
    total_steps: u64,
    max_backlog: u64,
    queue_series: Vec<u64>,
}

fn summarize(run: Result<InstabilityRun, aqt_sim::SimError>) -> Result<Summary, String> {
    let run = run.map_err(|e| format!("construction failed: {e}"))?;
    Ok(Summary {
        diverged: run.diverged,
        total_steps: run.total_steps,
        max_backlog: run.max_backlog,
        queue_series: run.iterations.iter().map(|i| i.s_end).collect(),
    })
}

/// The gate: the run diverges and lands on the pinned step count and
/// peak, and repeats the first sample exactly.
fn gate(r: &Result<Summary, String>, first: &Result<Summary, String>) -> Vec<String> {
    let mut p = Vec::new();
    match r {
        Err(e) => p.push(e.clone()),
        Ok(s) => {
            if !s.diverged {
                p.push("construction did not diverge".into());
            }
            if s.total_steps != PIN_TOTAL_STEPS {
                p.push(format!(
                    "total_steps {} != {PIN_TOTAL_STEPS}",
                    s.total_steps
                ));
            }
            if s.max_backlog != PIN_MAX_BACKLOG {
                p.push(format!(
                    "max_backlog {} != {PIN_MAX_BACKLOG}",
                    s.max_backlog
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
    "core.driver_self_ns_per_step",
    "engine.step_ns",
    "engine.send_ns",
    "engine.receive_ns",
    "engine.inject_ns",
    "engine.compact_ns",
    "engine.packets_sent",
    "engine.packets_injected",
    "engine.packets_absorbed",
    "buffer.compacted",
    "routes.memo_hit_frac",
    "buffer.bytes_per_packet",
    "telemetry.windows",
    "setup.graph_s",
    "trace.overhead_frac",
];

pub fn measure(seconds: f64) -> Report {
    let mut rep = Report::default();
    let s = match util::sample(
        seconds,
        || Ok(InstabilityConstruction::new(config())),
        |c| summarize(c.run()),
    ) {
        Ok(s) => s,
        Err(e) => return rep.failed(e),
    };
    rep.gate_all(&s.results, gate);
    let run_s = rep.timings(&s);
    rep.info("steps_per_s", util::num(PIN_TOTAL_STEPS as f64 / run_s));
    rep
}

/// A construction, and for a traced sample the sink its run reports to.
struct Traced {
    c: InstabilityConstruction,
    sink: Option<RunEndSink>,
    slot: Option<Arc<Mutex<RunEnd>>>,
}

pub fn trace(seconds: f64) -> Report {
    let mut rep = Report::default();
    let (_, graph_s) = match util::time_setup(&mut || Ok(InstabilityConstruction::new(config()))) {
        Ok(x) => x,
        Err(e) => return rep.failed(e),
    };
    // The construction owns its engine, so the traced sample reads the
    // engine's own `Timing` telemetry through a sink that keeps the
    // `run_end` record; everything else in the wall time is the
    // driver's.
    let alt = util::alternate(
        seconds,
        |traced| {
            let (sink, slot) = traced.then(RunEndSink::new).unzip();
            Ok(Traced {
                c: InstabilityConstruction::new(config()),
                sink,
                slot,
            })
        },
        |t| match t.sink.take() {
            None => summarize(t.c.run()),
            Some(sink) => summarize(t.c.run_with_telemetry(
                TelemetryConfig::timing().with_timing_sample_every(1),
                SharedSink::new(sink),
            )),
        },
        |t, wall_s| {
            let slot = t.slot.expect("a traced sample has a sink");
            let end = slot.lock().expect("the run has ended").clone();
            let steps = end.counters.steps;
            let t = &end.timings;
            let step_ns = util::ns_per_step(&t.step, steps);
            let layers = vec![
                (
                    "core.driver_self_ns_per_step",
                    util::ratio(wall_s * 1e9, steps as f64) - step_ns,
                ),
                ("engine.step_ns", step_ns),
                ("engine.send_ns", util::ns_per_step(&t.send, steps)),
                ("engine.receive_ns", util::ns_per_step(&t.receive, steps)),
                ("engine.inject_ns", util::ns_per_step(&t.inject, steps)),
                ("engine.compact_ns", util::ns_per_step(&t.compact, steps)),
            ];
            (layers, end.counters)
        },
    );
    let alt = match alt {
        Ok(a) => a,
        Err(e) => return rep.failed(e),
    };
    rep.gate_all(&alt.results, gate);
    let mut layers = Vec::new();
    for (l, counters) in alt.layers {
        if counters.steps != PIN_TOTAL_STEPS {
            rep.problem(format!("telemetry counted {} steps", counters.steps));
        }
        rep.counters(&counters);
        layers.push(l);
    }
    rep.layers(&layers, &alt.plain, &alt.traced);
    rep.metric("setup.graph_s", graph_s);
    match peak_bytes_per_packet() {
        Ok(b) => rep.metric("buffer.bytes_per_packet", b),
        Err(e) => rep.problem(e),
    }
    rep
}

/// Packet storage per live packet at the backlog peak. The construction
/// owns its engine, so the run is recorded once and its schedule
/// replayed on an engine of our own up to the sampled peak.
fn peak_bytes_per_packet() -> Result<f64, String> {
    let c = InstabilityConstruction::new(InstabilityConfig {
        record_ops: true,
        ..config()
    });
    let run = c.run().map_err(|e| format!("recording run failed: {e}"))?;
    let peak = run
        .series
        .iter()
        .max_by_key(|s| s.backlog)
        .ok_or("the run sampled no backlog")?;
    if peak.backlog != run.max_backlog {
        return Err(format!(
            "sampled peak {} is not max_backlog {}",
            peak.backlog, run.max_backlog
        ));
    }
    let mut upto = Schedule::new();
    for op in run
        .recorded
        .ops()
        .iter()
        .filter(|op| op.time() <= peak.time)
    {
        upto.push(op.clone());
    }
    let graph = Arc::new(c.geps.graph.clone());
    let unit = Route::single(&graph, c.geps.ingress()).map_err(|e| e.to_string())?;
    let mut eng = Engine::new(graph, Fifo, EngineConfig::default());
    eng.seed_cohort(unit, 0, run.s_star)
        .map_err(|e| e.to_string())?;
    upto.run(&mut eng, peak.time).map_err(|e| e.to_string())?;
    if eng.backlog() != peak.backlog {
        return Err(format!(
            "replay reached backlog {} at step {}, the run had {}",
            eng.backlog(),
            peak.time,
            peak.backlog
        ));
    }
    Ok(eng.packet_heap_bytes() as f64 / eng.backlog() as f64)
}
