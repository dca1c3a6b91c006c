//! `certified_sweep`: one Theorem 4.1 stability cell run the
//! self-checking way — FIFO on `torus(8,8)` under a burst
//! `SaturatingAdversary` at `w = 32`, `r = 1/(d+1)` with `d = 4`,
//! validated against its `(w,r)` model, with the sentinel enforcing the
//! protocol's certificate and the observatory and counter telemetry
//! attached at their defaults.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aqt_adversary::stochastic::{random_routes, InjectionStyle, SaturatingAdversary};
use aqt_graph::{topologies, Graph, Route};
use aqt_protocols::{classify, Fifo};
use aqt_sim::{
    AdversaryModelSpec, Engine, EngineConfig, ObserveConfig, Provenance, Ratio, RingSink,
    SentinelConfig, TelemetryConfig,
};

use crate::util;
use crate::Report;

/// Steps simulated per sample.
const STEPS: u64 = 20_000;
const WINDOW: u64 = 32;
const D: usize = 4;
const ROUTES: usize = 256;

/// The seed the pins below were recorded with, and one held out for
/// checking a later claim on inputs it was not tuned on.
pub const DEFAULT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 9_001;

/// `(seed, link crossings, packets injected)` of the full run.
const PINS: &[(u64, u64, u64)] = &[
    (DEFAULT_SEED, 430_428, 107_616),
    (HELD_OUT_SEED, 426_571, 106_656),
];

fn rate() -> Ratio {
    Ratio::new(1, D as u64 + 1)
}

struct Cell {
    eng: Engine<Fifo>,
    adv: SaturatingAdversary,
    bound: u64,
    /// Present on traced cells only.
    probe: Option<Probe>,
}

/// Build the cell for `seed`: routes from `seed`, adversary draws from
/// `seed ^ 0x5eed` (the stability experiments' convention). `timing`
/// swaps the default counter telemetry for per-step stage timing and
/// adds the benchmark's own clocks around the adversary.
fn build(graph: &Arc<Graph>, seed: u64, timing: bool) -> Result<Cell, String> {
    let routes = random_routes(graph, D, ROUTES, seed);
    let d = routes.iter().map(Route::len).max().unwrap_or(1);
    let spec = classify(&Fifo).certificate_spec(WINDOW, rate(), d, 0);
    let bound = spec
        .bound()
        .ok_or("the certificate gives no bound at this rate")?;
    let adv = SaturatingAdversary::new(
        graph,
        WINDOW,
        rate(),
        routes,
        InjectionStyle::Burst,
        seed ^ 0x5eed,
    );
    let mut eng = Engine::new(
        Arc::clone(graph),
        Fifo,
        EngineConfig {
            validate: Some(AdversaryModelSpec::window(WINDOW, rate())),
            sample_every: STEPS / 256,
            ..EngineConfig::default()
        },
    );
    eng.attach_sentinel(
        SentinelConfig::default()
            .with_certificate(spec)
            .with_seed(seed),
    );
    eng.attach_observatory(ObserveConfig::default());
    let tcfg = if timing {
        TelemetryConfig::timing().with_timing_sample_every(1)
    } else {
        TelemetryConfig::default()
    };
    eng.attach_telemetry(tcfg.with_provenance(Provenance {
        seed: Some(seed),
        protocol: "FIFO".into(),
        ..Provenance::default()
    }));
    eng.set_telemetry_sink(Box::new(RingSink::with_capacity(1024)));
    Ok(Cell {
        eng,
        adv,
        bound,
        probe: timing.then(Probe::default),
    })
}

/// What a run must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    crossings: u64,
    injected: u64,
    absorbed: u64,
    backlog: u64,
    peak_backlog: u64,
    max_wait: u64,
    max_queue: u64,
    bound: u64,
    min_margin: Option<i64>,
    sentinel_clean: bool,
    observe_ticks: u64,
}

/// Time spent in the adversary, and the packet-storage footprint at the
/// backlog peak, gathered only by traced runs.
#[derive(Default)]
struct Probe {
    adversary: Duration,
    peak: (u64, u64),
}

/// Run the cell to the horizon. A traced cell also times every
/// `injections_for` call and tracks bytes per packet at the peak.
fn run(c: &mut Cell) -> Result<Summary, String> {
    let mut res = Ok(());
    for t in 1..=STEPS {
        let inj = match c.probe.as_mut() {
            None => c.adv.injections_for(t),
            Some(p) => {
                let t0 = Instant::now();
                let inj = c.adv.injections_for(t);
                p.adversary += t0.elapsed();
                inj
            }
        };
        if let Err(e) = c.eng.step(inj) {
            res = Err(format!("step {t}: {e}"));
            break;
        }
        if let Some(p) = c.probe.as_mut() {
            if c.eng.backlog() > p.peak.0 {
                p.peak = (c.eng.backlog(), c.eng.packet_heap_bytes());
            }
        }
    }
    c.eng.finish_telemetry();
    let m = c.eng.metrics();
    res.map(|()| Summary {
        crossings: m.crossings_per_edge().iter().sum(),
        injected: m.injected(),
        absorbed: m.absorbed(),
        backlog: c.eng.backlog(),
        peak_backlog: m.series().iter().map(|s| s.backlog).max().unwrap_or(0),
        max_wait: m.max_buffer_wait(),
        max_queue: m.max_queue(),
        bound: c.bound,
        min_margin: c.eng.observatory().min_margin(),
        sentinel_clean: c.eng.sentinel().is_some_and(|s| s.is_clean()),
        observe_ticks: c.eng.observatory().ticks(),
    })
}

/// The gate: sentinel clean, wait within the certificate, packets
/// conserved, pinned totals where this seed has pins, and an exact
/// repeat of the first sample.
fn gate(seed: u64, r: &Result<Summary, String>, first: &Result<Summary, String>) -> Vec<String> {
    let mut p = Vec::new();
    match r {
        Err(e) => p.push(e.clone()),
        Ok(s) => {
            if !s.sentinel_clean {
                p.push("sentinel logged a violation".into());
            }
            if s.max_wait > s.bound {
                p.push(format!("max wait {} exceeds bound {}", s.max_wait, s.bound));
            }
            if s.min_margin.is_none_or(|m| m < 0) {
                p.push(format!("certificate margin {:?}", s.min_margin));
            }
            if s.injected != s.absorbed + s.backlog {
                p.push(format!(
                    "conservation: injected {} != absorbed {} + backlog {}",
                    s.injected, s.absorbed, s.backlog
                ));
            }
            if let Some(&(_, crossings, injected)) = PINS.iter().find(|pin| pin.0 == seed) {
                if (s.crossings, s.injected) != (crossings, injected) {
                    p.push(format!(
                        "crossings/injected {}/{} != pinned {crossings}/{injected}",
                        s.crossings, s.injected
                    ));
                }
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

fn graph() -> Arc<Graph> {
    Arc::new(topologies::torus(8, 8))
}

/// The layers the traced run measures (see NOTES.md).
pub const LAYERS: &[&str] = &[
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
    "adversary.ns_per_step",
    "sentinel.ns_per_step",
    "sentinel.rounds",
    "observe.ticks",
    "observe.spans",
    "telemetry.windows",
    "setup.graph_s",
    "trace.overhead_frac",
];

pub fn measure(seconds: f64, seed: u64) -> Report {
    let mut rep = Report::default();
    let s = match util::sample(seconds, || build(&graph(), seed, false), run) {
        Ok(s) => s,
        Err(e) => return rep.failed(e),
    };
    rep.gate_all(&s.results, |r, first| gate(seed, r, first));
    let run_s = rep.timings(&s);
    rep.info("steps_per_s", util::num(STEPS as f64 / run_s));
    let pinned = PINS.iter().any(|p| p.0 == seed);
    rep.info(
        "seeds",
        util::seeds_json(DEFAULT_SEED, HELD_OUT_SEED, pinned),
    );
    if let Ok(first) = &s.results[0] {
        rep.info("hops", first.crossings.to_string());
        rep.info("injected", first.injected.to_string());
        rep.info("max_wait", first.max_wait.to_string());
        rep.info("bound", first.bound.to_string());
    }
    rep
}

pub fn trace(seconds: f64, seed: u64) -> Report {
    let mut rep = Report::default();
    let graph_s = match util::time_setup(&mut || Ok(graph())) {
        Ok((_, s)) => s,
        Err(e) => return rep.failed(e),
    };
    let g = graph();
    let alt = util::alternate(
        seconds,
        |traced| build(&g, seed, traced),
        run,
        |c, _| {
            let probe = c.probe.expect("a traced cell has a probe");
            let tel = c.eng.telemetry();
            let (counters, t) = (*tel.counters(), tel.timings());
            let steps = counters.steps;
            let obs = c.eng.observatory();
            let layers = vec![
                ("engine.step_ns", util::ns_per_step(&t.step, steps)),
                ("engine.send_ns", util::ns_per_step(&t.send, steps)),
                ("engine.receive_ns", util::ns_per_step(&t.receive, steps)),
                ("engine.inject_ns", util::ns_per_step(&t.inject, steps)),
                ("engine.compact_ns", util::ns_per_step(&t.compact, steps)),
                (
                    "sentinel.ns_per_step",
                    util::ns_per_step(&t.sentinel, steps),
                ),
                (
                    "adversary.ns_per_step",
                    util::ratio(probe.adversary.as_nanos() as f64, steps as f64),
                ),
                (
                    "buffer.bytes_per_packet",
                    util::ratio(probe.peak.1 as f64, probe.peak.0 as f64),
                ),
                ("observe.ticks", obs.ticks() as f64),
                ("observe.spans", obs.spans_emitted() as f64),
            ];
            (layers, counters)
        },
    );
    let alt = match alt {
        Ok(a) => a,
        Err(e) => return rep.failed(e),
    };
    rep.gate_all(&alt.results, |r, first| gate(seed, r, first));
    let mut layers = Vec::new();
    for (l, c) in alt.layers {
        rep.counters(&c);
        layers.push(l);
    }
    rep.layers(&layers, &alt.plain, &alt.traced);
    rep.metric("setup.graph_s", graph_s);
    rep
}
