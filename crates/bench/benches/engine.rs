//! Engine hot-path benchmark: the staged pipeline (active-edge set +
//! discipline fast paths) bare, with the runtime sentinel attached at
//! its default cadence, with full telemetry, and with the queue
//! observatory, on the three workloads the layering targets:
//!
//! * **instability** — a recorded Theorem 3.17 `G_ε` run replayed end
//!   to end (huge backlogs on a handful of edges, `Extend` reroutes);
//! * **sweep** — one stability-sweep cell (torus, saturating
//!   adversary, many moderately-filled buffers);
//! * **drain** — a seeded line(256) draining through one edge while
//!   255 buffers stay empty (the pure active-set case).
//!
//! Besides the criterion output, writes `BENCH_engine.json` at the
//! repository root with steps/sec for all four modes (the
//! `sentinel_vs_pipeline`, `telemetry_vs_pipeline`, and
//! `observe_vs_pipeline` ratios are the measured overheads of
//! self-checking, of full instrumentation, and of the queue
//! observatory at its default cadence), so the repo's perf trajectory
//! has a recorded baseline.
//! `BENCH_SMOKE=1` shrinks every workload to a single cheap sample and
//! writes `BENCH_engine_smoke.json` instead — the committed copy of
//! that file is the baseline the CI regression gate
//! (`.github/bench_gate.py`) diffs fresh smoke runs against.

use std::sync::Arc;
use std::time::Instant;

use aqt_adversary::stochastic::{random_routes, InjectionStyle, SaturatingAdversary};
use aqt_bench::report::Json;
use aqt_core::experiments::{e18_full, e18_smoke, E18Report};
use aqt_core::instability::{InstabilityConfig, InstabilityConstruction, InstabilityRun};
use aqt_graph::{topologies, Route};
use aqt_protocols::Fifo;
use aqt_sim::{
    Engine, EngineConfig, ObserveConfig, Ratio, RingSink, SentinelConfig, TelemetryConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Pre-refactor seed measurements (commit 8270fdf, monolithic
/// `Engine::step`, release profile, this container class) — the fixed
/// "before the layering existed" reference for the pipeline numbers
/// measured fresh below.
const SEED_BASELINE: &[(&str, f64)] = &[
    ("instability", 505_208.0),
    ("sweep", 171_209.0),
    ("drain", 2_427_423.0),
];

/// PR 3 pipeline measurements (commit a4c45e3, `Arc<[EdgeId]>` routes,
/// 48-byte packets, release profile, this container class) — the
/// "before route interning" reference the CI regression gate and the
/// DESIGN.md memory-layout section compare against. Bytes-per-packet
/// measured with examples/mem_profile.rs at the backlog peak of each
/// workload before the representation change.
const PR3_BASELINE_INSTABILITY_STEPS_PER_SEC: f64 = 767_423.0;
const PR3_BASELINE_BYTES_PER_PACKET: &[(&str, f64)] = &[("instability", 68.1), ("drain", 78.6)];

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// The four engine configurations under comparison.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The staged pipeline with discipline fast paths.
    Pipeline,
    /// The staged pipeline with the runtime sentinel at its default
    /// cadence — measures the self-checking overhead.
    Sentinel,
    /// The staged pipeline with full telemetry (counters + stage
    /// timing, default 4096-step windows, ring sink) — measures the
    /// instrumentation overhead the `.github/bench_gate.py` telemetry
    /// gate bounds.
    Telemetry,
    /// The staged pipeline with the queue observatory at its defaults
    /// (backlog ticks every 256 steps, 1-in-64 span sampling, ring
    /// sink, telemetry level untouched) — isolates the observatory's
    /// own overhead, which the `.github/bench_gate.py` observe gate
    /// bounds.
    Observe,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Pipeline => "pipeline",
            Mode::Sentinel => "sentinel",
            Mode::Telemetry => "telemetry",
            Mode::Observe => "observe",
        }
    }

    /// A fresh engine for this mode on `graph`.
    fn engine(self, graph: &Arc<aqt_graph::Graph>) -> Engine<Fifo> {
        let mut eng = Engine::new(Arc::clone(graph), Fifo, EngineConfig::default());
        if self == Mode::Sentinel {
            eng.attach_sentinel(SentinelConfig::default());
        }
        if self == Mode::Telemetry {
            eng.attach_telemetry(TelemetryConfig::timing());
            eng.set_telemetry_sink(Box::new(RingSink::with_capacity(1024)));
        }
        if self == Mode::Observe {
            eng.attach_observatory(ObserveConfig::default());
            eng.set_telemetry_sink(Box::new(RingSink::with_capacity(1024)));
        }
        eng
    }
}

const MODES: [Mode; 4] = [
    Mode::Pipeline,
    Mode::Sentinel,
    Mode::Telemetry,
    Mode::Observe,
];

/// One timed measurement: steps simulated, the wall time of the
/// stepping alone (setup excluded), and the packet-storage footprint at
/// the workload's backlog peak (`(backlog, heap_bytes)`; `(0, 0)` when
/// the workload has no meaningful peak to account).
#[derive(Clone, Copy)]
struct Sample {
    steps: u64,
    secs: f64,
    mem: (u64, u64),
}

/// Best (min-time) sample of a batch.
fn best(samples: &[Sample]) -> Sample {
    *samples
        .iter()
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("at least one sample")
}

fn replay_instability(
    construction: &InstabilityConstruction,
    run: &InstabilityRun,
    mode: Mode,
) -> Sample {
    let graph = Arc::new(construction.geps.graph.clone());
    let ingress = construction.geps.ingress();
    let unit = Route::single(&graph, ingress).expect("unit route");
    let mut eng = mode.engine(&graph);
    eng.seed_cohort(unit, 0, run.s_star).expect("seeding");
    let sched = run.recorded.clone();
    let t0 = Instant::now();
    sched.run(&mut eng, run.total_steps).expect("replay");
    let secs = t0.elapsed().as_secs_f64();
    // The instability construction's backlog peaks at the end of the
    // run, so the post-replay state is the peak footprint.
    Sample {
        steps: run.total_steps,
        secs,
        mem: (eng.backlog(), eng.packet_heap_bytes()),
    }
}

fn run_sweep(mode: Mode) -> Sample {
    let steps = if smoke() { 2_000 } else { 20_000u64 };
    let graph = Arc::new(topologies::torus(4, 4));
    let routes = random_routes(&graph, 4, 64, 11);
    let mut adv = SaturatingAdversary::new(
        &graph,
        16,
        Ratio::new(1, 5),
        routes,
        InjectionStyle::Burst,
        5,
    );
    let mut eng = mode.engine(&graph);
    let t0 = Instant::now();
    for t in 1..=steps {
        eng.step(adv.injections_for(t)).expect("no validators on");
    }
    Sample {
        steps,
        secs: t0.elapsed().as_secs_f64(),
        mem: (0, 0),
    }
}

fn run_drain(mode: Mode) -> Sample {
    let k = if smoke() { 2_000 } else { 20_000u64 };
    let graph = Arc::new(topologies::line(256));
    let e0 = graph.edge_ids().next().expect("line has edges");
    let unit = Route::single(&graph, e0).expect("unit route");
    let mut eng = mode.engine(&graph);
    eng.seed_cohort(unit, 0, k).expect("seeding");
    // Peak occupancy is the fully seeded state; account it before the
    // drain empties the buffers.
    let mem = (eng.backlog(), eng.packet_heap_bytes());
    let steps = k + 16;
    let t0 = Instant::now();
    eng.run_quiet(steps).expect("quiet drain");
    assert_eq!(eng.backlog(), 0, "drain must complete");
    Sample {
        steps,
        secs: t0.elapsed().as_secs_f64(),
        mem,
    }
}

/// The sharded scaling column: the E18 workload (every-buffer-busy
/// ring) at 1/2/4(/8) shards. Bit-identity is asserted here — a bench
/// run that diverges is a correctness bug, not a perf number — and the
/// host's core count is recorded so the CI gate can tell a genuine
/// scaling regression from a single-core runner that cannot scale.
fn run_sharded() -> E18Report {
    let report = if smoke() {
        e18_smoke(&[2, 4])
    } else {
        e18_full()
    }
    .expect("e18 workload");
    for row in &report.rows {
        assert!(
            row.identical,
            "sharded run at {} shards diverged from sequential",
            row.shards
        );
    }
    report
}

fn sharded_json(report: &E18Report) -> Json {
    let rows: Vec<Json> = report
        .rows
        .iter()
        .map(|r| {
            Json::object()
                .field("shards", u64::from(r.shards))
                .field("steps_per_sec", Json::f(r.steps_per_sec, 0))
                .field("speedup_vs_sequential", Json::f(r.speedup, 3))
                .field("identical", r.identical)
        })
        .collect();
    let scaling_4 = report
        .rows
        .iter()
        .find(|r| r.shards == 4)
        .map_or(0.0, |r| r.speedup);
    Json::object()
        .field("workload", "e18 ring, every buffer busy, quiet steps")
        .field("edges", report.edges as u64)
        .field("steps", report.steps)
        .field("host_cores", report.host_cores as u64)
        .field("scaling_4_vs_1", Json::f(scaling_4, 3))
        .field("rows", rows)
}

fn write_json(results: &[(&str, [Sample; 4])], sharded: &E18Report) {
    let mut seed = Json::object().field(
        "note",
        "monolithic Engine::step measured before the layered refactor; \
         steps/sec, release profile, full-size workloads",
    );
    for (name, rate) in SEED_BASELINE.iter() {
        seed = seed.field(&format!("{name}_steps_per_sec"), Json::f(*rate, 0));
    }
    seed = seed.field("commit", "8270fdf");

    let mut pr3 = Json::object()
        .field("commit", "a4c45e3")
        .field(
            "note",
            "staged pipeline before route interning (Arc routes, 48 B packets); \
             full-size runs are compared against these in DESIGN.md",
        )
        .field(
            "instability_steps_per_sec",
            Json::f(PR3_BASELINE_INSTABILITY_STEPS_PER_SEC, 0),
        );
    for (name, bpp) in PR3_BASELINE_BYTES_PER_PACKET.iter() {
        pr3 = pr3.field(&format!("{name}_bytes_per_packet"), Json::f(*bpp, 1));
    }
    pr3 = pr3.field("packet_struct_bytes", 48u64);

    let workloads: Vec<Json> = results
        .iter()
        .map(|(name, samples)| {
            let [pipeline, sentinel, telemetry, observe] = samples;
            let mut w = Json::object()
                .field("name", *name)
                .field("steps", pipeline.steps);
            for (mode, s) in MODES.iter().zip(samples.iter()) {
                w = w.field(
                    mode.label(),
                    Json::object()
                        .field("secs", Json::f(s.secs, 6))
                        .field("steps_per_sec", Json::f(s.steps as f64 / s.secs, 0)),
                );
            }
            // Peak packet-storage accounting (deterministic, pipeline
            // run): VecDeque capacity x packet size + route storage.
            let (backlog, heap) = pipeline.mem;
            if backlog > 0 {
                w = w
                    .field("backlog_peak", backlog)
                    .field("packet_heap_bytes", heap)
                    .field("bytes_per_packet", Json::f(heap as f64 / backlog as f64, 1));
            }
            let rp = pipeline.steps as f64 / pipeline.secs;
            let rs = sentinel.steps as f64 / sentinel.secs;
            let rt = telemetry.steps as f64 / telemetry.secs;
            let ro = observe.steps as f64 / observe.secs;
            w.field("sentinel_vs_pipeline", Json::f(rs / rp, 3))
                .field("telemetry_vs_pipeline", Json::f(rt / rp, 3))
                .field("observe_vs_pipeline", Json::f(ro / rp, 3))
        })
        .collect();

    let doc = Json::object()
        .field("generated_by", "cargo bench -p aqt-bench --bench engine")
        .field("smoke", smoke())
        .field("pre_refactor_seed_baseline", seed)
        .field("pr3_pipeline_baseline", pr3)
        .field(
            "packet_struct_bytes",
            std::mem::size_of::<aqt_sim::Packet>(),
        )
        .field("workloads", workloads)
        .field("sharded", sharded_json(sharded));
    // Smoke runs use shrunken workloads, so their numbers are not
    // comparable to the full-size file; they get their own baseline,
    // which is what the CI regression gate diffs against.
    let path = if smoke() {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json")
    };
    doc.write(path).expect("write bench json");
    println!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    let samples = if smoke() { 1 } else { 3 };
    // Record the G_ε adversary once; replays drive every mode.
    let construction = {
        let mut cfg = InstabilityConfig::new(1, 4);
        cfg.iterations = 1;
        cfg.record_ops = true;
        cfg.validate = false;
        if smoke() {
            cfg.s0_safety = 1.0;
            cfg.m_override = Some(4);
        } else {
            cfg.s0_safety = 2.0;
            cfg.m_margin = 1.5;
        }
        InstabilityConstruction::new(cfg)
    };
    let run = construction.run().expect("legal adversary");

    type Workload<'a> = (&'a str, Box<dyn Fn(Mode) -> Sample + 'a>, u64);
    let mut results: Vec<(&str, [Sample; 4])> = Vec::new();
    let workloads: Vec<Workload> = vec![
        (
            "instability",
            Box::new(|m| replay_instability(&construction, &run, m)),
            run.total_steps,
        ),
        (
            "sweep",
            Box::new(run_sweep),
            if smoke() { 2_000 } else { 20_000 },
        ),
        (
            "drain",
            Box::new(run_drain),
            if smoke() { 2_016 } else { 20_016 },
        ),
    ];

    for (name, workload, steps) in &workloads {
        let mut g = c.benchmark_group(format!("engine/{name}"));
        g.sample_size(samples);
        g.throughput(Throughput::Elements(*steps));
        let mut best_of: Vec<Sample> = Vec::new();
        for mode in MODES {
            let mut batch: Vec<Sample> = Vec::new();
            g.bench_with_input(BenchmarkId::from_parameter(mode.label()), &mode, |b, &m| {
                b.iter(|| batch.push(workload(m)));
            });
            best_of.push(best(&batch));
        }
        g.finish();
        results.push((name, [best_of[0], best_of[1], best_of[2], best_of[3]]));
    }

    for (name, [pipeline, sentinel, telemetry, observe]) in &results {
        let rp = pipeline.steps as f64 / pipeline.secs;
        let rs = sentinel.steps as f64 / sentinel.secs;
        let rt = telemetry.steps as f64 / telemetry.secs;
        let ro = observe.steps as f64 / observe.secs;
        println!(
            "engine/{name}: {rp:.0} steps/s; \
             with sentinel {rs:.0} ({:.3} of pipeline); \
             with telemetry {rt:.0} ({:.3} of pipeline); \
             with observatory {ro:.0} ({:.3} of pipeline)",
            rs / rp,
            rt / rp,
            ro / rp
        );
    }

    let sharded = run_sharded();
    for r in &sharded.rows {
        println!(
            "engine/sharded ({} edges, {} host cores): {} shards -> {:.0} steps/s \
             ({:.2}x of sequential, identical={})",
            sharded.edges, sharded.host_cores, r.shards, r.steps_per_sec, r.speedup, r.identical
        );
    }
    write_json(&results, &sharded);
}

criterion_group!(benches, bench);
criterion_main!(benches);
