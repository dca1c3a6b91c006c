//! Shared pieces: the sampling loops, order statistics, the host stamp,
//! peak memory, and a telemetry sink that keeps the `run_end` record.

use std::hint::black_box;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aqt_sim::{StageTimings, TelemetryCounters, TelemetryEvent, TelemetrySink};

/// A set-up shorter than this is repeated until the batch spans it, so
/// a microsecond-scale set-up averages over many repeats and reads well
/// above clock noise.
const SETUP_BATCH: Duration = Duration::from_millis(200);

/// Fewest timed samples a run reports, however long each takes.
const MIN_SAMPLES: usize = 3;

/// Steal time the kernel has counted on all CPUs, in seconds: time the
/// hypervisor kept a runnable virtual CPU off the physical machine. 0
/// where none is counted (bare metal) or `/proc/stat` is unreadable.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.0);
    // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
    ticks / 100.0
}

/// Wall time of an interval and the steal time counted within it.
#[derive(Clone, Copy)]
pub struct Lap {
    pub wall: f64,
    pub steal: f64,
}

impl Lap {
    /// Seconds the interval took while the process's CPUs were running:
    /// wall time minus steal. Exact for one busy thread; with two
    /// threads stalled at the same moment it removes that stall twice.
    pub fn ran(self) -> f64 {
        self.wall - self.steal
    }
}

struct Stopwatch {
    t0: Instant,
    steal0: f64,
}

impl Stopwatch {
    fn start() -> Self {
        let steal0 = steal_s();
        Stopwatch {
            t0: Instant::now(),
            steal0,
        }
    }

    fn lap(&self) -> Lap {
        let wall = self.t0.elapsed().as_secs_f64();
        Lap {
            wall,
            steal: steal_s() - self.steal0,
        }
    }
}

/// Timings of one measured run: one entry per sample.
pub struct Samples<R> {
    pub setup_s: Vec<f64>,
    pub run: Vec<Lap>,
    /// Each sample's result summary (the warm-up's first), for the
    /// correctness gate and the determinism check.
    pub results: Vec<R>,
}

/// Time `setup` (batched, see [`SETUP_BATCH`]), keeping the last state;
/// the time is [`Lap::ran`] per set-up. The batch grows in doubling
/// chunks so that the clock is read only a logarithmic number of times.
pub fn time_setup<S>(setup: &mut impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let watch = Stopwatch::start();
    let (mut n, mut chunk) = (0u64, 1u64);
    loop {
        for _ in 1..chunk {
            drop(black_box(setup()?));
        }
        let s = setup()?;
        n += chunk;
        if watch.t0.elapsed() >= SETUP_BATCH {
            return Ok((s, watch.lap().ran() / n as f64));
        }
        drop(black_box(s));
        chunk *= 2;
    }
}

/// Time one `run` of a fresh state. The state is dropped after the
/// clock stops, so teardown is never part of the timed work.
fn time_run<S, R>(state: S, run: &mut impl FnMut(&mut S) -> R) -> (S, R, Lap) {
    let mut state = black_box(state);
    let watch = Stopwatch::start();
    let r = run(&mut state);
    let lap = watch.lap();
    (state, black_box(r), lap)
}

/// One untimed warm-up sample, then samples until `seconds` of
/// measuring have passed and at least [`MIN_SAMPLES`] were taken. Each
/// sample sets up afresh, so the timed part never sees a reused state.
pub fn sample<S, R>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut run: impl FnMut(&mut S) -> R,
) -> Result<Samples<R>, String> {
    let (_, warm, _) = time_run(setup()?, &mut run);
    let mut out = Samples {
        setup_s: Vec::new(),
        run: Vec::new(),
        results: vec![warm],
    };
    let start = Instant::now();
    while more(start, seconds, out.run.len()) {
        let (state, setup_s) = time_setup(&mut setup)?;
        let (_, r, lap) = time_run(state, &mut run);
        out.run.push(lap);
        out.setup_s.push(setup_s);
        out.results.push(r);
    }
    Ok(out)
}

/// Timings of one traced run: untraced and traced samples taken in
/// turn, so that both see the same host conditions.
pub struct Alternated<R, L> {
    pub plain: Vec<Lap>,
    pub traced: Vec<Lap>,
    /// Every sample's result summary (the warm-up's first).
    pub results: Vec<R>,
    /// What `extract` read off each traced sample.
    pub layers: Vec<L>,
}

/// One untimed warm-up sample, then pairs of an untraced and a traced
/// sample until `seconds` have passed and at least [`MIN_SAMPLES`]
/// pairs were taken. `setup(traced)` builds a fresh state, `run` is
/// timed on it, and `extract` reads the layer figures off a traced
/// state, given the traced sample's wall time in seconds.
pub fn alternate<S, R, L>(
    seconds: f64,
    mut setup: impl FnMut(bool) -> Result<S, String>,
    mut run: impl FnMut(&mut S) -> R,
    mut extract: impl FnMut(S, f64) -> L,
) -> Result<Alternated<R, L>, String> {
    let (_, warm, _) = time_run(setup(false)?, &mut run);
    let mut out = Alternated {
        plain: Vec::new(),
        traced: Vec::new(),
        results: vec![warm],
        layers: Vec::new(),
    };
    let start = Instant::now();
    while more(start, seconds, out.traced.len()) {
        let (_, r, plain) = time_run(setup(false)?, &mut run);
        out.plain.push(plain);
        out.results.push(r);
        let (state, r, traced) = time_run(setup(true)?, &mut run);
        out.traced.push(traced);
        out.results.push(r);
        out.layers.push(extract(state, traced.wall));
    }
    Ok(out)
}

/// Keep taking samples while fewer than [`MIN_SAMPLES`] exist or the
/// measuring window is still open.
fn more(start: Instant, seconds: f64, taken: usize) -> bool {
    taken < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `min / median / max / count` of a sample, as a JSON object.
pub fn spread_json(xs: &[f64]) -> String {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0, f64::max);
    format!(
        "{{\"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
        num(median(xs)),
        num(min),
        num(max),
        xs.len()
    )
}

/// A JSON number. Non-finite values print as `null`, which keeps the
/// line parseable; a result holding one is reported as not correct.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The seeds a workload's pins were recorded with, and whether `seed`
/// is one of them, as a JSON object.
pub fn seeds_json(default: u64, held_out: u64, pinned: bool) -> String {
    format!("{{\"default\": {default}, \"held_out\": {held_out}, \"pinned\": {pinned}}}")
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host a result was measured on, as a JSON object: core count,
/// CPU model, compiler, and the commit (or, outside a git checkout, a
/// fingerprint of the sources the benchmark built).
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "none".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"source_fnv\": \"{:016x}\"}}",
        jstr(&cpu),
        jstr(&rustc),
        jstr(&commit),
        source_fingerprint()
    )
}

/// First line of a command's standard output, when it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the path and bytes of every file the benchmark compiles
/// in (`crates/`, `vendor/`, `perfbench/src/`), in sorted path order —
/// identifies the code under test where no commit id is available.
fn source_fingerprint() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Per-step nanoseconds of one stage histogram.
pub fn ns_per_step(h: &aqt_sim::Log2Histogram, steps: u64) -> f64 {
    ratio(h.total_nanos() as f64, steps as f64)
}

/// What a [`RunEndSink`] keeps: the run's counter totals and stage
/// timings.
#[derive(Default, Clone)]
pub struct RunEnd {
    pub counters: TelemetryCounters,
    pub timings: StageTimings,
}

/// A telemetry sink that keeps the `run_end` record (the engine's own
/// `Timing` telemetry), for drivers that own their engine privately.
pub struct RunEndSink(Arc<Mutex<RunEnd>>);

impl RunEndSink {
    /// A sink plus the handle its captured record is read through.
    pub fn new() -> (Self, Arc<Mutex<RunEnd>>) {
        let slot = Arc::new(Mutex::new(RunEnd::default()));
        (RunEndSink(Arc::clone(&slot)), slot)
    }
}

impl TelemetrySink for RunEndSink {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        if let TelemetryEvent::RunEnd {
            counters, timings, ..
        } = event
        {
            let mut rec = self.0.lock().expect("no holder of the slot panics");
            rec.counters = *counters;
            rec.timings = (*timings).clone();
        }
    }
}
