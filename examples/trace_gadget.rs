//! Watch the Lemma 3.15 bootstrap work, packet by packet.
//!
//! Runs a small bootstrap on `F_n`, tracing one seeded packet through
//! the thinning (its crossings slow down edge by edge, exactly the
//! `R_i` ladder of Claim 3.9) from the observatory's lifecycle spans
//! sampled 1-in-1, and prints the backlog sparkline.
//!
//! ```sh
//! cargo run --release --example trace_gadget
//! ```

use std::sync::{Arc, Mutex};

use adversarial_queuing::adversary::{lemma315, GadgetParams};
use adversarial_queuing::analysis::series::sparkline_fit;
use adversarial_queuing::graph::{EdgeId, FnGadget, Route};
use adversarial_queuing::protocols::Fifo;
use adversarial_queuing::sim::{
    AdversaryModelSpec, Engine, EngineConfig, ObserveConfig, SpanKind, TelemetryEvent,
    TelemetrySink,
};

/// One span of the traced packet: (time, op, edge, hop, wait).
type Span = (u64, SpanKind, u32, u32, u64);

/// Keeps packet 0's spans and counts every span.
#[derive(Clone, Default)]
struct Packet0Spans(Arc<Mutex<(Vec<Span>, u64)>>);

impl TelemetrySink for Packet0Spans {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        if let TelemetryEvent::Span {
            time,
            packet,
            op,
            edge,
            hop,
            wait,
            ..
        } = event
        {
            let mut state = self.0.lock().expect("span sink poisoned");
            if *packet == 0 {
                state.0.push((*time, *op, *edge, *hop, *wait));
            }
            state.1 += 1;
        }
    }
}

fn main() {
    let params = GadgetParams::new(1, 4); // r = 3/4
    let gadget = FnGadget::new(params.n);
    let graph = Arc::new(gadget.graph.clone());
    let s = params.s0;
    println!(
        "bootstrap on F_{} at r = {:.2}, S = {s} (2S = {} seeded packets)\n",
        params.n,
        params.rate.as_f64(),
        2 * s
    );

    let mut eng = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            validate: Some(AdversaryModelSpec::rate(params.rate)),
            validate_reroutes: true,
            sample_every: (2 * s + params.n as u64) / 64,
        },
    );
    // Every packet's lifecycle, exact to the step; attached before
    // seeding so the seeds' inject spans are recorded too.
    eng.attach_observatory(ObserveConfig::default().with_span_sample_every(1));
    let sink = Packet0Spans::default();
    eng.set_telemetry_sink(Box::new(sink.clone()));
    let unit = Route::single(&graph, gadget.handles.ingress).expect("route");
    for _ in 0..2 * s {
        eng.seed(unit.clone(), 0).expect("seed");
    }

    let boot = lemma315::build(&graph, &gadget.handles, &params, s, 0, 8).expect("build");
    boot.schedule.run(&mut eng, boot.finish).expect("legal");

    let (spans, total) = sink.0.lock().expect("span sink poisoned").clone();
    let edge = |e: u32| graph.edge_name(EdgeId(e));
    println!("packet #0's journey:");
    for &(time, op, e, _, wait) in &spans {
        match op {
            SpanKind::Inject => println!("  t={time:>6}  appeared at {}", edge(e)),
            SpanKind::Send => println!("  t={time:>6}  sent on {} after waiting {wait}", edge(e)),
            SpanKind::Enqueue => println!("  t={time:>6}  queued at {}", edge(e)),
            SpanKind::Absorb => println!("  t={time:>6}  absorbed after {}", edge(e)),
            // No faults are installed in this example.
            SpanKind::Drop | SpanKind::Duplicate => {}
        }
    }

    // The trace must be a well-formed lifecycle.
    let count = |kind: SpanKind| spans.iter().filter(|s| s.1 == kind).count();
    assert_eq!(count(SpanKind::Inject), 1, "packet #0 is injected once");
    assert_eq!(spans.first().map(|s| s.1), Some(SpanKind::Inject));
    assert!(
        spans.windows(2).all(|w| w[0].0 <= w[1].0),
        "span times never go back"
    );
    let send_times: Vec<u64> = spans
        .iter()
        .filter(|s| s.1 == SpanKind::Send)
        .map(|s| s.0)
        .collect();
    assert!(
        send_times.windows(2).all(|w| w[0] < w[1]),
        "at most one crossing per step"
    );
    let queued = eng.packets().find(|p| p.id.0 == 0);
    let hops_taken = match (queued, spans.last()) {
        (Some(p), _) => p.traversed(),
        (None, Some(&(_, SpanKind::Absorb, _, hop, _))) => hop as usize + 1,
        (None, last) => panic!("packet #0 is gone but its last span is {last:?}"),
    };
    assert_eq!(count(SpanKind::Send), hops_taken, "one send per hop taken");

    let backlog: Vec<u64> = eng.metrics().series().iter().map(|p| p.backlog).collect();
    println!("\nbacklog: {}", sparkline_fit(&backlog, 64));
    println!(
        "final backlog {} (S' target {}), {total} spans traced",
        eng.backlog(),
        boot.s_prime,
    );
}
