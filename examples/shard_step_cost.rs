//! The fixed cost of a sharded step: `ring(16)` with two packets in
//! flight, stepped sequentially and at 2 and 4 shards. The step does
//! almost no work, so the sharded rows measure the shard pool's phase
//! handoff (two per step) rather than sending or receiving.
//!
//! ```sh
//! cargo run --release --example shard_step_cost            # 20000 steps/sample
//! cargo run --release --example shard_step_cost 100000
//! ```
//!
//! Prints one line per shard count: the median, min and max ns/step
//! over 7 samples. Run it pinned to one CPU (`taskset -c 0`) or next to
//! a second copy to see the oversubscribed cost.

use std::sync::Arc;
use std::time::Instant;

use adversarial_queuing::graph::{topologies, EdgeId, Route};
use adversarial_queuing::protocols::Fifo;
use adversarial_queuing::sim::{Engine, EngineConfig, Injection, ShardPlan};

const SAMPLES: usize = 7;

fn ns_per_step(shards: usize, steps: u64) -> Vec<f64> {
    let graph = Arc::new(topologies::ring(16));
    // One 2-hop packet injected per step: two packets in flight.
    let route = Route::new(&graph, vec![EdgeId(0), EdgeId(1)]).expect("contiguous ring edges");
    let mut eng = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            sample_every: 0,
            ..Default::default()
        },
    );
    if shards > 1 {
        eng.set_shards(ShardPlan::striped(graph.edge_count(), shards))
            .expect("FIFO shards");
    }
    let step = |eng: &mut Engine<Fifo>| {
        eng.step([Injection::new(route.clone(), 0)]).expect("step");
    };
    for _ in 0..1_000 {
        step(&mut eng);
    }
    let mut out: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..steps {
                step(&mut eng);
            }
            t0.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();
    assert_eq!(eng.backlog(), 2, "two packets in flight");
    out.sort_by(f64::total_cmp);
    out
}

fn main() {
    let steps: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("steps per sample"))
        .unwrap_or(20_000);
    for shards in [1usize, 2, 4] {
        let s = ns_per_step(shards, steps);
        println!(
            "ring(16), {shards} shard(s): {:.0} ns/step median (min {:.0}, max {:.0}, {SAMPLES} x {steps} steps)",
            s[SAMPLES / 2],
            s[0],
            s[SAMPLES - 1]
        );
    }
}
