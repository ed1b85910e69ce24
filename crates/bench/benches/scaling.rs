//! Scaling behaviour of the whole per-circuit experiment against
//! circuit size (the paper's complexity claims: `O(|E|)` memory,
//! `O(|V|²|E|)` worst-case time, near-linear observed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobswin::experiment::{self, RunConfig};
use netlist::generator::GeneratorConfig;
use ser_engine::sim::SimConfig;

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_experiment");
    group.sample_size(10);
    for gates in [200usize, 400, 800] {
        let circuit = GeneratorConfig::new("scale", gates as u64)
            .gates(gates)
            .registers(gates / 5)
            .target_edges(gates * 22 / 10)
            .build();
        let config = RunConfig::default().with_sim(SimConfig {
            num_vectors: 256,
            frames: 8,
            warmup: 6,
            seed: 9,
            threads: 1,
        });
        group.bench_with_input(BenchmarkId::from_parameter(gates), &circuit, |b, ckt| {
            b.iter(|| experiment::run(ckt, &config).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
