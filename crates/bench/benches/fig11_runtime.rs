//! Figure 11: head-to-head runtime of the spectral bound vs the convex
//! min-cut baseline on growing TSP graphs — the scaling gap is the
//! figure's entire point (the paper measured 98 s vs 8.5 h at l = 15).
//! The baseline here solves one max-flow per Weisfeiler–Leman class
//! (`l + 1`), not one per vertex, which closes most of that gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphio_baselines::convex_mincut::{convex_min_cut_bound, ConvexMinCutOptions, VertexSweep};
use graphio_bench::experiments::bound_options_for;
use graphio_graph::generators::bhk_hypercube;
use graphio_spectral::spectral_bound;

fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_runtime");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    let m = 16;
    for l in [6usize, 7, 8] {
        let g = bhk_hypercube(l);
        group.bench_with_input(BenchmarkId::new("spectral", l), &g, |b, g| {
            let opts = bound_options_for(g.n());
            b.iter(|| spectral_bound(g, m, &opts).unwrap().bound)
        });
        group.bench_with_input(BenchmarkId::new("convex_mincut", l), &g, |b, g| {
            let opts = ConvexMinCutOptions {
                sweep: VertexSweep::All,
                ..Default::default()
            };
            b.iter(|| convex_min_cut_bound(g, m, &opts).bound)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
