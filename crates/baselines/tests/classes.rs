//! The class sweep against the full per-vertex sweep it replaces.

use graphio_baselines::convex_mincut::{
    convex_min_cut_bound, wavefront_cut, ConvexMinCutOptions, ConvexMinCutResult, VertexSweep,
};
use graphio_graph::generators::{
    bhk_hypercube, diamond_dag, erdos_renyi_dag, fft_butterfly, inner_product, layered_random_dag,
    naive_matmul, path_dag, strassen_matmul,
};
use graphio_graph::{wl_classes, CompGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `max_v 2·max(0, C(v) − M)` over `vertices` in order, the first strict
/// maximum winning — the per-vertex sweep's reduction.
fn per_vertex(g: &CompGraph, vertices: &[usize], memory: usize) -> ConvexMinCutResult {
    let mut best_vertex = vertices[0];
    let mut max_cut = 0;
    for &v in vertices {
        let c = wavefront_cut(g, v);
        if c > max_cut {
            max_cut = c;
            best_vertex = v;
        }
    }
    ConvexMinCutResult {
        bound: 2 * max_cut.saturating_sub(memory as u64),
        best_vertex,
        max_cut,
        vertices_evaluated: vertices.len(),
    }
}

/// The per-vertex sweep over a seeded sample of all `n` vertices.
fn per_vertex_sample(g: &CompGraph, count: usize, seed: u64, memory: usize) -> ConvexMinCutResult {
    let mut all: Vec<usize> = (0..g.n()).collect();
    all.shuffle(&mut StdRng::seed_from_u64(seed));
    all.truncate(count.max(1).min(g.n()));
    per_vertex(g, &all, memory)
}

fn options(sweep: VertexSweep) -> ConvexMinCutOptions {
    ConvexMinCutOptions { sweep, threads: 2 }
}

fn all_singletons(g: &CompGraph) -> bool {
    wl_classes(g)
        .iter()
        .enumerate()
        .all(|(v, &c)| c as usize == v)
}

#[test]
fn class_sweep_equals_the_full_sweep_on_the_zoo() {
    let mut zoo: Vec<(String, CompGraph)> = Vec::new();
    zoo.extend((3..=7).map(|l| (format!("fft({l})"), fft_butterfly(l))));
    zoo.extend((3..=9).map(|l| (format!("bhk({l})"), bhk_hypercube(l))));
    zoo.extend((2..=6).map(|k| (format!("matmul({k})"), naive_matmul(k))));
    for (r, c) in [(6, 6), (4, 9), (12, 12)] {
        zoo.push((format!("diamond({r},{c})"), diamond_dag(r, c)));
    }
    zoo.extend([2, 5].map(|k| (format!("inner_product({k})"), inner_product(k))));
    zoo.push(("path(12)".into(), path_dag(12)));
    zoo.extend([2, 4].map(|k| (format!("strassen({k})"), strassen_matmul(k))));
    for (name, g) in &zoo {
        let all: Vec<usize> = (0..g.n()).collect();
        let full = per_vertex(g, &all, 2);
        let classes = convex_min_cut_bound(g, 2, &options(VertexSweep::All));
        assert_eq!(classes.max_cut, full.max_cut, "{name}");
        assert_eq!(classes.bound, full.bound, "{name}");
        assert_eq!(classes.best_vertex, full.best_vertex, "{name}");
        assert!(classes.vertices_evaluated <= g.n(), "{name}");
    }
}

#[test]
fn singleton_classes_reproduce_the_per_vertex_sweep_exactly() {
    for seed in 1..=3 {
        let g = erdos_renyi_dag(120, 0.05, seed);
        assert!(all_singletons(&g), "er seed {seed}");
        let all: Vec<usize> = (0..g.n()).collect();
        assert_eq!(
            convex_min_cut_bound(&g, 8, &options(VertexSweep::All)),
            per_vertex(&g, &all, 8)
        );
        let sweep = VertexSweep::Sample { count: 40, seed };
        assert_eq!(
            convex_min_cut_bound(&g, 8, &options(sweep)),
            per_vertex_sample(&g, 40, seed, 8)
        );
    }
}

fn small_random_dag() -> impl Strategy<Value = CompGraph> {
    (0u64..400, 0usize..2).prop_map(|(seed, kind)| match kind {
        0 => layered_random_dag(2 + (seed as usize % 3), 2 + (seed as usize % 3), 0.6, seed),
        _ => erdos_renyi_dag(4 + (seed as usize % 8), 0.35, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_sweep_never_exceeds_the_full_sweep(
        g in small_random_dag(),
        count in 1usize..8,
        seed in 0u64..20,
        memory in 0usize..3,
    ) {
        if g.n() == 0 {
            return Ok(());
        }
        let all: Vec<usize> = (0..g.n()).collect();
        let full = per_vertex(&g, &all, memory);
        let classes = convex_min_cut_bound(&g, memory, &options(VertexSweep::All));
        prop_assert!(classes.max_cut <= full.max_cut);
        prop_assert!(classes.bound <= full.bound);
        let sweep = VertexSweep::Sample { count, seed };
        let sampled = convex_min_cut_bound(&g, memory, &options(sweep));
        prop_assert!(sampled.max_cut <= classes.max_cut);
        if all_singletons(&g) {
            prop_assert_eq!(classes, full);
            prop_assert_eq!(sampled, per_vertex_sample(&g, count, seed, memory));
        }
    }
}
