//! Solver-path soundness: the deflated Lanczos solver returns the dense
//! spectrum *with multiplicity*, and the Theorem 4/5/6 bounds it feeds
//! stay below simulated executions.
//!
//! `tests/soundness.rs` checks the sandwich under the default options,
//! where every graph it uses is solved densely; this binary forces
//! `EigenMethod::Lanczos` with the options the sparse scale tier runs.

use graphio::graph::topo::natural_order;
use graphio::linalg::eigenvalues_symmetric;
use graphio::prelude::*;
use graphio::spectral::bound::smallest_eigenvalues;

/// Largest gap between a Lanczos value and the dense value of the same
/// index.
const VALUE_TOL: f64 = 1e-7;

fn structured_zoo() -> Vec<(String, CompGraph)> {
    let mut graphs: Vec<(String, CompGraph)> = Vec::new();
    for l in 5..=7 {
        graphs.push((format!("fft({l})"), fft_butterfly(l)));
    }
    for l in 6..=9 {
        graphs.push((format!("bhk({l})"), bhk_hypercube(l)));
    }
    for n in 3..=6 {
        graphs.push((format!("matmul({n})"), naive_matmul(n)));
    }
    graphs.push(("strassen(4)".into(), strassen_matmul(4)));
    for side in [8usize, 12, 16, 20] {
        graphs.push((format!("diamond({side})"), diamond_dag(side, side)));
    }
    graphs.push(("inner(64)".into(), inner_product(64)));
    graphs
}

/// The sparse scale tier's options (deflated Lanczos, its `h` and
/// tolerance), forced whatever the graph size.
fn sparse_tier(n: usize) -> BoundOptions {
    let opts = BoundOptions::for_graph_size_in_tier(n, ScaleTier::Sparse);
    assert!(matches!(opts.method, EigenMethod::Lanczos(_)));
    opts
}

/// `got` equals the `got.len()` smallest of the ascending `dense` with
/// multiplicity: value by value within [`VALUE_TOL`], and the same count
/// of copies of every distinct value (dense values within `1e-6` of each
/// other are one distinct value).
fn assert_same_spectrum(name: &str, got: &[f64], dense: &[f64]) {
    let want = &dense[..got.len()];
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= VALUE_TOL,
            "{name}: λ_{i} lanczos {g} vs dense {w}"
        );
    }
    let mut start = 0;
    while start < want.len() {
        let mut end = start + 1;
        while end < want.len() && want[end] - want[end - 1] <= 1e-6 {
            end += 1;
        }
        let (lo, hi) = (want[start] - VALUE_TOL, want[end - 1] + VALUE_TOL);
        let copies = got.iter().filter(|&&v| lo <= v && v <= hi).count();
        assert_eq!(
            copies,
            end - start,
            "{name}: multiplicity of {} (dense indices {start}..{end})",
            want[start]
        );
        start = end;
    }
}

/// Forces the sparse tier's Lanczos solver on `g` and checks both
/// Laplacian spectra against the dense solver (also at `h = n` where
/// that stays cheap), then Theorems 4, 5 and 6 against the best
/// simulated execution at three memory sizes.
fn check_graph(name: &str, g: &CompGraph) {
    let n = g.n();
    let opts = sparse_tier(n);
    // One Lanczos solve per Laplacian, shared by every check below.
    let analyzer = Analyzer::new(g);
    for kind in LaplacianKind::ALL {
        let lap = analyzer.laplacian(kind);
        let dense = eigenvalues_symmetric(&lap.to_dense()).unwrap();
        let got = analyzer.spectrum(kind, &opts).unwrap();
        assert_eq!(got.len(), opts.h.min(n), "{name} {kind:?}");
        assert_same_spectrum(&format!("{name} {kind:?}"), &got, &dense);
        if n <= 200 {
            let whole = BoundOptions {
                h: n,
                ..opts.clone()
            };
            let got = smallest_eigenvalues(lap, &whole).unwrap();
            assert_eq!(got.len(), n, "{name} {kind:?} h=n");
            assert_same_spectrum(&format!("{name} {kind:?} h=n"), &got, &dense);
        }
    }

    let order = natural_order(g);
    let max_in = g.max_in_degree();
    for m in [max_in + 1, 2 * max_in + 2, max_in + 16] {
        let sim_upper = [Policy::Lru, Policy::Belady]
            .iter()
            .filter_map(|&p| simulate(g, &order, m, p, 0).ok().map(|r| r.io()))
            .min()
            .unwrap_or_else(|| panic!("{name}: M={m} simulates")) as f64;
        let thm4 = analyzer.bound(m, &opts).unwrap().bound;
        let thm5 = analyzer.bound_original(m, &opts).unwrap().bound;
        assert!(
            thm4 <= sim_upper + 1e-9,
            "{name} M={m}: thm4 {thm4} > {sim_upper}"
        );
        assert!(
            thm5 <= sim_upper + 1e-9,
            "{name} M={m}: thm5 {thm5} > {sim_upper}"
        );
        for p in [2usize, 4] {
            let thm6 = analyzer.parallel_bound(m, p, &opts).unwrap().bound;
            assert!(
                thm6 <= sim_upper + 1e-9,
                "{name} M={m} p={p}: thm6 {thm6} > {sim_upper}"
            );
        }
    }
    assert_eq!(
        analyzer.stats().spectrum_misses,
        2,
        "{name}: one solve per kind"
    );
}

#[test]
fn lanczos_is_sound_on_structured_graphs() {
    for (name, g) in structured_zoo() {
        check_graph(&name, &g);
    }
}

#[test]
fn lanczos_is_sound_on_random_dags() {
    for (n, seed) in [(300usize, 1u64), (380, 2), (440, 3)] {
        check_graph(
            &format!("er({n}, seed {seed})"),
            &erdos_renyi_dag(n, 0.02, seed),
        );
    }
}
