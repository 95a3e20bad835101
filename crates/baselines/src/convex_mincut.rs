//! The convex min-cut automatic lower bound (Elango et al. \[13\],
//! reconstructed — see `DESIGN.md` §3–4).
//!
//! For each vertex `v`, consider the instant an evaluation order finishes
//! `v`: the set `S` of already-evaluated vertices is a *convex* (down-
//! closed) prefix containing `Anc(v) ∪ {v}` and no strict descendant of
//! `v`. Every vertex of the wavefront
//! `W(S) = {u ∈ S : ∃(u,w) ∈ E, w ∉ S}` holds a value still needed later,
//! so at least `|W(S)| − M` of them were spilled and must be re-read:
//! `J_G(X) ≥ 2(|W(S)| − M)`.
//!
//! The smallest wavefront any such prefix can have is lower-bounded by the
//! minimum vertex cut `C(v)` separating `Anc(v) ∪ {v}` from `Desc(v)` in
//! the split-vertex network (every wavefront severs all ancestor→descendant
//! paths), so `J*_G ≥ max_v 2·max(0, C(v) − M)` — matching the shape
//! `max_v max(0, 2(C(v,G) − M))` the paper reports for \[13\].
//!
//! The maximum over *any* subset of vertices is still a lower bound, so
//! the sweep evaluates one representative — the smallest vertex id — per
//! Weisfeiler–Leman class ([`wl_classes`]). Vertices in one automorphism
//! orbit have equal `C(v)`, so where the classes are orbits (the FFT,
//! BHK, matmul and diamond families) the result equals the full
//! per-vertex sweep's at a fraction of the max-flows; where every class
//! is a singleton it *is* the full sweep.

use crate::maxflow::{FlowNetwork, INF};
use graphio_graph::{wl_classes, CompGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Above this vertex count [`ConvexMinCutOptions::for_graph_size`] samples
/// only a handful of vertices and [`wavefront_cut`] caps each max-flow at
/// [`HUGE_FLOW_CAP`] — the baseline becomes a coarse (still valid) lower
/// bound whose job is to not stall a million-vertex analyze. Matches the
/// spectral layer's huge-tier cutoff.
pub const HUGE_SWEEP_CUTOFF: usize = 100_000;

/// Per-vertex flow cap above [`HUGE_SWEEP_CUTOFF`] (see [`wavefront_cut`]).
pub const HUGE_FLOW_CAP: u64 = 32;

/// Vertex-sweep strategy over the class representatives (see the module
/// docs).
#[derive(Debug, Clone)]
pub enum VertexSweep {
    /// Evaluate every class representative (the full baseline).
    All,
    /// Evaluate a deterministic random sample of this many class
    /// representatives — still a sound lower bound (the true baseline
    /// maximizes over more vertices), used to keep huge graphs tractable
    /// exactly as wall-clock cutoffs did in the paper's evaluation.
    Sample {
        /// Number of representatives to evaluate.
        count: usize,
        /// Sampling seed.
        seed: u64,
    },
}

/// Options for [`convex_min_cut_bound`].
#[derive(Debug, Clone)]
pub struct ConvexMinCutOptions {
    /// Which vertices to sweep.
    pub sweep: VertexSweep,
    /// Worker threads for the per-vertex sweep (1 = serial).
    pub threads: usize,
}

impl Default for ConvexMinCutOptions {
    /// The full sweep on as many workers as the process-global thread
    /// knob allows (what `--threads N` sets).
    fn default() -> Self {
        ConvexMinCutOptions {
            sweep: VertexSweep::All,
            threads: graphio_linalg::threads::effective_threads(),
        }
    }
}

impl ConvexMinCutOptions {
    /// Sweep settings scaled to graph size — the single tuning schedule
    /// shared by the CLI and the bench harness: the full sweep above a few
    /// thousand vertices is replaced by a deterministic 512-representative
    /// sample (still a sound lower bound; the true baseline
    /// maximizes over more vertices), standing in for the wall-clock
    /// cutoffs the paper applied to this method.
    pub fn for_graph_size(n: usize) -> Self {
        ConvexMinCutOptions {
            sweep: if n > HUGE_SWEEP_CUTOFF {
                VertexSweep::Sample {
                    count: 4,
                    seed: 0xC07,
                }
            } else if n > 3000 {
                VertexSweep::Sample {
                    count: 512,
                    seed: 0xC07,
                }
            } else {
                VertexSweep::All
            },
            ..Default::default()
        }
    }
}

/// Result of the convex min-cut baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexMinCutResult {
    /// The lower bound `max_v 2·max(0, C(v) − M)`.
    pub bound: u64,
    /// The first evaluated vertex attaining the maximum cut value.
    pub best_vertex: usize,
    /// The maximum cut value `max_v C(v)` observed.
    pub max_cut: u64,
    /// Number of vertices actually evaluated (one max-flow problem each).
    pub vertices_evaluated: usize,
}

/// Computes the convex min-cut lower bound on non-trivial I/O.
pub fn convex_min_cut_bound(
    g: &CompGraph,
    memory: usize,
    opts: &ConvexMinCutOptions,
) -> ConvexMinCutResult {
    let n = g.n();
    if n == 0 {
        return ConvexMinCutResult {
            bound: 0,
            best_vertex: 0,
            max_cut: 0,
            vertices_evaluated: 0,
        };
    }
    let mut vertices = class_representatives(g);
    if let VertexSweep::Sample { count, seed } = opts.sweep {
        let mut rng = StdRng::seed_from_u64(seed);
        vertices.shuffle(&mut rng);
        vertices.truncate(count.max(1).min(vertices.len()));
    }

    let threads = opts.threads.max(1).min(vertices.len().max(1));
    let sweep = |vs: &[usize]| {
        let mut net = SweepNetwork::new(g);
        vs.iter().map(|&v| (v, net.cut(v))).collect::<Vec<_>>()
    };
    let results: Vec<(usize, u64)> = if threads == 1 {
        sweep(&vertices)
    } else {
        let chunk = vertices.len().div_ceil(threads);
        let mut out: Vec<(usize, u64)> = Vec::with_capacity(vertices.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = vertices
                .chunks(chunk)
                .map(|vs| s.spawn(move || sweep(vs)))
                .collect();
            for h in handles {
                out.extend(h.join().expect("min-cut worker panicked"));
            }
        });
        out
    };

    let mut best_vertex = results[0].0;
    let mut max_cut = 0u64;
    for &(v, c) in &results {
        if c > max_cut {
            max_cut = c;
            best_vertex = v;
        }
    }
    let bound = 2 * max_cut.saturating_sub(memory as u64);
    ConvexMinCutResult {
        bound,
        best_vertex,
        max_cut,
        vertices_evaluated: results.len(),
    }
}

/// The smallest vertex of every [`wl_classes`] class, ascending.
fn class_representatives(g: &CompGraph) -> Vec<usize> {
    let mut reps = Vec::new();
    for (v, &class) in wl_classes(g).iter().enumerate() {
        // Classes are numbered by first appearance.
        if class as usize == reps.len() {
            reps.push(v);
        }
    }
    reps
}

/// The minimum wavefront `C(v)` over *convex* (down-closed) schedule
/// prefixes `S` with `Anc(v) ∪ {v} ⊆ S` and `Desc(v) ∩ S = ∅`, computed
/// exactly as a projection/closure-style min cut.
///
/// Encoding (s-side of the cut = "u ∈ S"):
/// * `s → a` (∞) pins `a ∈ Anc(v) ∪ {v}` into `S`; `d → t` (∞) pins the
///   strict descendants into `T`;
/// * each graph edge `(u, w)` adds the implication arc `w → u` (∞):
///   cutting it would mean `w ∈ S` with parent `u ∈ T`, which would break
///   down-closedness, so no finite cut does;
/// * each vertex `u` with children gets a gadget `u → c_u` (capacity 1)
///   and `c_u → w` (∞) for every child `w`: the unit arc must be cut
///   exactly when `u ∈ S` has some child in `T` — i.e. when `u` is in the
///   wavefront — and is counted once however many children cross.
///
/// The implication arcs alone would already pin `Anc(v)` and `Desc(v)`
/// once `v` and its children are pinned, but the direct pins keep Dinic's
/// augmenting paths short.
///
/// A plain reachability cut (without the implication arcs) is useless
/// here: on unique-path networks like the butterfly every
/// ancestor-to-descendant path runs through `v` itself, collapsing the cut
/// to 1. Down-closedness is what forces wide wavefronts.
///
/// Above [`HUGE_SWEEP_CUTOFF`] vertices each max-flow is capped at
/// [`HUGE_FLOW_CAP`]: a capped Dinic run still yields a valid flow, and
/// any flow value lower-bounds the true wavefront, so the baseline stays
/// a certified lower bound — it just stops tightening past the cap (the
/// huge-scale analog of the paper's §6.5 wall-clock cutoffs). The cap is
/// a pure function of the graph size, so results stay deterministic per
/// graph and cache keys need no new fields.
pub fn wavefront_cut(g: &CompGraph, v: usize) -> u64 {
    SweepNetwork::new(g).cut(v)
}

/// The network of [`wavefront_cut`], built once per sweep worker. Every
/// vertex carries a source and a sink arc of capacity 0; evaluating `v`
/// arms the pins of `v`, solves, and restores the network.
struct SweepNetwork<'g> {
    g: &'g CompGraph,
    net: FlowNetwork,
    /// Edge ids of `s → u` and `u → t`, per vertex `u`.
    pins: Vec<(usize, usize)>,
}

impl<'g> SweepNetwork<'g> {
    fn new(g: &'g CompGraph) -> Self {
        let n = g.n();
        // Node layout: vertex u -> u, gadget c_u -> n + u, s -> 2n, t -> 2n+1.
        let mut net = FlowNetwork::new(2 * n + 2);
        for u in 0..n {
            if g.out_degree(u) > 0 {
                net.add_edge(u, n + u, 1);
            }
        }
        for (u, w) in g.edges() {
            net.add_edge(n + u, w, INF); // penalty gadget reaches the child
            net.add_edge(w, u, INF); // down-closure implication
        }
        let pins = (0..n)
            .map(|u| (net.add_edge(2 * n, u, 0), net.add_edge(u, 2 * n + 1, 0)))
            .collect();
        SweepNetwork { g, net, pins }
    }

    fn cut(&mut self, v: usize) -> u64 {
        let desc = self.g.descendants(v);
        if desc.is_empty() {
            return 0;
        }
        let mut anc = self.g.ancestors(v);
        anc.push(v);
        self.arm(&anc, &desc, INF);
        let n = self.g.n();
        let cap = if n > HUGE_SWEEP_CUTOFF {
            HUGE_FLOW_CAP
        } else {
            u64::MAX
        };
        let flow = self.net.max_flow_capped(2 * n, 2 * n + 1, cap);
        self.net.reset();
        self.arm(&anc, &desc, 0);
        flow
    }

    fn arm(&mut self, sources: &[usize], sinks: &[usize], cap: u64) {
        for &a in sources {
            self.net.set_capacity(self.pins[a].0, cap);
        }
        for &d in sinks {
            self.net.set_capacity(self.pins[d].1, cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::generators::{
        bhk_hypercube, fft_butterfly, inner_product, naive_matmul, path_dag,
    };

    /// `C(v)` on a network built for `v` alone, its pins added as plain
    /// arcs.
    fn fresh_network_cut(g: &CompGraph, v: usize) -> u64 {
        let desc = g.descendants(v);
        if desc.is_empty() {
            return 0;
        }
        let n = g.n();
        let (s, t) = (2 * n, 2 * n + 1);
        let mut net = FlowNetwork::new(2 * n + 2);
        for u in 0..n {
            if g.out_degree(u) > 0 {
                net.add_edge(u, n + u, 1);
            }
        }
        for (u, w) in g.edges() {
            net.add_edge(n + u, w, INF);
            net.add_edge(w, u, INF);
        }
        for a in g.ancestors(v).into_iter().chain([v]) {
            net.add_edge(s, a, INF);
        }
        for d in desc {
            net.add_edge(d, t, INF);
        }
        net.max_flow(s, t)
    }

    #[test]
    fn rearmed_network_matches_a_fresh_one() {
        use graphio_graph::generators::{erdos_renyi_dag, layered_random_dag};
        let mut graphs = vec![fft_butterfly(3), bhk_hypercube(4), naive_matmul(2)];
        graphs.extend((0..6).map(|seed| erdos_renyi_dag(30, 0.15, seed)));
        graphs.extend((0..6).map(|seed| layered_random_dag(4, 5, 0.5, seed)));
        for g in &graphs {
            // One network re-armed across the whole sweep.
            let mut net = SweepNetwork::new(g);
            for v in 0..g.n() {
                assert_eq!(net.cut(v), fresh_network_cut(g, v), "v={v}");
            }
        }
    }

    #[test]
    fn paths_have_unit_cuts() {
        let g = path_dag(10);
        // Any interior vertex separates the chain with wavefront 1.
        for v in 0..9 {
            assert_eq!(wavefront_cut(&g, v), 1, "v={v}");
        }
        // The sink has no descendants.
        assert_eq!(wavefront_cut(&g, 9), 0);
    }

    #[test]
    fn naive_matmul_is_trivial() {
        // The paper reports the convex min-cut baseline is trivial on the
        // naive matmul graph: wavefronts localize to a handful of values
        // (the fan-in of one product), so C(v) stays O(1) and any
        // realistic M swallows the bound.
        for n in [2usize, 3, 4] {
            let g = naive_matmul(n);
            let r = convex_min_cut_bound(&g, 0, &ConvexMinCutOptions::default());
            assert!(r.max_cut <= 4, "n={n}: max_cut={}", r.max_cut);
            let r_m4 = convex_min_cut_bound(&g, 4, &ConvexMinCutOptions::default());
            assert_eq!(r_m4.bound, 0, "n={n}");
        }
    }

    #[test]
    fn inner_product_cut_values() {
        let g = inner_product(2);
        // Products: ancestors are 2 inputs; the only descendant is the
        // sum, fed through the product itself... and through nothing else:
        // C = 1.
        assert_eq!(wavefront_cut(&g, 4), 1);
        // Inputs: single path to the sum through one product: C = 1.
        assert_eq!(wavefront_cut(&g, 0), 1);
        // Sum: no descendants.
        assert_eq!(wavefront_cut(&g, 6), 0);
    }

    #[test]
    fn fft_middle_vertices_have_growing_cuts() {
        // Butterfly mixing gives mid-graph vertices wavefronts that grow
        // with l — the reconstruction must be non-trivial on FFT.
        let c4 = {
            let g = fft_butterfly(4);
            convex_min_cut_bound(&g, 0, &ConvexMinCutOptions::default()).max_cut
        };
        let c6 = {
            let g = fft_butterfly(6);
            convex_min_cut_bound(&g, 0, &ConvexMinCutOptions::default()).max_cut
        };
        assert!(c4 >= 4, "c4={c4}");
        assert!(c6 > c4, "c6={c6} c4={c4}");
    }

    #[test]
    fn hypercube_cut_scales_with_dimension() {
        let c3 = {
            let g = bhk_hypercube(3);
            convex_min_cut_bound(&g, 0, &ConvexMinCutOptions::default()).max_cut
        };
        let c5 = {
            let g = bhk_hypercube(5);
            convex_min_cut_bound(&g, 0, &ConvexMinCutOptions::default()).max_cut
        };
        assert!(c5 > c3, "c5={c5} c3={c3}");
    }

    #[test]
    fn bound_is_linear_in_memory() {
        let g = fft_butterfly(5);
        let r0 = convex_min_cut_bound(&g, 0, &ConvexMinCutOptions::default());
        let r2 = convex_min_cut_bound(&g, 2, &ConvexMinCutOptions::default());
        let r4 = convex_min_cut_bound(&g, 4, &ConvexMinCutOptions::default());
        assert_eq!(r0.bound - r2.bound, 4);
        assert_eq!(r2.bound - r4.bound, 4);
    }

    #[test]
    fn sampling_is_a_sound_relaxation() {
        let g = fft_butterfly(5);
        let full = convex_min_cut_bound(&g, 2, &ConvexMinCutOptions::default());
        let sampled = convex_min_cut_bound(
            &g,
            2,
            &ConvexMinCutOptions {
                sweep: VertexSweep::Sample { count: 3, seed: 3 },
                ..Default::default()
            },
        );
        assert!(sampled.bound <= full.bound);
        // fft(5) has 6 classes (one per level); 3 of them are sampled.
        assert_eq!(full.vertices_evaluated, 6);
        assert_eq!(sampled.vertices_evaluated, 3);
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let g = bhk_hypercube(4);
        let serial = convex_min_cut_bound(
            &g,
            1,
            &ConvexMinCutOptions {
                threads: 1,
                sweep: VertexSweep::All,
            },
        );
        let parallel = convex_min_cut_bound(
            &g,
            1,
            &ConvexMinCutOptions {
                threads: 4,
                sweep: VertexSweep::All,
            },
        );
        assert_eq!(serial.bound, parallel.bound);
        assert_eq!(serial.max_cut, parallel.max_cut);
    }

    #[test]
    fn empty_graph() {
        let g = graphio_graph::GraphBuilder::new().build().unwrap();
        let r = convex_min_cut_bound(&g, 4, &ConvexMinCutOptions::default());
        assert_eq!(r.bound, 0);
    }
}
