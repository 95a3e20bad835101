//! Canonical structural fingerprints of computation graphs.
//!
//! The analysis service caches one expensive spectral session per graph, so
//! it needs a cache key that (a) is identical for structurally identical
//! graphs regardless of how their vertices happen to be numbered, and
//! (b) collides between *different* graphs only with hash-negligible
//! probability. [`fingerprint`] delivers both with Weisfeiler–Leman color
//! refinement over the CSR adjacency:
//!
//! 1. every vertex starts with a color derived from its operation, its
//!    in/out degree, and its exact longest-path depth from the sources
//!    and height to the sinks (global attributes that catch long-range
//!    differences the bounded refinement below cannot reach),
//! 2. each round re-colors every vertex from its own color plus the
//!    *sorted multisets* of its parents' and children's colors (sorting
//!    makes the round independent of edge order; multisets preserve
//!    parallel edges),
//! 3. after `O(log n)` rounds the fingerprint is a hash of the sorted
//!    final color multiset together with the vertex and edge counts.
//!
//! [`wl_classes`] runs the same refinement until the partition is stable
//! and returns the vertex classes; the convex min-cut baseline evaluates
//! one vertex per class.
//!
//! Every ingredient is a set or sorted multiset, so any relabeling
//! `π: V → V` maps each vertex to the same color sequence and the whole
//! graph to the same [`Fingerprint`]. The converse (fingerprint-equal ⇒
//! structurally equal) holds up to 128-bit hash collisions and the usual
//! WL limits; for the op-labeled, degree-diverse DAGs this workspace
//! analyzes, refinement separates non-isomorphic graphs in practice (this
//! is property-tested against the spectral bounds in `tests/fingerprint.rs`
//! at the workspace root).

use crate::dag::CompGraph;
use crate::ops::OpKind;
use std::collections::HashMap;
use std::fmt;

/// A 128-bit order-independent structural hash of a [`CompGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Lowercase fixed-width hex form (32 digits), the service's wire
    /// format.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the form produced by [`Fingerprint::to_hex`] — exactly 32
    /// lowercase hex digits; non-canonical spellings (uppercase, signs)
    /// are rejected so each fingerprint has one wire form.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        (s.len() == 32 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .then(|| u128::from_str_radix(s, 16).ok())
            .flatten()
            .map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// SplitMix64 finalizer — the mixing primitive for one 64-bit lane.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A vertex color: two independently seeded 64-bit lanes, so the combined
/// fingerprint behaves like a 128-bit hash rather than a 64-bit one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Color(u64, u64);

const LANE0: u64 = 0x8C3F_27A1_5E94_D6B7;
const LANE1: u64 = 0x243F_6A88_85A3_08D3;

impl Color {
    fn seed(tag: u64) -> Color {
        Color(mix(tag ^ LANE0), mix(tag ^ LANE1))
    }

    fn absorb(&mut self, other: Color) {
        self.0 = mix(self.0 ^ other.0.rotate_left(17));
        self.1 = mix(self.1 ^ other.1.rotate_left(29));
    }

    fn absorb_u64(&mut self, v: u64) {
        self.absorb(Color(mix(v ^ LANE0), mix(v ^ LANE1)));
    }
}

/// Stable numeric tag for an operation (relabeling-independent by
/// construction: it depends only on the op itself).
fn op_tag(op: OpKind) -> u64 {
    match op {
        OpKind::Input => 1,
        OpKind::Add => 2,
        OpKind::Sub => 3,
        OpKind::Mul => 4,
        OpKind::Div => 5,
        OpKind::Sum => 6,
        OpKind::Butterfly => 7,
        OpKind::BhkUpdate => 8,
        OpKind::Custom(tag) => 0x100 + tag as u64,
    }
}

/// Longest-path distance of every vertex from the sources (`forward`) or
/// to the sinks (`!forward`), in O(n + m) over a topological sweep. A
/// relabeling-invariant *global* vertex attribute: WL refinement below
/// only propagates information `rounds` hops, so without it two graphs
/// differing only in how long-range path structure is distributed (e.g.
/// chain components of lengths 100+900 vs 500+500) could collide.
fn longest_path_depths(g: &CompGraph, forward: bool) -> Vec<u64> {
    let n = g.n();
    let mut depth = vec![0u64; n];
    let mut indeg: Vec<usize> = (0..n)
        .map(|v| {
            if forward {
                g.in_degree(v)
            } else {
                g.out_degree(v)
            }
        })
        .collect();
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    while let Some(v) = queue.pop() {
        let next = if forward { g.children(v) } else { g.parents(v) };
        for &w in next {
            let w = w as usize;
            depth[w] = depth[w].max(depth[v] + 1);
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    depth
}

/// How long [`refine`] runs.
#[derive(Debug, Clone, Copy)]
enum Rounds {
    /// Exactly this many rounds.
    Fixed(usize),
    /// Until a round splits no class (the stable coloring).
    UntilStable,
}

/// Weisfeiler–Leman color refinement (steps 1–2 of the module docs):
/// round-0 colors from op, degrees and longest-path depth/height, then
/// rounds that re-color every vertex from its own color plus the sorted
/// multisets of its parents' and children's colors.
///
/// Each new color hashes the old one, so a round can only split classes;
/// once a round leaves the class count unchanged the partition is stable
/// and every later round would leave it unchanged too. `UntilStable`
/// therefore ends after at most `n` rounds.
fn refine(g: &CompGraph, rounds: Rounds) -> Vec<Color> {
    let n = g.n();
    let depths = longest_path_depths(g, true);
    let heights = longest_path_depths(g, false);
    let mut colors: Vec<Color> = (0..n)
        .map(|v| {
            let mut c = Color::seed(op_tag(g.op(v)));
            c.absorb_u64(g.in_degree(v) as u64);
            c.absorb_u64(g.out_degree(v) as u64);
            c.absorb_u64(depths[v]);
            c.absorb_u64(heights[v]);
            c
        })
        .collect();
    let count_classes = |colors: &[Color]| {
        let mut sorted = colors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    };
    let (limit, mut classes) = match rounds {
        Rounds::Fixed(limit) => (limit, 0),
        Rounds::UntilStable => (usize::MAX, count_classes(&colors)),
    };

    let mut next = colors.clone();
    let mut scratch: Vec<Color> = Vec::new();
    for _ in 0..limit {
        for v in 0..n {
            let mut c = colors[v];
            c.absorb_u64(0x5ca1ab1e); // domain-separate self from neighbors
            for (side, nbrs) in [(0x0au64, g.parents(v)), (0x0bu64, g.children(v))] {
                scratch.clear();
                scratch.extend(nbrs.iter().map(|&u| colors[u as usize]));
                scratch.sort_unstable();
                c.absorb_u64(side);
                for &nc in &scratch {
                    c.absorb(nc);
                }
            }
            next[v] = c;
        }
        std::mem::swap(&mut colors, &mut next);
        if let Rounds::UntilStable = rounds {
            let refined = count_classes(&colors);
            if refined == classes {
                break;
            }
            classes = refined;
        }
    }
    colors
}

/// The stable Weisfeiler–Leman partition of `g`'s vertices: `classes[v]`
/// is `v`'s class, numbered in order of first appearance, so class `c`'s
/// smallest vertex is the `c`-th vertex to open a new class.
///
/// Vertices in one automorphism orbit always share a class (refinement is
/// relabeling-invariant). The converse can fail in general: a class may
/// merge several orbits.
pub fn wl_classes(g: &CompGraph) -> Vec<u32> {
    let mut ids: HashMap<Color, u32> = HashMap::new();
    refine(g, Rounds::UntilStable)
        .into_iter()
        .map(|c| {
            let next = ids.len() as u32;
            *ids.entry(c).or_insert(next)
        })
        .collect()
}

/// Computes the canonical structural fingerprint of `g` (see module docs).
pub fn fingerprint(g: &CompGraph) -> Fingerprint {
    let n = g.n();
    // O(log n) refinement rounds: enough for the neighborhood signature of
    // every vertex to reach across the graphs' typical diameters while
    // keeping fingerprinting O((n + m) log n).
    let rounds = usize::BITS as usize - n.leading_zeros() as usize + 2;
    let mut colors = refine(g, Rounds::Fixed(rounds));

    // The fingerprint is the hash of the sorted color multiset plus the
    // global counts, so vertex order never matters.
    colors.sort_unstable();
    let mut acc = Color::seed(0x6f70_5f67_7261_7068); // "op_graph"
    acc.absorb_u64(n as u64);
    acc.absorb_u64(g.num_edges() as u64);
    for &c in &colors {
        acc.absorb(c);
    }
    Fingerprint(((acc.0 as u128) << 64) | acc.1 as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{EdgeListGraph, GraphBuilder};
    use crate::generators::{diamond_dag, fft_butterfly, naive_matmul};

    /// Rebuilds `g` with vertices renamed by `perm[v]`.
    fn relabel(g: &CompGraph, perm: &[u32]) -> CompGraph {
        let mut ops = vec![OpKind::Input; g.n()];
        for v in 0..g.n() {
            ops[perm[v] as usize] = g.op(v);
        }
        let edges = g
            .edges()
            .map(|(u, v)| (perm[u], perm[v]))
            .collect::<Vec<_>>();
        CompGraph::try_from(EdgeListGraph { ops, edges }).unwrap()
    }

    #[test]
    fn hex_roundtrips() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 32);
        assert!(Fingerprint::from_hex("xyz").is_none());
        assert!(Fingerprint::from_hex("00").is_none());
        // Only the canonical spelling is accepted.
        assert!(Fingerprint::from_hex("+00000000000000000000000000000ff").is_none());
        assert!(Fingerprint::from_hex("000000000000000000000000000000FF").is_none());
    }

    #[test]
    fn identical_graphs_agree_and_families_differ() {
        let a = fft_butterfly(4);
        let b = fft_butterfly(4);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&fft_butterfly(5)));
        assert_ne!(fingerprint(&a), fingerprint(&naive_matmul(3)));
        assert_ne!(fingerprint(&a), fingerprint(&diamond_dag(4, 4)));
    }

    #[test]
    fn relabeling_preserves_the_fingerprint() {
        let g = naive_matmul(3);
        let n = g.n() as u32;
        // A fixed but thorough permutation: reversal plus a coprime stride.
        let perm: Vec<u32> = (0..n).map(|v| (v.wrapping_mul(31) + 7) % n).collect();
        let mut seen = vec![false; n as usize];
        for &p in &perm {
            assert!(!std::mem::replace(&mut seen[p as usize], true));
        }
        let h = relabel(&g, &perm);
        assert_eq!(fingerprint(&g), fingerprint(&h));
        let rev: Vec<u32> = (0..n).rev().collect();
        assert_eq!(fingerprint(&g), fingerprint(&relabel(&g, &rev)));
    }

    #[test]
    fn edge_direction_and_ops_matter() {
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let y = b.add_vertex(OpKind::Add);
        b.add_edge(x, y);
        let g1 = b.build().unwrap();

        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Add);
        let y = b.add_vertex(OpKind::Input);
        b.add_edge(x, y);
        let g2 = b.build().unwrap();
        // Same shape, ops swapped across the edge.
        assert_ne!(fingerprint(&g1), fingerprint(&g2));

        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let y = b.add_vertex(OpKind::Add);
        b.add_edge(x, y);
        b.add_edge(x, y);
        let g3 = b.build().unwrap();
        // Parallel edges are part of the structure.
        assert_ne!(fingerprint(&g1), fingerprint(&g3));
    }

    /// A directed chain of `Add` vertices with an `Input` head.
    fn chain(b: &mut GraphBuilder, len: usize) {
        let mut prev = b.add_vertex(OpKind::Input);
        for _ in 1..len {
            let next = b.add_vertex(OpKind::Add);
            b.add_edge(prev, next);
            prev = next;
        }
    }

    #[test]
    fn long_range_component_structure_is_distinguished() {
        // Same n, m, ops and degree multisets; the difference (how total
        // path length splits across components) sits hundreds of hops
        // from every chain end — beyond any bounded WL radius. The
        // longest-path seeding must separate them.
        let mut b = GraphBuilder::new();
        chain(&mut b, 100);
        chain(&mut b, 900);
        let uneven = b.build().unwrap();
        let mut b = GraphBuilder::new();
        chain(&mut b, 500);
        chain(&mut b, 500);
        let even = b.build().unwrap();
        assert_eq!(uneven.n(), even.n());
        assert_eq!(uneven.num_edges(), even.num_edges());
        assert_ne!(fingerprint(&uneven), fingerprint(&even));
    }

    #[test]
    fn wl_classes_are_the_butterfly_levels() {
        for l in 2..=6 {
            let g = fft_butterfly(l);
            let classes = wl_classes(&g);
            let width = g.n() / (l + 1);
            // Vertices are laid out level by level, so class ids count up
            // one per level in first-appearance order.
            let expected: Vec<u32> = (0..g.n()).map(|v| (v / width) as u32).collect();
            assert_eq!(classes, expected, "l={l}");
        }
    }

    #[test]
    fn wl_classes_are_relabeling_invariant() {
        let g = naive_matmul(3);
        let n = g.n() as u32;
        let perm: Vec<u32> = (0..n).map(|v| (v.wrapping_mul(31) + 7) % n).collect();
        let h = relabel(&g, &perm);
        let (a, b) = (wl_classes(&g), wl_classes(&h));
        // Same partition, moved by the relabeling.
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(
                    a[u] == a[v],
                    b[perm[u] as usize] == b[perm[v] as usize],
                    "u={u} v={v}"
                );
            }
        }
        assert!(wl_classes(&GraphBuilder::new().build().unwrap()).is_empty());
    }

    #[test]
    fn empty_graph_is_fingerprintable() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(
            fingerprint(&g),
            fingerprint(&GraphBuilder::new().build().unwrap())
        );
    }
}
