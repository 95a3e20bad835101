//! Lanczos iteration with full re-orthogonalization and eigenvector
//! deflation ("locking") for the `h` smallest eigenvalues of a symmetric
//! operator — *with multiplicity*.
//!
//! Why deflation: graph Laplacians of the structured graphs in the paper
//! (hypercubes, butterflies) have eigenvalues of enormous multiplicity, and
//! a single Krylov subspace can represent at most one Ritz pair per distinct
//! eigenvalue. The spectral bound of Theorem 4 sums the `k` smallest
//! eigenvalues *counting multiplicity*, so we must recover copies. Each
//! sweep locks converged Ritz pairs, then the next restarts against the
//! orthogonal complement of everything locked; repeated eigenvalues
//! re-appear in later sweeps until their eigenspaces are exhausted.
//!
//! The smallest eigenvalues of `A` are obtained as the *largest* of
//! `σI − A` (σ = Gershgorin or power-iteration bound), where Lanczos
//! converges fastest. Cost is `O(matvecs · nnz + m²n)` per sweep, matching
//! the `O(hn²)` scalability claim of the paper's §6.5.
//!
//! Four rules keep the sweep count and the per-step cost down without
//! weakening what a returned value means (a Ritz value whose residual
//! `‖Ay − θy‖` is within `tol · scale`):
//!
//! * **Stop at numerical invariance.** A sweep ends as soon as `β_j` is
//!   within that tolerance. Every Ritz residual is `β_j·|z_{j,i}| ≤ β_j`,
//!   so *every* pair of the sweep passes the test that accepts a pair
//!   anywhere else. Running on would only add Krylov vectors built from
//!   rounding noise, whose spurious Ritz values interleave the converged
//!   ones.
//! * **Lock every wanted pair.** Every converged pair whose value can
//!   still be among the `h` smallest is locked, not only the converged
//!   run at the bottom; when more than `h` are locked the largest (by
//!   count, so at most `h` vectors are ever held) is evicted back into
//!   the complement. Skipped or evicted eigenvalues are not lost: they
//!   stay in the deflated operator, where the stop certificate sees them.
//! * **Stop certificate.** The solver returns only after a sweep whose
//!   top Ritz pair is converged and lies at or above the `h`-th locked
//!   value: nothing smaller than the locked set remains in the deflated
//!   operator, so the `h` locked values are the `h` smallest, with
//!   multiplicity.
//! * **DGKS re-orthogonalization.** Each new Krylov vector gets one
//!   classical Gram–Schmidt pass against the locked and basis vectors, and
//!   a second only when the first cancelled more than `1 − 1/√2` of its
//!   norm (Daniel–Gragg–Kaufman–Stewart, η = 1/√2 as in ARPACK): without
//!   heavy cancellation one pass already leaves the vector orthogonal to
//!   working precision, and with it two passes do ("twice is enough").
//!   The passes run on the fused `dot4`/`axpy4` kernels, bit-identical to
//!   the single-vector ones.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::linop::{LinOp, ShiftedNegated};
use crate::power::power_iteration;
use crate::tridiag::tql_in_place;
use crate::vecops::{
    axpy, axpy_sum, dot, norm2, normalize, orthogonalize_against, orthogonalize_against_parallel,
    scal,
};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for [`smallest_eigenvalues`].
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Lanczos steps per sweep (the Krylov subspace dimension). Doubled
    /// automatically (up to the operator dimension) when a sweep locks
    /// nothing.
    pub subspace: usize,
    /// Relative residual tolerance for accepting a Ritz pair
    /// (`‖Av − θv‖ ≤ tol · scale`).
    pub tol: f64,
    /// Maximum number of restart sweeps before giving up.
    pub max_sweeps: usize,
    /// RNG seed for start vectors (results are deterministic given a seed).
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            subspace: 96,
            tol: 1e-9,
            max_sweeps: 512,
            seed: 0x5eed,
        }
    }
}

/// Above this operator dimension the deflated solver bounds its CGS
/// re-orthogonalization window (full re-orthogonalization is O(m²n) per
/// sweep, which dominates everything else at scale).
const BOUNDED_REORTH_MIN_N: usize = 1 << 18;

/// CGS window for [`smallest_eigenvalues`] at dimension `n` — derived
/// from `n` alone (never an option) so a given operator always reduces
/// the same way and cache keys stay exact.
fn reorth_window_for(n: usize) -> usize {
    if n >= BOUNDED_REORTH_MIN_N {
        32
    } else {
        usize::MAX
    }
}

/// Options for [`extreme_ritz_values`] — the fixed-cost single-sweep path
/// the huge-`n` scale tier uses.
#[derive(Debug, Clone)]
pub struct RitzSweepOptions {
    /// Lanczos steps (= Krylov dimension = the exact mat-vec budget).
    pub steps: usize,
    /// CGS2 re-orthogonalization window: each new basis vector is
    /// orthogonalized (two passes) against only the trailing `window`
    /// basis vectors.
    pub reorth_window: usize,
    /// RNG seed for the start vector.
    pub seed: u64,
}

impl Default for RitzSweepOptions {
    fn default() -> Self {
        RitzSweepOptions {
            steps: 96,
            reorth_window: 16,
            seed: 0x5eed,
        }
    }
}

/// Estimates the `h` smallest eigenvalues of `op` from a **single**
/// bounded-window Lanczos sweep: `steps` mat-vecs, then the top `h` Ritz
/// values of the shifted operator, unshifted and sorted ascending.
///
/// This is the huge-`n` scale tier's solver. Unlike
/// [`smallest_eigenvalues`] it never restarts, never widens the subspace,
/// and does not verify multiplicities — its cost is exactly
/// `steps · (matvec + O(window · n))`, deterministic for a given seed.
/// The returned values are Ritz *estimates*: each is an upper bound on
/// the correspondingly-indexed true eigenvalue (Cauchy interlacing), with
/// error governed by the Kaniel–Paige convergence theory rather than a
/// residual tolerance, and repeated eigenvalues are represented once per
/// Krylov subspace. Callers that need certified values at this scale must
/// pay for the deflated solver instead.
///
/// # Errors
/// * [`LinalgError::TooManyEigenvaluesRequested`] if `h > op.dim()`.
pub fn extreme_ritz_values<A: LinOp + ?Sized>(
    op: &A,
    h: usize,
    opts: &RitzSweepOptions,
) -> Result<LanczosResult> {
    let _span = graphio_obs::span!("ritz_sweep");
    let n = op.dim();
    if h > n {
        return Err(LinalgError::TooManyEigenvaluesRequested {
            requested: h,
            dimension: n,
        });
    }
    if h == 0 || n == 0 {
        return Ok(LanczosResult {
            values: Vec::new(),
            sweeps: 0,
            matvecs: 0,
            converged: true,
        });
    }
    let mut matvecs = 0usize;
    let sigma = match op.eigen_upper_bound() {
        Some(s) => s,
        None => {
            let p = power_iteration(op, 2000, 1e-10, 0xacc0)?;
            matvecs += p.iterations;
            p.value.abs() * 1.05 + 1e-9
        }
    };
    let shifted = ShiftedNegated::new(op, sigma);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut v0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    normalize(&mut v0);
    let steps = opts.steps.clamp(h, n);
    let rule = SweepRule {
        window: opts.reorth_window.max(2),
        stop_tol: 0.0,
        dgks: false,
    };
    let sweep = lanczos_sweep(&shifted, v0, steps, &[], &rule, &mut matvecs);
    let analysis = RitzAnalysis::of(&sweep)?;
    let m = analysis.theta.len();
    let take = h.min(m);
    // Top of the shifted spectrum = bottom of the original.
    let mut values: Vec<f64> = analysis.theta[m - take..]
        .iter()
        .map(|&t| shifted.unshift(t))
        .collect();
    values.sort_by(f64::total_cmp);
    Ok(LanczosResult {
        values,
        sweeps: 1,
        matvecs,
        converged: true,
    })
}

/// Outcome of [`smallest_eigenvalues`].
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// The locked eigenvalues of the original operator, sorted ascending.
    /// Contains exactly `h` values when `converged` is true.
    pub values: Vec<f64>,
    /// Restart sweeps performed.
    pub sweeps: usize,
    /// Operator applications performed.
    pub matvecs: usize,
    /// Whether all `h` requested eigenvalues were locked.
    pub converged: bool,
}

/// Computes the `h` smallest eigenvalues (ascending, with multiplicity) of
/// the symmetric operator `op`.
///
/// # Errors
/// * [`LinalgError::TooManyEigenvaluesRequested`] if `h > op.dim()`.
/// * [`LinalgError::NoConvergence`] if the sweep budget is exhausted before
///   `h` eigenpairs are locked.
pub fn smallest_eigenvalues<A: LinOp + ?Sized>(
    op: &A,
    h: usize,
    opts: &LanczosOptions,
) -> Result<LanczosResult> {
    let _span = graphio_obs::span!("lanczos");
    let n = op.dim();
    if h > n {
        return Err(LinalgError::TooManyEigenvaluesRequested {
            requested: h,
            dimension: n,
        });
    }
    if h == 0 || n == 0 {
        return Ok(LanczosResult {
            values: Vec::new(),
            sweeps: 0,
            matvecs: 0,
            converged: true,
        });
    }

    let mut matvecs = 0usize;
    // Spectral shift so the target eigenvalues become dominant.
    let sigma = match op.eigen_upper_bound() {
        Some(s) => s,
        None => {
            let p = power_iteration(op, 2000, 1e-10, 0xacc0)?;
            matvecs += p.iterations;
            // Dominant-in-magnitude estimate, inflated for safety.
            p.value.abs() * 1.05 + 1e-9
        }
    };
    let scale = sigma.abs().max(1.0);
    let tol = opts.tol * scale;
    let shifted = ShiftedNegated::new(op, sigma);

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut locked = Locked::default();
    let mut sweeps = 0usize;
    let mut subspace = opts.subspace.clamp(2, n);
    // `locked.len() == h` alone is NOT a sound stop: each sweep finds at
    // most one copy of each distinct eigenvalue, so with high-multiplicity
    // spectra the locked set can contain deep eigenvalues while copies of
    // shallow ones are still un-locked. We therefore also require
    // verification: a sweep whose *top* Ritz pair is converged and lies at
    // or above the h-th smallest locked value proves nothing smaller
    // remains in the deflated operator.
    let mut verified = false;
    let slack = 8.0 * tol + 1e-12;
    let rule = SweepRule {
        window: reorth_window_for(n),
        stop_tol: tol,
        dgks: true,
    };

    while sweeps < opts.max_sweeps {
        if locked.len() == n {
            verified = true;
        }
        if locked.len() == h && verified {
            break;
        }
        sweeps += 1;
        let budget = subspace.min(n - locked.len());
        let Some(v0) = random_orthogonal_start(n, &locked.vecs, &mut rng) else {
            // The complement of the locked space is numerically exhausted.
            verified = true;
            break;
        };
        let sweep = lanczos_sweep(&shifted, v0, budget, &locked.vecs, &rule, &mut matvecs);
        let analysis = RitzAnalysis::of(&sweep)?;
        if locked.len() == h {
            if let Some(remaining_min) = analysis.top_converged_value(tol, &shifted) {
                if remaining_min >= locked.largest() - slack {
                    verified = true;
                    break;
                }
            }
        }
        let newly = lock_converged(&sweep, &analysis, tol, slack, &shifted, h, &mut locked);
        if newly == 0 {
            // Stagnation: widen the Krylov subspace (up to n) and try again.
            subspace = (subspace * 2).min(n);
        }
    }

    let converged = locked.len() == h && verified;
    if !converged {
        return Err(LinalgError::NoConvergence {
            algorithm: "deflated Lanczos",
            iterations: sweeps,
        });
    }
    let mut values = locked.vals;
    values.sort_by(f64::total_cmp);
    Ok(LanczosResult {
        values,
        sweeps,
        matvecs,
        converged,
    })
}

/// The locked eigenpairs, in locking order: at most `h` of them, because
/// [`Locked::push`] evicts the largest value on overflow.
#[derive(Default)]
struct Locked {
    vecs: Vec<Vec<f64>>,
    vals: Vec<f64>,
}

impl Locked {
    fn len(&self) -> usize {
        self.vals.len()
    }

    /// The largest locked value (the h-th smallest once `h` are locked).
    fn largest(&self) -> f64 {
        self.vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Locks `(vec, val)`, then, if more than `h` are held, evicts the
    /// largest value (the latest locked among equals).
    fn push(&mut self, vec: Vec<f64>, val: f64, h: usize) {
        self.vecs.push(vec);
        self.vals.push(val);
        if self.len() > h {
            let (evict, _) = self
                .vals
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("more than h >= 0 values are held");
            self.vecs.remove(evict);
            self.vals.remove(evict);
        }
    }
}

/// How one sweep ends and re-orthogonalizes.
struct SweepRule {
    /// CGS window: each new basis vector is orthogonalized against the
    /// trailing `window` basis vectors (and every locked vector).
    window: usize,
    /// The sweep ends once `β_j ≤ stop_tol` (or falls to rounding level).
    stop_tol: f64,
    /// Second CGS pass only when the DGKS test asks; otherwise always two.
    dgks: bool,
}

/// DGKS threshold: a first Gram–Schmidt pass that keeps at least this
/// fraction of the vector's norm needs no second pass.
const DGKS_ETA: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Raw output of one Lanczos sweep.
struct Sweep {
    /// Orthonormal Krylov basis vectors `v_0..v_{m-1}`.
    basis: Vec<Vec<f64>>,
    /// Diagonal of the Lanczos tridiagonal matrix.
    alphas: Vec<f64>,
    /// Off-diagonal (`betas[j]` couples steps `j` and `j+1`); the final
    /// entry is the residual norm used in convergence estimates.
    betas: Vec<f64>,
    /// Whether the sweep ended with `β` within its stop tolerance: the
    /// subspace is invariant to that tolerance, and so is every Ritz
    /// residual (`β·|z_{m,i}| ≤ β`).
    invariant: bool,
}

fn lanczos_sweep<A: LinOp + ?Sized>(
    op: &A,
    v0: Vec<f64>,
    budget: usize,
    locked: &[Vec<f64>],
    rule: &SweepRule,
    matvecs: &mut usize,
) -> Sweep {
    let n = v0.len();
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(budget);
    let mut alphas: Vec<f64> = Vec::with_capacity(budget);
    let mut betas: Vec<f64> = Vec::with_capacity(budget);
    let mut v = v0;
    let mut w = vec![0.0; n];
    let mut invariant = false;
    let threads = crate::threads::effective_threads();

    for j in 0..budget {
        basis.push(v.clone());
        op.apply(&v, &mut w);
        *matvecs += 1;
        let alpha = dot(&w, &v);
        alphas.push(alpha);
        axpy(-alpha, &v, &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            axpy(-beta_prev, &basis[j - 1], &mut w);
        }
        // Classical Gram–Schmidt re-orthogonalization: one pass, and a
        // second where the DGKS test (or the rule) asks. This O(m·n) step
        // is the Lanczos bottleneck on large graphs — which is why huge
        // operators bound the window to the trailing basis vectors (locked
        // vectors are always swept in full; there are at most `h`).
        let w0 = basis.len().saturating_sub(rule.window);
        let before = if rule.dgks { norm2(&w) } else { 0.0 };
        orthogonalize_against_parallel(&mut w, locked, threads);
        orthogonalize_against_parallel(&mut w, &basis[w0..], threads);
        let mut beta = norm2(&w);
        if !rule.dgks || beta < DGKS_ETA * before {
            crate::stats::record_reorth_second_pass();
            orthogonalize_against_parallel(&mut w, locked, threads);
            orthogonalize_against_parallel(&mut w, &basis[w0..], threads);
            beta = norm2(&w);
        }
        betas.push(beta);
        if beta <= rule.stop_tol.max(f64::EPSILON * 64.0 * (1.0 + alpha.abs())) {
            invariant = true;
            break;
        }
        scal(1.0 / beta, &mut w);
        std::mem::swap(&mut v, &mut w);
    }
    crate::stats::record_lanczos_sweep(alphas.len());
    Sweep {
        basis,
        alphas,
        betas,
        invariant,
    }
}

/// Ritz data extracted from a sweep's tridiagonal matrix.
struct RitzAnalysis {
    /// Ritz values of the shifted operator, ascending (index `m-1` is the
    /// top of the shifted spectrum = bottom of the original spectrum).
    theta: Vec<f64>,
    /// Eigenvectors of the tridiagonal matrix (columns match `theta`).
    z: DenseMatrix,
    /// Final off-diagonal entry (0 when the subspace is invariant).
    beta_last: f64,
    /// Whether the sweep hit an invariant subspace (all pairs converged).
    invariant: bool,
}

impl RitzAnalysis {
    fn of(sweep: &Sweep) -> Result<Self> {
        let m = sweep.alphas.len();
        let mut d = sweep.alphas.clone();
        let mut e = vec![0.0; m];
        if m > 1 {
            e[1..m].copy_from_slice(&sweep.betas[..m - 1]);
        }
        let mut z = DenseMatrix::identity(m);
        tql_in_place(&mut d, &mut e, Some(&mut z))?;
        let beta_last = if sweep.invariant || m == 0 {
            0.0
        } else {
            sweep.betas[m - 1]
        };
        Ok(RitzAnalysis {
            theta: d,
            z,
            beta_last,
            invariant: sweep.invariant,
        })
    }

    /// Whether Ritz pair `idx` passes the residual test
    /// `‖Ay − θy‖ = β_last·|z_{m,idx}| ≤ tol`.
    fn converged(&self, idx: usize, tol: f64) -> bool {
        let m = self.theta.len();
        self.invariant || (self.beta_last * self.z[(m - 1, idx)]).abs() <= tol
    }

    /// If the top Ritz pair is converged, the smallest eigenvalue of the
    /// deflated *original* operator (within tolerance); `None` otherwise.
    fn top_converged_value<A: LinOp + ?Sized>(
        &self,
        tol: f64,
        shifted: &ShiftedNegated<'_, A>,
    ) -> Option<f64> {
        let m = self.theta.len();
        if m == 0 {
            return None;
        }
        if self.converged(m - 1, tol) {
            Some(shifted.unshift(self.theta[m - 1]))
        } else {
            None
        }
    }
}

/// Locks every converged Ritz pair whose value can still be among the `h`
/// smallest, bottom of the original spectrum first: while fewer than `h`
/// are locked any converged value qualifies, afterwards only one below the
/// `h`-th locked value by more than `slack` (so values tied with it do
/// not churn), each evicting the largest. Returns the number locked.
fn lock_converged<A: LinOp + ?Sized>(
    sweep: &Sweep,
    analysis: &RitzAnalysis,
    tol: f64,
    slack: f64,
    shifted: &ShiftedNegated<'_, A>,
    h: usize,
    locked: &mut Locked,
) -> usize {
    let m = analysis.theta.len();
    let n = sweep.basis.first().map_or(0, Vec::len);
    let mut coeffs = vec![0.0; m];
    let mut newly = 0usize;
    for idx in (0..m).rev() {
        if !analysis.converged(idx, tol) {
            continue;
        }
        let value = shifted.unshift(analysis.theta[idx]);
        if locked.len() == h && value >= locked.largest() - slack {
            // Values only grow from here on, and the bar only drops.
            break;
        }
        // Assemble the Ritz vector y = V z_idx.
        for (jj, c) in coeffs.iter_mut().enumerate() {
            *c = analysis.z[(jj, idx)];
        }
        let mut y = vec![0.0; n];
        axpy_sum(&coeffs, &sweep.basis, &mut y);
        orthogonalize_against(&mut y, &locked.vecs);
        if normalize(&mut y) < 1e-6 {
            // Numerically dependent on already-locked vectors; skip it.
            continue;
        }
        locked.push(y, value, h);
        newly += 1;
    }
    newly
}

/// Draws a random unit vector orthogonal to `locked`. Returns `None` when
/// the complement appears numerically empty.
fn random_orthogonal_start(n: usize, locked: &[Vec<f64>], rng: &mut StdRng) -> Option<Vec<f64>> {
    for _ in 0..64 {
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        normalize(&mut v);
        for _ in 0..2 {
            orthogonalize_against(&mut v, locked);
        }
        if normalize(&mut v) > 1e-6 {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-parallel array comparisons read clearest
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::symeig::eigenvalues_symmetric;

    /// Laplacian of the boolean hypercube Q_d (eigenvalue 2i with
    /// multiplicity C(d, i)) — the multiplicity stress test.
    fn hypercube_laplacian(d: usize) -> CsrMatrix {
        let n = 1usize << d;
        let mut trips = Vec::new();
        for u in 0..n {
            trips.push((u, u, d as f64));
            for b in 0..d {
                let v = u ^ (1 << b);
                trips.push((u, v, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, &trips).unwrap()
    }

    #[test]
    fn matches_dense_on_random_sparse() {
        let n = 60;
        let mut trips = Vec::new();
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..n {
            trips.push((i, i, 4.0 + rng.gen::<f64>()));
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v = rng.gen::<f64>() - 0.5;
                    trips.push((i, j, v));
                    trips.push((j, i, v));
                }
            }
        }
        let a = CsrMatrix::from_triplets(n, &trips).unwrap();
        let dense_vals = eigenvalues_symmetric(&a.to_dense()).unwrap();
        let h = 12;
        let r = smallest_eigenvalues(&a, h, &LanczosOptions::default()).unwrap();
        assert!(r.converged);
        for i in 0..h {
            assert!(
                (r.values[i] - dense_vals[i]).abs() < 1e-6,
                "i={i}: {} vs {}",
                r.values[i],
                dense_vals[i]
            );
        }
    }

    #[test]
    fn recovers_hypercube_multiplicities() {
        // Q_5: eigenvalues 0 (x1), 2 (x5), 4 (x10), 6 (x10), 8 (x5), 10 (x1).
        let a = hypercube_laplacian(5);
        let h = 16; // 1 + 5 + 10 = 16 -> last value should be 4.
        let r = smallest_eigenvalues(&a, h, &LanczosOptions::default()).unwrap();
        assert!(r.converged);
        assert!(r.values[0].abs() < 1e-7);
        for i in 1..6 {
            assert!((r.values[i] - 2.0).abs() < 1e-7, "{}", r.values[i]);
        }
        for i in 6..16 {
            assert!((r.values[i] - 4.0).abs() < 1e-7, "{}", r.values[i]);
        }
    }

    #[test]
    fn full_spectrum_of_tiny_operator() {
        let a = hypercube_laplacian(3);
        let r = smallest_eigenvalues(&a, 8, &LanczosOptions::default()).unwrap();
        let expect = [0.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 6.0];
        for (v, x) in r.values.iter().zip(expect.iter()) {
            assert!((v - x).abs() < 1e-7, "{v} vs {x}");
        }
    }

    #[test]
    fn h_zero_is_trivial() {
        let a = hypercube_laplacian(2);
        let r = smallest_eigenvalues(&a, 0, &LanczosOptions::default()).unwrap();
        assert!(r.converged);
        assert!(r.values.is_empty());
    }

    #[test]
    fn too_many_requested_is_an_error() {
        let a = hypercube_laplacian(2);
        assert!(matches!(
            smallest_eigenvalues(&a, 5, &LanczosOptions::default()),
            Err(LinalgError::TooManyEigenvaluesRequested { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = hypercube_laplacian(4);
        let opts = LanczosOptions {
            seed: 99,
            ..Default::default()
        };
        let r1 = smallest_eigenvalues(&a, 6, &opts).unwrap();
        let r2 = smallest_eigenvalues(&a, 6, &opts).unwrap();
        assert_eq!(r1.values, r2.values);
        assert_eq!(r1.matvecs, r2.matvecs);
    }

    #[test]
    fn ritz_sweep_estimates_extreme_values() {
        // On a well-separated spectrum a single 48-step sweep nails the
        // smallest eigenvalues to far better than estimate accuracy.
        let n = 60;
        let mut trips = Vec::new();
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..n {
            trips.push((i, i, 4.0 + rng.gen::<f64>()));
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v = rng.gen::<f64>() - 0.5;
                    trips.push((i, j, v));
                    trips.push((j, i, v));
                }
            }
        }
        let a = CsrMatrix::from_triplets(n, &trips).unwrap();
        let dense_vals = eigenvalues_symmetric(&a.to_dense()).unwrap();
        let opts = RitzSweepOptions {
            steps: 48,
            ..Default::default()
        };
        let r = extreme_ritz_values(&a, 6, &opts).unwrap();
        assert_eq!(r.sweeps, 1);
        assert_eq!(r.values.len(), 6);
        for i in 0..6 {
            // Interlacing: each Ritz estimate sits at or above the true
            // eigenvalue of the same index.
            assert!(r.values[i] >= dense_vals[i] - 1e-9);
            assert!(
                (r.values[i] - dense_vals[i]).abs() < 1e-6,
                "i={i}: {} vs {}",
                r.values[i],
                dense_vals[i]
            );
        }
    }

    #[test]
    fn ritz_sweep_is_deterministic_and_fixed_cost() {
        let a = hypercube_laplacian(5);
        let opts = RitzSweepOptions {
            steps: 24,
            reorth_window: 8,
            seed: 7,
        };
        let r1 = extreme_ritz_values(&a, 4, &opts).unwrap();
        let r2 = extreme_ritz_values(&a, 4, &opts).unwrap();
        assert_eq!(r1.values, r2.values);
        assert_eq!(r1.matvecs, r2.matvecs);
        // Q_5's Laplacian has six distinct eigenvalues, so the Krylov
        // space exhausts (happy breakdown) after exactly six applications
        // — never the full 24-step budget. No power iteration runs either:
        // the operator's upper bound 2d is known analytically.
        assert_eq!(r1.matvecs, 6);
        assert!(r1.values[0].abs() < 1e-8, "{}", r1.values[0]);
    }

    #[test]
    fn ritz_sweep_rejects_oversized_h() {
        let a = hypercube_laplacian(2);
        assert!(matches!(
            extreme_ritz_values(&a, 5, &RitzSweepOptions::default()),
            Err(LinalgError::TooManyEigenvaluesRequested { .. })
        ));
    }

    #[test]
    fn sweep_stops_at_numerical_invariance() {
        // Q_5's Laplacian has six distinct eigenvalues, so the Krylov
        // space of any start vector is invariant after six steps: the
        // sweep must end there, not run on into rounding noise.
        let a = hypercube_laplacian(5);
        let mut rng = StdRng::seed_from_u64(3);
        let v0 = random_orthogonal_start(32, &[], &mut rng).unwrap();
        let rule = SweepRule {
            window: usize::MAX,
            stop_tol: 1e-8,
            dgks: true,
        };
        let mut matvecs = 0;
        let sweep = lanczos_sweep(&a, v0, 32, &[], &rule, &mut matvecs);
        assert!(sweep.invariant);
        assert_eq!(sweep.alphas.len(), 6);
        assert_eq!(matvecs, 6);
        let analysis = RitzAnalysis::of(&sweep).unwrap();
        assert!((0..6).all(|i| analysis.converged(i, 1e-9)));
    }

    #[test]
    fn locked_set_holds_at_most_h_and_evicts_the_largest() {
        let mut locked = Locked::default();
        for (i, v) in [3.0, 1.0, 4.0, 1.0, 5.0, 0.5].into_iter().enumerate() {
            locked.push(vec![i as f64], v, 3);
            assert!(locked.len() <= 3);
        }
        assert_eq!(locked.vals, [1.0, 1.0, 0.5]);
        assert_eq!(locked.vecs, [vec![1.0], vec![3.0], vec![5.0]]);
        assert_eq!(locked.largest(), 1.0);
        // Among equal largest values the latest locked goes first.
        locked.push(vec![6.0], 0.25, 3);
        assert_eq!(locked.vals, [1.0, 0.5, 0.25]);
    }

    #[test]
    fn small_subspace_still_converges_via_doubling() {
        let a = hypercube_laplacian(4);
        let opts = LanczosOptions {
            subspace: 2,
            ..Default::default()
        };
        let r = smallest_eigenvalues(&a, 8, &opts).unwrap();
        assert!(r.converged);
        let dense_vals = eigenvalues_symmetric(&a.to_dense()).unwrap();
        for i in 0..8 {
            assert!((r.values[i] - dense_vals[i]).abs() < 1e-6);
        }
    }
}
