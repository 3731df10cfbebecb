//! Sparse bounded-variable revised simplex (primal + dual).
//!
//! Internally the problem is brought to the computational standard form
//! `min c·z  s.t.  A z = b,  l ≤ z ≤ u`, where `z` stacks the structural
//! variables, one slack per row (`≤` rows get `s ∈ [0, ∞)`, `≥` rows
//! `s ∈ (−∞, 0]`, `=` rows `s ∈ [0, 0]`) and, when needed, phase-1
//! artificial variables. The constraint matrix is stored once in
//! compressed sparse column form ([`crate::sparse::CscMatrix`]); pricing,
//! FTRAN and the dual row walk only the stored nonzeros (~3 per row in
//! the allotment LPs of `mtsp-core`).
//!
//! The implementation follows the classical two-phase bounded-variable
//! method:
//!
//! * the basis factorization is a dense base inverse `B₀⁻¹` from the last
//!   Gauss–Jordan refactorization plus a product-form (PFI) **eta file**
//!   ([`crate::eta::EtaFile`]): each pivot appends one O(m) eta update
//!   instead of an O(m²) eager inverse update, and FTRAN/BTRAN thread
//!   through base inverse + etas; a full refactorization runs every
//!   [`SolverOptions::refactor_interval`] pivots as the stability
//!   fallback, and the factorization persists *across*
//!   [`crate::SolveContext::resolve`] calls (bound/rhs/objective
//!   mutations leave the basis matrix untouched), so a warm resolve pays
//!   no refactorization at all on the hot path;
//! * the factorization kernels skip work on exact zeros only: etas are
//!   stored sparsely (a dense slab above 2/3 fill), FTRAN skips an eta
//!   whose multiplier is 0, BTRAN dots only the stored entries, and the
//!   Gauss–Jordan refactorization eliminates only over the pivot row's
//!   nonzeros. Each skipped term would add or subtract ±0 and summation
//!   order is kept, so pivot paths and results are bit-identical to the
//!   dense kernels;
//! * pricing is Dantzig (most violating reduced cost) with an automatic
//!   switch to Bland's rule after a run of degenerate pivots, restoring
//!   the termination guarantee;
//! * the ratio test handles basic variables hitting either bound *and*
//!   entering-variable bound flips, choosing among near-minimal ratios the
//!   pivot with the largest `|w_r|` for numerical stability.
//!
//! All per-iteration work vectors (duals `y`, FTRAN result `w`, residuals)
//! live in reusable scratch buffers inside [`Core`], so the iteration loop
//! allocates nothing; a [`crate::SolveContext`] keeps one `Core` alive
//! across solves and re-optimizes with the **dual simplex** from the
//! previous basis after bound/rhs/objective mutations (see the crate docs
//! for the warm-start contract).

use crate::dense::{InverseScratch, Matrix};
use crate::error::LpError;
use crate::eta::EtaFile;
use crate::problem::{Lp, Relation};
use crate::sparse::CscMatrix;
use mtsp_obs::{Counter, Counters};

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// No feasible point exists (phase-1 optimum is positive, or the dual
    /// simplex proved a bound violation irreparable).
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
}

/// Result of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Why the solver stopped.
    pub status: Status,
    /// Objective value (meaningful for [`Status::Optimal`]).
    pub objective: f64,
    /// Values of the structural variables (meaningful for
    /// [`Status::Optimal`]; zeros otherwise).
    pub x: Vec<f64>,
    /// Simplex multipliers `y = c_B B⁻¹` of the final basis, one per row.
    pub duals: Vec<f64>,
    /// Total simplex iterations over all phases of this (re)solve.
    pub iterations: usize,
}

/// Solver tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Hard iteration cap across both phases. `0` means the default
    /// `50·(rows + cols) + 10_000`.
    pub max_iterations: usize,
    /// Optimality / feasibility tolerance.
    pub tol: f64,
    /// Pivots between full refactorizations of `B⁻¹` — equivalently, the
    /// maximum eta-file length before the factorization is rebuilt. Must
    /// be positive; entry points reject `0` with
    /// [`LpError::InvalidOptions`].
    pub refactor_interval: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_trigger: usize,
    /// Whether [`crate::SolveContext::resolve`] may warm-start the dual
    /// simplex from the previous basis. With `false` every resolve
    /// rebuilds the start basis and runs the full two-phase method —
    /// useful as a deterministic cold baseline; the results must be
    /// bitwise identical either way (asserted by the `mtsp-core` and
    /// engine test suites).
    pub warm_start: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 0,
            tol: 1e-9,
            refactor_interval: 100,
            bland_trigger: 40,
            warm_start: true,
        }
    }
}

impl SolverOptions {
    /// Validates option values; every solve/resolve entry point calls
    /// this before touching the model. `refactor_interval = 0` would ask
    /// for a refactorization before every pivot *and* an eta file that may
    /// never grow — a degenerate configuration that is rejected outright.
    pub fn validate(&self) -> Result<(), LpError> {
        if self.refactor_interval == 0 {
            return Err(LpError::InvalidOptions(
                "refactor_interval must be positive",
            ));
        }
        if self.tol.is_nan() || self.tol < 0.0 {
            return Err(LpError::InvalidOptions(
                "tol must be non-negative and not NaN",
            ));
        }
        Ok(())
    }
}

/// Where a nonbasic variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic variable pinned at zero.
    FreeZero,
}

/// The standard-form working problem plus every scratch buffer the
/// iteration loops need. One `Core` lives inside each
/// [`crate::SolveContext`] and is rebuilt in place by [`Core::load`]; the
/// buffers persist across solves so repeated solving allocates only for
/// the returned [`Solution`].
pub(crate) struct Core {
    rows: usize,
    /// Standard-form constraint matrix: structurals, then one slack per
    /// row, then any phase-1 artificials.
    a: CscMatrix,
    b: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    n_struct: usize,
    first_slack: usize,
    first_artificial: usize,
    state: Vec<VarState>,
    basis: Vec<usize>,
    /// Base inverse `B₀⁻¹` from the last refactorization; the live
    /// factorization is `eta` applied on top of it.
    binv: Matrix,
    /// Product-form updates recorded since the last refactorization.
    eta: EtaFile,
    /// Whether `binv` + `eta` factorize the *current* basis. True from
    /// the first successful refactorization until [`Core::load`] replaces
    /// the model (every pivot appends an eta, keeping the pair in sync);
    /// false only on a fresh/reloaded core or after a failed
    /// refactorization.
    factorized: bool,
    xb: Vec<f64>,
    tol: f64,
    // --- reusable scratch (contents meaningless between uses) ----------
    /// Simplex multipliers `y = c_B B⁻¹`.
    y: Vec<f64>,
    /// FTRAN result `w = B⁻¹ A_j`.
    w: Vec<f64>,
    /// BTRAN seed/workspace in basis-position space (eta applications).
    ybasis: Vec<f64>,
    /// Extracted row `r` of `B⁻¹` for the dual ratio test.
    rowr: Vec<f64>,
    /// Residual `b − N x_N` used by refactorization and the start basis.
    resid: Vec<f64>,
    /// Phase-1 objective swap space.
    saved_cost: Vec<f64>,
    /// Basis matrix scratch for refactorization.
    bmat: Matrix,
    /// Gauss–Jordan working copy and pivot-row patterns for
    /// [`Matrix::inverse_into`].
    inv_scratch: InverseScratch,
    /// Deterministic event counters, accumulated across every solve this
    /// core runs (never reset by [`Core::load`] — callers snapshot/diff).
    counters: Counters,
    /// Process-unique id of the last [`Core::load`] (0 = never loaded).
    /// In-place mutations and resolves keep it; only loading a model —
    /// into this core or any other — mints a new value, so an equal stamp
    /// proves "this context still holds exactly that load".
    stamp: u64,
}

/// Mints process-unique load stamps (see [`Core::load_stamp`]).
static LOAD_STAMPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Core {
    /// An empty core; [`Core::load`] gives it a model.
    pub(crate) fn new() -> Self {
        Core {
            rows: 0,
            a: CscMatrix::with_rows(0),
            b: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            cost: Vec::new(),
            n_struct: 0,
            first_slack: 0,
            first_artificial: 0,
            state: Vec::new(),
            basis: Vec::new(),
            binv: Matrix::zeros(0, 0),
            eta: EtaFile::new(),
            factorized: false,
            xb: Vec::new(),
            tol: 1e-9,
            y: Vec::new(),
            w: Vec::new(),
            ybasis: Vec::new(),
            rowr: Vec::new(),
            resid: Vec::new(),
            saved_cost: Vec::new(),
            bmat: Matrix::zeros(0, 0),
            inv_scratch: InverseScratch::new(),
            counters: Counters::new(),
            stamp: 0,
        }
    }

    /// The stamp of the last load (0 until a model is loaded).
    #[inline]
    pub(crate) fn load_stamp(&self) -> u64 {
        self.stamp
    }

    /// Deterministic event counters accumulated by this core.
    #[inline]
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable access for layers that count their own events through the
    /// context (bisection probes, rounding passes, session epochs, …).
    #[inline]
    pub(crate) fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Number of structural variables of the loaded model.
    #[inline]
    pub(crate) fn num_structurals(&self) -> usize {
        self.n_struct
    }

    /// Number of rows of the loaded model.
    #[inline]
    pub(crate) fn num_rows(&self) -> usize {
        self.rows
    }

    /// Rebuilds the standard form from `lp` in place, reusing every
    /// buffer. The caller has validated `lp`.
    pub(crate) fn load(&mut self, lp: &Lp, tol: f64) {
        let n = lp.num_vars();
        let m = lp.num_rows();
        self.rows = m;
        self.factorized = false;
        self.stamp = 1 + LOAD_STAMPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.n_struct = n;
        self.first_slack = n;
        self.tol = tol;
        self.lower.clear();
        self.lower.extend_from_slice(&lp.lower);
        self.upper.clear();
        self.upper.extend_from_slice(&lp.upper);
        self.cost.clear();
        self.cost.extend_from_slice(&lp.obj);
        self.b.clear();
        self.b.extend(lp.rows.iter().map(|r| r.rhs));
        // Structural columns via a counting scatter: entries land in row
        // order within each column, exactly as if pushed row-major.
        self.a.rebuild_from_row_major(m, n, |sink| {
            for (i, row) in lp.rows.iter().enumerate() {
                for &(v, a) in &row.coeffs {
                    if a != 0.0 {
                        sink(i, v, a);
                    }
                }
            }
        });
        // Slacks.
        for (i, row) in lp.rows.iter().enumerate() {
            self.a.push_col([(i, 1.0)]);
            self.cost.push(0.0);
            match row.rel {
                Relation::Le => {
                    self.lower.push(0.0);
                    self.upper.push(f64::INFINITY);
                }
                Relation::Ge => {
                    self.lower.push(f64::NEG_INFINITY);
                    self.upper.push(0.0);
                }
                Relation::Eq => {
                    self.lower.push(0.0);
                    self.upper.push(0.0);
                }
            }
        }
        self.first_artificial = self.a.ncols();
    }

    /// Updates the bounds of structural variable `j` in place, keeping the
    /// nonbasic state on its current side when that bound is still finite.
    pub(crate) fn set_var_bounds(&mut self, j: usize, lower: f64, upper: f64) {
        self.lower[j] = lower;
        self.upper[j] = upper;
        if self.state[j] != VarState::Basic {
            self.state[j] = match self.state[j] {
                VarState::AtLower if lower.is_finite() => VarState::AtLower,
                VarState::AtUpper if upper.is_finite() => VarState::AtUpper,
                _ => {
                    if lower.is_finite() {
                        VarState::AtLower
                    } else if upper.is_finite() {
                        VarState::AtUpper
                    } else {
                        VarState::FreeZero
                    }
                }
            };
        }
    }

    /// Updates the right-hand side of row `i` in place.
    pub(crate) fn set_rhs(&mut self, i: usize, rhs: f64) {
        self.b[i] = rhs;
    }

    /// Updates the objective coefficient of structural variable `j`.
    pub(crate) fn set_objective(&mut self, j: usize, cost: f64) {
        self.cost[j] = cost;
    }

    /// Refreshes the pivot tolerance (a resolve may carry different
    /// options than the load-time solve).
    pub(crate) fn set_tol(&mut self, tol: f64) {
        self.tol = tol;
    }

    /// Current value of a nonbasic variable.
    #[inline]
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.state[j] {
            VarState::AtLower => self.lower[j],
            VarState::AtUpper => self.upper[j],
            VarState::FreeZero => 0.0,
            VarState::Basic => unreachable!("basic variable has no nonbasic value"),
        }
    }

    /// Rebuilds the factorization from scratch: fresh base inverse
    /// `B₀⁻¹`, empty eta file, recomputed `x_B` (no allocations; the
    /// dense factorization scratch lives in the core).
    fn refactor(&mut self) -> Result<(), LpError> {
        self.counters.inc(Counter::Refactorizations);
        self.factorized = false;
        let m = self.rows;
        self.bmat.resize_zeroed(m, m);
        for (k, &j) in self.basis.iter().enumerate() {
            for (i, a) in self.a.col(j).iter() {
                self.bmat[(i, k)] = a;
            }
        }
        if !self
            .bmat
            .inverse_into(1e-12, &mut self.inv_scratch, &mut self.binv)
        {
            return Err(LpError::SingularBasis);
        }
        self.eta.clear(m);
        self.factorized = true;
        self.refresh_basics();
        Ok(())
    }

    /// Recomputes the basic values under the *current* factorization:
    /// `x_B = B⁻¹ (b − N x_N)` via base inverse plus eta file. With an
    /// empty eta file this is bit-for-bit the historical refactorization
    /// tail; a warm resolve calls it directly after bound/rhs mutations —
    /// those leave the basis matrix untouched, so the factorization still
    /// applies and no O(m³) rebuild is needed.
    fn refresh_basics(&mut self) {
        let m = self.rows;
        // r = b - N x_N
        self.resid.clear();
        self.resid.extend_from_slice(&self.b);
        for j in 0..self.a.ncols() {
            if self.state[j] == VarState::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            self.a.col(j).axpy_into(-v, &mut self.resid);
        }
        self.xb.clear();
        self.xb.resize(m, 0.0);
        for k in 0..m {
            self.xb[k] = self.binv.row_dot(k, &self.resid);
        }
        self.eta.apply_ftran(&mut self.xb);
    }

    /// Simplex multipliers `y = c_B B⁻¹`, written into the `y` scratch:
    /// BTRAN of the basic costs through the eta file, then the base
    /// inverse (bit-for-bit the historical loop when the file is empty).
    fn compute_duals(&mut self) {
        self.counters.inc(Counter::Btran);
        let m = self.rows;
        self.ybasis.clear();
        self.ybasis.resize(m, 0.0);
        for (k, &j) in self.basis.iter().enumerate() {
            self.ybasis[k] = self.cost[j];
        }
        self.eta.apply_btran(&mut self.ybasis);
        self.y.clear();
        self.y.resize(m, 0.0);
        for (k, &v) in self.ybasis.iter().enumerate() {
            self.binv.axpy_row(k, v, &mut self.y);
        }
    }

    /// Reduced cost of column `j` against the current `y` scratch.
    #[inline]
    fn reduced_cost(&self, j: usize) -> f64 {
        self.cost[j] - self.a.col_dot(j, &self.y)
    }

    /// `w = B⁻¹ A_j`, written into the `w` scratch: base inverse applied
    /// to the sparse column, then the eta file.
    fn ftran(&mut self, j: usize) {
        self.counters.inc(Counter::Ftran);
        let m = self.rows;
        self.w.clear();
        self.w.resize(m, 0.0);
        for (i, a) in self.a.col(j).iter() {
            self.binv.axpy_col(i, a, &mut self.w);
        }
        self.eta.apply_ftran(&mut self.w);
    }

    /// Row `r` of `B⁻¹` (the pivot row of the dual ratio test), written
    /// into the `rowr` scratch: BTRAN of the unit vector `e_r`. With an
    /// empty eta file this is a straight copy of the base-inverse row.
    fn extract_row(&mut self, r: usize) {
        let m = self.rows;
        if self.eta.is_empty() {
            self.rowr.clear();
            self.rowr.extend_from_slice(self.binv.row(r));
            return;
        }
        self.ybasis.clear();
        self.ybasis.resize(m, 0.0);
        self.ybasis[r] = 1.0;
        self.eta.apply_btran(&mut self.ybasis);
        self.rowr.clear();
        self.rowr.resize(m, 0.0);
        for (k, &v) in self.ybasis.iter().enumerate() {
            self.binv.axpy_row(k, v, &mut self.rowr);
        }
    }

    /// Records the pivot of column `j` into row `r` as a product-form
    /// update (the `w` scratch holds `B⁻¹ A_j` under the pre-pivot
    /// factorization) — O(m) bookkeeping in place of the historical
    /// O(m²) eager inverse update.
    fn push_eta(&mut self, r: usize) {
        self.counters.inc(Counter::EtaUpdates);
        self.eta.push(r, &self.w);
    }

    /// Truncates any artificial tail, rebuilds the initial nonbasic states
    /// and picks the start basis (slack where it can hold the residual,
    /// fresh artificial otherwise). Returns whether artificials exist.
    fn start_basis(&mut self) -> Result<bool, LpError> {
        let m = self.rows;
        let tol = self.tol;
        self.a.truncate_cols(self.first_artificial);
        self.lower.truncate(self.first_artificial);
        self.upper.truncate(self.first_artificial);
        self.cost.truncate(self.first_artificial);
        self.state.clear();
        for j in 0..self.a.ncols() {
            self.state.push(if self.lower[j].is_finite() {
                VarState::AtLower
            } else if self.upper[j].is_finite() {
                VarState::AtUpper
            } else {
                VarState::FreeZero
            });
        }
        // Residuals with every structural at its initial bound (slacks at
        // 0 contribute nothing unless their bound is 0 anyway).
        self.resid.clear();
        self.resid.extend_from_slice(&self.b);
        for j in 0..self.first_slack {
            let v = match self.state[j] {
                VarState::AtLower => self.lower[j],
                VarState::AtUpper => self.upper[j],
                _ => 0.0,
            };
            self.a.col(j).axpy_into(-v, &mut self.resid);
        }
        self.basis.clear();
        let mut any_artificial = false;
        for i in 0..m {
            let s = self.first_slack + i;
            if self.resid[i] >= self.lower[s] - tol && self.resid[i] <= self.upper[s] + tol {
                self.basis.push(s);
                self.state[s] = VarState::Basic;
            } else {
                let sign = if self.resid[i] >= 0.0 { 1.0 } else { -1.0 };
                let j = self.a.push_col([(i, sign)]);
                self.lower.push(0.0);
                self.upper.push(f64::INFINITY);
                self.cost.push(0.0);
                self.state.push(VarState::Basic);
                self.basis.push(j);
                any_artificial = true;
            }
        }
        self.refactor()?;
        Ok(any_artificial)
    }

    /// Runs primal simplex iterations until optimality of the current
    /// cost vector.
    ///
    /// Returns `Ok(true)` on optimal, `Ok(false)` on unbounded.
    fn optimize(
        &mut self,
        opts: &SolverOptions,
        iterations: &mut usize,
        max_iterations: usize,
    ) -> Result<bool, LpError> {
        let tol = self.tol;
        let m = self.rows;
        let mut degenerate_run = 0usize;
        loop {
            if *iterations >= max_iterations {
                return Err(LpError::IterationLimit(max_iterations));
            }
            *iterations += 1;
            self.counters.inc(Counter::SimplexIterations);
            // The eta file carries across calls (and resolves); its
            // length *is* the pivots-since-refactorization count.
            if self.eta.len() >= opts.refactor_interval {
                self.refactor()?;
            }

            self.compute_duals();
            let use_bland = degenerate_run >= opts.bland_trigger;

            // --- Pricing ---------------------------------------------------
            let mut entering: Option<(usize, f64, f64)> = None; // (col, d, sigma)
            for j in 0..self.a.ncols() {
                let st = self.state[j];
                if st == VarState::Basic {
                    continue;
                }
                if self.lower[j] == self.upper[j] && st != VarState::FreeZero {
                    continue; // fixed variable can never move
                }
                let d = self.reduced_cost(j);
                let sigma = match st {
                    VarState::AtLower if d < -tol => 1.0,
                    VarState::AtUpper if d > tol => -1.0,
                    VarState::FreeZero if d < -tol => 1.0,
                    VarState::FreeZero if d > tol => -1.0,
                    _ => continue,
                };
                if use_bland {
                    entering = Some((j, d, sigma));
                    break;
                }
                match entering {
                    Some((_, dbest, _)) if d.abs() <= dbest.abs() => {}
                    _ => entering = Some((j, d, sigma)),
                }
            }
            let Some((j, _, sigma)) = entering else {
                return Ok(true); // optimal
            };

            // --- Ratio test ------------------------------------------------
            self.ftran(j);
            let mut t = match (self.lower[j].is_finite(), self.upper[j].is_finite()) {
                (true, true) => self.upper[j] - self.lower[j],
                _ => f64::INFINITY,
            };
            let mut leaving: Option<usize> = None;
            // First pass: minimal ratio.
            for k in 0..m {
                let d = sigma * self.w[k];
                if d.abs() <= 1e-11 {
                    continue;
                }
                let jb = self.basis[k];
                let bound = if d > 0.0 {
                    if self.lower[jb].is_finite() {
                        (self.xb[k] - self.lower[jb]) / d
                    } else {
                        continue;
                    }
                } else if self.upper[jb].is_finite() {
                    (self.upper[jb] - self.xb[k]) / (-d)
                } else {
                    continue;
                };
                let bound = bound.max(0.0);
                if bound < t - 1e-12 {
                    t = bound;
                    leaving = Some(k);
                }
            }
            // Stabilization: among rows whose ratio is within a whisker of
            // the minimum, pivot on the largest |w_r|.
            if leaving.is_some() {
                let mut best_w = 0.0f64;
                let mut best_k = None;
                for k in 0..m {
                    let wk = self.w[k];
                    let d = sigma * wk;
                    if d.abs() <= 1e-11 {
                        continue;
                    }
                    let jb = self.basis[k];
                    let bound = if d > 0.0 {
                        if self.lower[jb].is_finite() {
                            ((self.xb[k] - self.lower[jb]) / d).max(0.0)
                        } else {
                            continue;
                        }
                    } else if self.upper[jb].is_finite() {
                        ((self.upper[jb] - self.xb[k]) / (-d)).max(0.0)
                    } else {
                        continue;
                    };
                    if bound <= t + 1e-9 * (1.0 + t.abs()) && wk.abs() > best_w {
                        best_w = wk.abs();
                        best_k = Some(k);
                    }
                }
                if let Some(k) = best_k {
                    leaving = Some(k);
                    // Recompute the exact ratio of the chosen row.
                    let d = sigma * self.w[k];
                    let jb = self.basis[k];
                    t = if d > 0.0 {
                        ((self.xb[k] - self.lower[jb]) / d).max(0.0)
                    } else {
                        ((self.upper[jb] - self.xb[k]) / (-d)).max(0.0)
                    };
                }
            }

            if t.is_infinite() {
                return Ok(false); // unbounded direction
            }
            degenerate_run = if t <= 1e-11 { degenerate_run + 1 } else { 0 };

            match leaving {
                None => {
                    // Bound flip: entering travels to its other bound.
                    for k in 0..m {
                        self.xb[k] -= sigma * t * self.w[k];
                    }
                    self.state[j] = match self.state[j] {
                        VarState::AtLower => VarState::AtUpper,
                        VarState::AtUpper => VarState::AtLower,
                        other => other, // FreeZero cannot bound-flip (t finite => bounds finite)
                    };
                }
                Some(r) => {
                    let enter_value = match self.state[j] {
                        VarState::AtLower => self.lower[j],
                        VarState::AtUpper => self.upper[j],
                        VarState::FreeZero => 0.0,
                        VarState::Basic => unreachable!(),
                    } + sigma * t;
                    for k in 0..m {
                        if k != r {
                            self.xb[k] -= sigma * t * self.w[k];
                        }
                    }
                    let lv = self.basis[r];
                    self.state[lv] = if sigma * self.w[r] > 0.0 {
                        VarState::AtLower
                    } else {
                        VarState::AtUpper
                    };
                    self.basis[r] = j;
                    self.state[j] = VarState::Basic;
                    self.push_eta(r);
                    self.xb[r] = enter_value;
                }
            }
        }
    }

    /// Checks dual feasibility of the current basis: every nonbasic,
    /// non-fixed variable's reduced cost must be on the correct side for
    /// its state. Computes `y` as a side effect.
    fn is_dual_feasible(&mut self) -> bool {
        let tol = self.tol;
        self.compute_duals();
        for j in 0..self.a.ncols() {
            let st = self.state[j];
            if st == VarState::Basic {
                continue;
            }
            if self.lower[j] == self.upper[j] && st != VarState::FreeZero {
                continue; // fixed variables never enter; any sign is fine
            }
            let d = self.reduced_cost(j);
            let bad = match st {
                VarState::AtLower => d < -tol,
                VarState::AtUpper => d > tol,
                VarState::FreeZero => d.abs() > tol,
                VarState::Basic => unreachable!(),
            };
            if bad {
                return false;
            }
        }
        true
    }

    /// Bounded-variable **dual simplex**: from a dual-feasible basis,
    /// repeatedly pivots out the worst primal bound violation, choosing
    /// the entering column by the minimal dual ratio `|d_j| / |α_j|`
    /// (ties: largest `|α_j|`, then smallest index; Bland-style smallest
    /// indices after a degenerate run).
    ///
    /// Returns `Ok(true)` when primal feasibility is reached (the caller
    /// finishes with a primal cleanup) and `Ok(false)` when a violated
    /// row admits no entering column — the certificate that the problem
    /// is primal infeasible.
    fn dual_optimize(
        &mut self,
        opts: &SolverOptions,
        iterations: &mut usize,
        max_iterations: usize,
    ) -> Result<bool, LpError> {
        let tol = self.tol;
        let m = self.rows;
        let mut degenerate_run = 0usize;
        loop {
            if *iterations >= max_iterations {
                return Err(LpError::IterationLimit(max_iterations));
            }
            *iterations += 1;
            self.counters.inc(Counter::SimplexIterations);
            // Eta-file length = pivots since the last refactorization,
            // carried across resolve calls.
            if self.eta.len() >= opts.refactor_interval {
                self.refactor()?;
            }
            let use_bland = degenerate_run >= opts.bland_trigger;

            // --- Leaving row: the worst bound violation --------------------
            let mut leaving: Option<(usize, f64)> = None; // (row, delta)
            for k in 0..m {
                let jb = self.basis[k];
                let below = self.lower[jb] - self.xb[k];
                let above = self.xb[k] - self.upper[jb];
                // delta = xb - violated bound: negative below, positive above.
                let (viol, delta) = if below >= above {
                    (below, -below)
                } else {
                    (above, above)
                };
                if viol > tol {
                    if use_bland {
                        leaving = Some((k, delta));
                        break;
                    }
                    match leaving {
                        Some((_, d)) if viol <= d.abs() => {}
                        _ => leaving = Some((k, delta)),
                    }
                }
            }
            let Some((r, delta)) = leaving else {
                return Ok(true); // primal feasible
            };

            // --- Entering: minimal dual ratio ------------------------------
            self.compute_duals();
            self.extract_row(r);
            let mut entering: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            for j in 0..self.a.ncols() {
                let st = self.state[j];
                if st == VarState::Basic {
                    continue;
                }
                if self.lower[j] == self.upper[j] && st != VarState::FreeZero {
                    continue;
                }
                let mut alpha = 0.0f64;
                for (i, a) in self.a.col(j).iter() {
                    alpha += self.rowr[i] * a;
                }
                if alpha.abs() <= 1e-11 {
                    continue;
                }
                // The entering variable moves by dv = delta / alpha, which
                // restores xb[r] to its violated bound; its state limits
                // the admissible direction of dv.
                let dv_positive = (delta / alpha) > 0.0;
                let ok = match st {
                    VarState::AtLower => dv_positive,
                    VarState::AtUpper => !dv_positive,
                    VarState::FreeZero => true,
                    VarState::Basic => unreachable!(),
                };
                if !ok {
                    continue;
                }
                let d = self.reduced_cost(j);
                let ratio = match st {
                    VarState::AtLower => d.max(0.0) / alpha.abs(),
                    VarState::AtUpper => (-d).max(0.0) / alpha.abs(),
                    VarState::FreeZero => d.abs() / alpha.abs(),
                    VarState::Basic => unreachable!(),
                };
                let better = if use_bland {
                    // Bland mode must still honour ratio minimality —
                    // dual feasibility depends on it — but breaks ties
                    // by the smallest column index (ascending iteration
                    // plus strict `<` does exactly that), which restores
                    // the termination guarantee.
                    match entering {
                        None => true,
                        Some((_, rb, _)) => ratio < rb,
                    }
                } else {
                    match entering {
                        None => true,
                        Some((_, rb, ab)) => {
                            let near = 1e-9 * (1.0 + rb.abs());
                            if ratio < rb - near {
                                true
                            } else {
                                ratio <= rb + near && alpha.abs() > ab
                            }
                        }
                    }
                };
                if better {
                    entering = Some((j, ratio, alpha.abs()));
                }
            }
            let Some((j, ratio, _)) = entering else {
                return Ok(false); // dual unbounded => primal infeasible
            };
            degenerate_run = if ratio <= 1e-11 {
                degenerate_run + 1
            } else {
                0
            };

            // --- Pivot -----------------------------------------------------
            // Deliberate simplification: dv is not capped at the entering
            // variable's opposite bound (no dual bound-flip step). A boxed
            // entering variable can go basic past its bound; the next
            // iterations pivot it back — correct, at the cost of extra
            // pivots on flip-heavy sweeps. A capped ratio test with flips
            // is the next optimization lever here.
            self.ftran(j);
            let wr = self.w[r];
            let dv = delta / wr;
            let enter_value = self.nonbasic_value(j) + dv;
            for k in 0..m {
                if k != r {
                    self.xb[k] -= dv * self.w[k];
                }
            }
            let lv = self.basis[r];
            self.state[lv] = if delta < 0.0 {
                VarState::AtLower
            } else {
                VarState::AtUpper
            };
            self.basis[r] = j;
            self.state[j] = VarState::Basic;
            self.push_eta(r);
            self.xb[r] = enter_value;
        }
    }

    /// Builds the infeasible-status solution (shared by cold phase 1 and
    /// the dual simplex certificate). Duals reflect the current costs.
    fn infeasible_solution(&mut self, iterations: usize) -> Solution {
        self.compute_duals();
        Solution {
            status: Status::Infeasible,
            objective: f64::NAN,
            x: vec![0.0; self.n_struct],
            duals: self.y.clone(),
            iterations,
        }
    }

    /// Builds the unbounded-status solution.
    fn unbounded_solution(&mut self, iterations: usize) -> Solution {
        self.compute_duals();
        Solution {
            status: Status::Unbounded,
            objective: f64::NEG_INFINITY,
            x: vec![0.0; self.n_struct],
            duals: self.y.clone(),
            iterations,
        }
    }

    /// Canonicalizes and extracts the optimal solution: one fresh
    /// refactorization (so the numbers depend only on the final basis and
    /// bound states — the keystone of the warm == cold bitwise contract),
    /// then primal values, duals and objective.
    fn extract_optimal(&mut self, iterations: usize) -> Result<Solution, LpError> {
        self.refactor()?;
        self.compute_duals();
        let duals = self.y.clone();
        let mut x = vec![0.0; self.n_struct];
        for (j, xv) in x.iter_mut().enumerate() {
            if self.state[j] != VarState::Basic {
                *xv = self.nonbasic_value(j);
            }
        }
        for (k, &j) in self.basis.iter().enumerate() {
            if j < self.n_struct {
                x[j] = self.xb[k];
            }
        }
        let objective = self.cost[..self.n_struct]
            .iter()
            .zip(&x)
            .map(|(c, v)| c * v)
            .sum();
        Ok(Solution {
            status: Status::Optimal,
            objective,
            x,
            duals,
            iterations,
        })
    }

    /// Ends phase 1 whatever its outcome: pins every artificial at zero
    /// and swaps the real objective back in. Must run on the infeasible
    /// path too, or the context would stay loaded with the phase-1 costs
    /// and corrupt every later warm or cold resolve.
    fn end_phase1(&mut self) {
        for j in self.first_artificial..self.a.ncols() {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
            if self.state[j] == VarState::FreeZero {
                self.state[j] = VarState::AtLower;
            }
        }
        self.cost.clear();
        let saved = std::mem::take(&mut self.saved_cost);
        self.cost.extend_from_slice(&saved);
        self.saved_cost = saved;
    }

    /// Full two-phase solve from a fresh start basis. `load` (or previous
    /// mutations) defines the model; any prior basis is discarded.
    pub(crate) fn solve_cold(&mut self, opts: &SolverOptions) -> Result<Solution, LpError> {
        self.counters.inc(Counter::ColdSolves);
        let m = self.rows;
        let any_artificial = self.start_basis()?;
        let max_iterations = if opts.max_iterations > 0 {
            opts.max_iterations
        } else {
            50 * (m + self.a.ncols()) + 10_000
        };
        let mut iterations = 0usize;

        // --- Phase 1 -------------------------------------------------------
        if any_artificial {
            self.saved_cost.clear();
            self.saved_cost.extend_from_slice(&self.cost);
            for c in self.cost.iter_mut() {
                *c = 0.0;
            }
            for j in self.first_artificial..self.a.ncols() {
                self.cost[j] = 1.0;
            }
            let optimal = self.optimize(opts, &mut iterations, max_iterations)?;
            debug_assert!(optimal, "phase 1 objective is bounded below by zero");
            let infeas: f64 = self
                .basis
                .iter()
                .zip(&self.xb)
                .filter(|(&j, _)| j >= self.first_artificial)
                .map(|(_, &v)| v.abs())
                .sum();
            if infeas > 1e-7 {
                // Duals reflect the phase-1 objective (the infeasibility
                // certificate) — build the solution before restoring the
                // real costs, but DO restore them: the context stays
                // loaded, and a later mutate-and-resolve must not
                // optimize the zeroed phase-1 objective.
                let sol = self.infeasible_solution(iterations);
                self.end_phase1();
                return Ok(sol);
            }
            self.end_phase1();
            // Drive basic artificials (all at ~0) out of the basis when a
            // non-artificial pivot column exists; redundant rows keep theirs.
            for r in 0..m {
                if self.basis[r] < self.first_artificial {
                    continue;
                }
                self.extract_row(r);
                let mut pivot_col = None;
                for j in 0..self.first_artificial {
                    if self.state[j] == VarState::Basic {
                        continue;
                    }
                    let mut wr = 0.0f64;
                    for (i, a) in self.a.col(j).iter() {
                        wr += self.rowr[i] * a;
                    }
                    if wr.abs() > 1e-7 {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(j) = pivot_col {
                    let old = self.basis[r];
                    self.state[old] = VarState::AtLower;
                    self.basis[r] = j;
                    self.state[j] = VarState::Basic;
                    // The immediate refactorization re-derives the
                    // factorization from the basis columns, so no eta is
                    // recorded for this swap.
                    self.refactor()?;
                }
            }
            self.refactor()?;
        }

        // --- Phase 2 -------------------------------------------------------
        let optimal = self.optimize(opts, &mut iterations, max_iterations)?;
        if !optimal {
            return Ok(self.unbounded_solution(iterations));
        }
        self.extract_optimal(iterations)
    }

    /// Warm re-optimization from the previous basis after in-place
    /// mutations: refactor, verify dual feasibility, then dual simplex to
    /// primal feasibility and a primal cleanup. Falls back to
    /// [`Core::solve_cold`] whenever the warm path is not viable (singular
    /// basis, dual infeasibility after an objective change) — the results
    /// are bitwise identical either way by the extraction contract.
    pub(crate) fn resolve_warm(&mut self, opts: &SolverOptions) -> Result<Solution, LpError> {
        self.counters.inc(Counter::WarmResolves);
        let max_iterations = if opts.max_iterations > 0 {
            opts.max_iterations
        } else {
            50 * (self.rows + self.a.ncols()) + 10_000
        };
        let mut iterations = 0usize;
        // Reuse the factorization left by the previous solve when it is
        // still valid — the extraction refactor of the previous optimum
        // left an empty eta file, so this skips the leading O(m³) rebuild
        // that used to dominate every warm resolve while producing the
        // exact same bits. Bound/rhs/objective mutations do not touch the
        // basis matrix; only a fresh `load` (or a failed refactor)
        // invalidates it.
        if self.factorized {
            self.refresh_basics();
        } else if self.refactor().is_err() {
            return self.solve_cold(opts);
        }
        if !self.is_dual_feasible() {
            return self.solve_cold(opts);
        }
        match self.dual_optimize(opts, &mut iterations, max_iterations) {
            Ok(true) => {}
            Ok(false) => return Ok(self.infeasible_solution(iterations)),
            // An unusable warm basis (singular after mutations) or a
            // stalled dual run must degrade to the cold path, not error
            // out on an instance the cold configuration solves fine.
            Err(LpError::SingularBasis) | Err(LpError::IterationLimit(_)) => {
                return self.solve_cold(opts)
            }
            Err(e) => return Err(e),
        }
        let optimal = match self.optimize(opts, &mut iterations, max_iterations) {
            Ok(v) => v,
            Err(LpError::SingularBasis) | Err(LpError::IterationLimit(_)) => {
                return self.solve_cold(opts)
            }
            Err(e) => return Err(e),
        };
        if !optimal {
            return Ok(self.unbounded_solution(iterations));
        }
        match self.extract_optimal(iterations) {
            Ok(sol) => Ok(sol),
            // A warm-selected basis that the canonical refactorization
            // rejects as singular is just another unusable warm
            // trajectory: degrade to cold.
            Err(LpError::SingularBasis) => self.solve_cold(opts),
            Err(e) => Err(e),
        }
    }
}

/// Solves `lp` (already validated by the caller) with a throwaway core.
pub(crate) fn solve(lp: &Lp, opts: &SolverOptions) -> Result<Solution, LpError> {
    opts.validate()?;
    let mut core = Core::new();
    core.load(lp, opts.tol);
    core.solve_cold(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Lp, Relation};

    fn assert_opt(lp: &Lp, expect_obj: f64, expect_x: Option<&[f64]>) {
        let sol = lp.solve().expect("solver error");
        assert_eq!(sol.status, Status::Optimal, "expected optimal");
        assert!(
            (sol.objective - expect_obj).abs() < 1e-7,
            "objective {} != {expect_obj}",
            sol.objective
        );
        assert!(
            lp.infeasibility_at(&sol.x) < 1e-7,
            "solution infeasible by {}",
            lp.infeasibility_at(&sol.x)
        );
        if let Some(xs) = expect_x {
            for (i, (&a, &e)) in sol.x.iter().zip(xs).enumerate() {
                assert!((a - e).abs() < 1e-7, "x[{i}] = {a} != {e}");
            }
        }
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (as min of neg).
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, -3.0);
        let y = lp.add_var(0.0, f64::INFINITY, -5.0);
        lp.add_row(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_row(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_row(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        assert_opt(&lp, -36.0, Some(&[2.0, 6.0]));
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2.
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        lp.add_row(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        assert_opt(&lp, 5.0, Some(&[3.0, 2.0]));
    }

    #[test]
    fn ge_rows_and_mixed_senses() {
        // min 2x + 3y s.t. x + y >= 10, x - y <= 2, y <= 8.
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, 8.0, 3.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        lp.add_row(&[(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
        // Optimum: x=6,y=4 -> 24. Check: cheaper to use x (cost 2), but x-y<=2.
        assert_opt(&lp, 24.0, Some(&[6.0, 4.0]));
    }

    #[test]
    fn bounded_variables_and_flips() {
        // min -x1 -2x2 -3x3, all in [0,1], x1+x2+x3 <= 2.
        let mut lp = Lp::minimize();
        let v: Vec<_> = (0..3)
            .map(|i| lp.add_var(0.0, 1.0, -(i as f64 + 1.0)))
            .collect();
        lp.add_row(&[(v[0], 1.0), (v[1], 1.0), (v[2], 1.0)], Relation::Le, 2.0);
        assert_opt(&lp, -5.0, Some(&[0.0, 1.0, 1.0]));
    }

    #[test]
    fn free_variables() {
        // min x s.t. x >= -7 encoded as free var with a Ge row.
        let mut lp = Lp::minimize();
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_row(&[(x, 1.0)], Relation::Ge, -7.0);
        assert_opt(&lp, -7.0, Some(&[-7.0]));
    }

    #[test]
    fn free_variable_entering_downwards() {
        // min -y s.t. y + x = 3, x free, y in [0, 10]: y = 3 - x can reach
        // 10 by x = -7.
        let mut lp = Lp::minimize();
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = lp.add_var(0.0, 10.0, -1.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        assert_opt(&lp, -10.0, Some(&[-7.0, 10.0]));
    }

    #[test]
    fn infeasible_problem_detected() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(&[(x, 1.0)], Relation::Ge, 2.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Infeasible);
    }

    #[test]
    fn infeasible_equalities_detected() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, 0.0);
        let y = lp.add_var(0.0, f64::INFINITY, 0.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        assert_eq!(lp.solve().unwrap().status, Status::Infeasible);
    }

    #[test]
    fn unbounded_problem_detected() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_row(&[(x, -1.0)], Relation::Le, 0.0); // -x <= 0, no upper limit
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Unbounded);
    }

    #[test]
    fn no_rows_minimizes_at_bounds() {
        let mut lp = Lp::minimize();
        lp.add_var(1.0, 5.0, 2.0); // cost > 0 -> lower bound
        lp.add_var(-3.0, 4.0, -1.0); // cost < 0 -> upper bound
        assert_opt(&lp, 2.0 - 4.0, Some(&[1.0, 4.0]));
    }

    #[test]
    fn no_rows_unbounded_below() {
        let mut lp = Lp::minimize();
        lp.add_var(0.0, f64::INFINITY, -1.0);
        assert_eq!(lp.solve().unwrap().status, Status::Unbounded);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(2.0, 2.0, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        assert_opt(&lp, 5.0, Some(&[2.0, 3.0]));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex: multiple rows active at origin.
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.add_row(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_row(&[(y, 1.0)], Relation::Le, 1.0);
        lp.add_row(&[(x, 1.0), (y, -1.0)], Relation::Le, 0.0);
        lp.add_row(&[(x, -1.0), (y, 1.0)], Relation::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective + 1.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_equalities() {
        // min |ish| with negative rhs forcing artificial sign handling.
        let mut lp = Lp::minimize();
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_row(&[(x, 1.0)], Relation::Eq, -4.0);
        assert_opt(&lp, -4.0, Some(&[-4.0]));
    }

    #[test]
    fn redundant_rows_are_harmless() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        lp.add_row(&[(x, 2.0), (y, 2.0)], Relation::Eq, 8.0); // same plane
        assert_opt(&lp, 4.0, None);
    }

    #[test]
    fn duals_have_row_dimension() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_row(&[(x, 1.0)], Relation::Ge, 3.0);
        lp.add_row(&[(x, 1.0)], Relation::Le, 9.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.duals.len(), 2);
        assert_eq!(sol.status, Status::Optimal);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -2.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let opts = SolverOptions {
            max_iterations: 1,
            ..SolverOptions::default()
        };
        match lp.solve_with(&opts) {
            Err(LpError::IterationLimit(1)) => {}
            other => panic!("expected iteration limit, got {other:?}"),
        }
    }

    #[test]
    fn larger_random_feasible_problem() {
        // Deterministic pseudo-random LP with known feasible point; checks
        // the solver returns something at least as good and feasible.
        let mut lp = Lp::minimize();
        let n = 25;
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_var(0.0, 10.0, ((i * 7 % 13) as f64) - 6.0))
            .collect();
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for r in 0..15 {
            let coeffs: Vec<_> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + r) % 3 == 0)
                .map(|(_, &v)| (v, 1.0 + next().abs()))
                .collect();
            let bound: f64 = 5.0 + 20.0 * next().abs();
            lp.add_row(&coeffs, Relation::Le, bound);
        }
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(lp.infeasibility_at(&sol.x) < 1e-7);
        // x = 0 is feasible with objective 0; optimum must be <= 0.
        assert!(sol.objective <= 1e-9);
    }
}
