#![warn(missing_docs)]
//! # mtsp-lp — linear-programming substrate
//!
//! A self-contained LP solver built for the allotment phase of the
//! Jansen–Zhang algorithm (LP (9) of the paper). No LP crate exists in the
//! offline dependency set, so this crate implements:
//!
//! * [`Lp`] — a model-builder API (variables with bounds, `≤ / = / ≥` rows,
//!   minimization objective);
//! * [`sparse`] — the compressed-sparse-column (CSC) constraint matrix:
//!   `col_ptr` / `row_idx` / `values` arrays, append-only columns (slacks
//!   and artificials ride behind the structurals) and deterministic
//!   in-column entry order;
//! * [`simplex`] — a sparse **bounded-variable revised simplex** (primal
//!   *and* dual) over that CSC matrix, with a two-phase start, Dantzig
//!   pricing with a Bland anti-cycling fallback, bound-flip ratio tests,
//!   periodic refactorization, and all per-iteration work vectors in
//!   reusable scratch buffers;
//! * [`context`] — [`SolveContext`], a reusable solve context with an
//!   explicit **warm-start API**: solve once, mutate bounds / rhs /
//!   objective in place, and `resolve` with the dual simplex from the
//!   previous basis instead of solving cold;
//! * [`tableau`] — an independent dense two-phase *tableau* simplex used as
//!   a cross-checking reference implementation in tests and benches;
//! * [`certify`] — [`verify_optimality`], a KKT certificate check of an
//!   optimal revised-simplex solution, the oracle the test suites (the
//!   phase-1 LPs of `mtsp-core` included) certify answers with;
//! * [`dense`] — the small dense-matrix kernel (Gauss–Jordan inversion)
//!   used for basis refactorization and by the reference solver.
//!
//! The allotment LPs produced by `mtsp-core` have `|E| + n + 2` rows, a
//! handful of nonzeros per row, and `O(n·m)` columns in the crashing
//! formulation; the revised simplex keeps only an `rows × rows` inverse
//! and walks only stored nonzeros, so instances with hundreds of tasks
//! solve in milliseconds — and deadline sweeps re-solve in a fraction of
//! that via the warm-start path.
//!
//! ## Warm-start contract
//!
//! After [`SolveContext::solve`] returns [`Status::Optimal`], callers may
//! mutate variable bounds, row right-hand sides and objective
//! coefficients in place and call [`SolveContext::resolve`]. The contract:
//!
//! * with [`SolverOptions::warm_start`] (the default) the dual simplex
//!   restarts from the previous basis — bound/rhs edits preserve dual
//!   feasibility, so typically only a few pivots run; objective edits may
//!   void the warm basis, in which case the context transparently falls
//!   back to a cold solve;
//! * with `warm_start = false` every resolve is a full cold solve of the
//!   mutated model — byte-for-byte the same answer, used as the
//!   determinism baseline by the downstream test suites;
//! * optimal solutions are extracted from one fresh refactorization of
//!   the final basis, so the reported numbers depend only on that basis
//!   and the bound states, not on the pivot history.
//!
//! ```
//! use mtsp_lp::{Lp, Relation, Status};
//!
//! // min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y >= 0
//! let mut lp = Lp::minimize();
//! let x = lp.add_var(0.0, 3.0, -1.0);
//! let y = lp.add_var(0.0, 2.0, -2.0);
//! lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! let sol = lp.solve().unwrap();
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - (-6.0)).abs() < 1e-9); // x=2, y=2
//! ```

pub mod certify;
pub mod context;
pub mod dense;
pub mod error;
mod eta;
pub mod problem;
pub mod simplex;
pub mod sparse;
pub mod tableau;

pub use certify::verify_optimality;
pub use context::SolveContext;
pub use error::LpError;
pub use mtsp_obs::{Counter, Counters};
pub use problem::{Lp, Relation, VarId};
pub use simplex::{Solution, SolverOptions, Status};
pub use sparse::CscMatrix;
