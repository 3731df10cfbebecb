#![warn(missing_docs)]
//! # mtsp-core — the Jansen–Zhang two-phase algorithm
//!
//! The paper's primary contribution: a
//! `100/63 + 100(√6469+13)/5481 ≈ 3.292`-approximation for scheduling
//! malleable tasks with precedence constraints under Assumptions 1 and 2.
//!
//! Pipeline (Section 3 of the paper):
//!
//! 1. **Phase 1 — allotment** ([`allotment`]): solve the linear program (9)
//!    built from the piecewise-linear convex work functions, then round the
//!    fractional processing times `x*_j` with parameter `ρ`
//!    ([`mtsp_model::WorkFunction::round`]) to get the allotment `α′`.
//! 2. **Phase 2 — LIST** ([`list`]): cap allotments at `μ`
//!    (`l_j = min(l′_j, μ)`) and list-schedule (Table 1 of the paper).
//!
//! Supporting machinery:
//!
//! * [`schedule`] — schedules, feasibility verification, busy profiles and
//!   the T₁/T₂/T₃ time-slot classification of Section 4;
//! * [`heavy_path`] — the "heavy" directed path construction of Lemma 4.3
//!   (Fig. 2);
//! * [`two_phase`] — the end-to-end algorithm with certificates
//!   (lower bounds, a-priori ratio from `mtsp-analysis`, observed ratio);
//! * [`baselines`] — Lepère–Trystram–Woeginger-style and trivial
//!   comparators;
//! * [`exact`] — brute-force optimum for tiny instances (test oracle).
//!
//! ```
//! use mtsp_core::two_phase::schedule_jz;
//! use mtsp_dag::Dag;
//! use mtsp_model::{Instance, Profile};
//!
//! let dag = Dag::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
//! let profiles = (0..3)
//!     .map(|_| Profile::power_law(4.0, 0.7, 8).unwrap())
//!     .collect();
//! let ins = Instance::new(dag, profiles).unwrap();
//! let report = schedule_jz(&ins).unwrap();
//! assert!(report.schedule.verify(&ins).is_ok());
//! assert!(report.observed_ratio() <= report.guarantee);
//! ```

pub mod allotment;
pub mod baselines;
pub mod error;
pub mod exact;
pub mod heavy_path;
pub mod improve;
pub mod independent;
pub mod list;
pub mod schedule;
pub mod two_phase;
pub mod util;

pub use allotment::{
    solve_allotment_direct, solve_allotment_in, solve_allotment_with, AllotmentRequest,
    AllotmentResult, Phase1, SuffixLpReuse,
};
pub use error::CoreError;
pub use improve::{improve_allotment, ImproveOptions, Improved};
pub use independent::{schedule_independent, IndependentResult};
pub use list::{list_schedule, list_schedule_in, ListWorkspace, Priority};
pub use schedule::{Schedule, ScheduledTask, SlotClass, SlotProfile};
pub use two_phase::{schedule_jz, schedule_jz_in, schedule_jz_with, JzConfig, JzReport};
pub use util::Ord64;
