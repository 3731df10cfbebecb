//! Same-bytes pin of the phase-1 LP: `C*` and the makespan, bit for bit,
//! plus the simplex pivot count, of one seeded instance of each DAG
//! family the `solve-cold` benchmark solves (n = 48, m = 16, mixed
//! speedup curves, seed 1).
//!
//! The LP kernels (eta file, Gauss–Jordan refactorization) may only
//! skip work on exact zeros, so a kernel change that moves a vertex or a
//! pivot path fails here rather than only in the audit. A change meant
//! to alter the LP's bytes must re-pin these values and list them in its
//! change notes.

use mtsp_core::schedule_jz;
use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};
use mtsp_obs::Counter;

/// `(family, C* bits, makespan bits, simplex iterations)`.
const PINS: [(DagFamily, u64, u64, u64); 6] = [
    (
        DagFamily::Layered,
        0x4067c2873d7f6dcc,
        0x4070c925bccf0e13,
        1517,
    ),
    (
        DagFamily::Chain,
        0x4074e7e82d83b54f,
        0x407c182335def9d1,
        922,
    ),
    (
        DagFamily::SeriesParallel,
        0x406233f9a6e58a08,
        0x40685719bea870ca,
        1349,
    ),
    (
        DagFamily::ForkJoin,
        0x4067a3d85e1eb2e6,
        0x4070594b58b54f2c,
        1111,
    ),
    (
        DagFamily::Wavefront,
        0x406823764abb250e,
        0x406dd5340d2ae85e,
        1478,
    ),
    (
        DagFamily::Cholesky,
        0x4068e29088facaea,
        0x406f797dbf9c7c43,
        2040,
    ),
];

#[test]
fn cold_families_keep_their_lp_bytes() {
    for (family, cstar, makespan, pivots) in PINS {
        let ins = random_instance(family, CurveFamily::Mixed, 48, 16, 1);
        let report = schedule_jz(&ins).unwrap();
        let got = (
            report.lp.cstar.to_bits(),
            report.schedule.makespan().to_bits(),
            report.counters.get(Counter::SimplexIterations),
        );
        assert_eq!(
            got,
            (cstar, makespan, pivots),
            "{family:?}: C* {:?}, makespan {:?}",
            report.lp.cstar,
            report.schedule.makespan()
        );
    }
}
