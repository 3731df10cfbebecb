//! LP substrate performance: the crashing form vs the literal LP (9) on
//! allotment LPs of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtsp_core::allotment::{solve_allotment_direct, solve_allotment_with, AllotmentRequest};
use mtsp_lp::{SolveContext, SolverOptions};
use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};

fn bench_allotment_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("allotment_lp");
    g.sample_size(10);
    for &(n, m) in &[(20usize, 8usize), (50, 16), (100, 16), (100, 32)] {
        let ins = random_instance(DagFamily::Layered, CurveFamily::Mixed, n, m, 42);
        g.bench_with_input(
            BenchmarkId::new("crashing_form", format!("n{n}_m{m}")),
            &ins,
            |b, ins| {
                b.iter(|| {
                    let req = AllotmentRequest::default();
                    let opts = SolverOptions::default();
                    solve_allotment_with(&mut SolveContext::new(), ins, req, &opts).unwrap()
                })
            },
        );
        if n <= 50 {
            g.bench_with_input(
                BenchmarkId::new("direct_form", format!("n{n}_m{m}")),
                &ins,
                |b, ins| b.iter(|| solve_allotment_direct(ins, &SolverOptions::default()).unwrap()),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_allotment_lp);
criterion_main!(benches);
