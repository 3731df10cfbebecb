//! Warm-start economics of the LP core: cold solves vs warm dual-simplex
//! re-solves across deadline sweeps, the full bisection pipeline with and
//! without basis reuse, and the sparse revised simplex vs the dense
//! reference tableau — on chain, diamond (fork–join) and layered DAGs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtsp_core::allotment::{solve_allotment_with, AllotmentRequest, AllotmentResult, Phase1};
use mtsp_lp::{tableau, Lp, Relation, SolveContext, SolverOptions, VarId};
use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};
use mtsp_model::Instance;

/// Edge list of a synthetic DAG family.
fn edges(family: &str, n: usize) -> Vec<(usize, usize)> {
    match family {
        "chain" => (1..n).map(|j| (j - 1, j)).collect(),
        "diamond" => {
            // A chain of 4-node diamonds: 0→{1,2}→3 → {4,5} → 6 → …
            let mut e = Vec::new();
            let mut base = 0;
            while base + 3 < n {
                e.push((base, base + 1));
                e.push((base, base + 2));
                e.push((base + 1, base + 3));
                e.push((base + 2, base + 3));
                base += 3;
            }
            e
        }
        "layered" => {
            // Layers of width 4, complete bipartite between neighbours.
            let w = 4;
            let mut e = Vec::new();
            for j in w..n {
                let layer = j / w;
                for p in 0..w {
                    let pred = (layer - 1) * w + p;
                    if pred < n {
                        e.push((pred, j));
                    }
                }
            }
            e
        }
        other => panic!("unknown family {other}"),
    }
}

/// The deadline-LP shape of `mtsp-core`'s bisection: completion variables
/// bounded by the deadline, one crash variable per task, one ~3-nonzero
/// row per precedence arc. Returns the model and the completion handles.
fn deadline_lp(n: usize, edges: &[(usize, usize)], deadline: f64) -> (Lp, Vec<VarId>) {
    let mut lp = Lp::minimize();
    let completion: Vec<VarId> = (0..n).map(|_| lp.add_var(0.0, deadline, 0.0)).collect();
    let serial = |j: usize| 2.0 + (j % 5) as f64;
    let crash: Vec<VarId> = (0..n)
        .map(|j| lp.add_var(0.0, serial(j) * 0.5, 1.0 + (j % 3) as f64 * 0.5))
        .collect();
    let mut has_pred = vec![false; n];
    for &(i, j) in edges {
        has_pred[j] = true;
        lp.add_row(
            &[
                (completion[i], 1.0),
                (completion[j], -1.0),
                (crash[j], -1.0),
            ],
            Relation::Le,
            -serial(j),
        );
    }
    for j in 0..n {
        if !has_pred[j] {
            lp.add_row(
                &[(completion[j], -1.0), (crash[j], -1.0)],
                Relation::Le,
                -serial(j),
            );
        }
    }
    (lp, completion)
}

/// A ~10-step deadline sweep, descending then backtracking — the access
/// pattern of the bisection.
fn sweep_deadlines(top: f64) -> Vec<f64> {
    vec![
        top,
        top * 0.7,
        top * 0.55,
        top * 0.47,
        top * 0.43,
        top * 0.41,
        top * 0.45,
        top * 0.42,
        top * 0.44,
        top * 0.435,
    ]
}

fn bench_warm_vs_cold_resolve(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_resolve_sweep");
    g.sample_size(10);
    for &(family, n) in &[("chain", 60usize), ("diamond", 61), ("layered", 64)] {
        let es = edges(family, n);
        let top = 6.5 * n as f64;
        let deadlines = sweep_deadlines(top);
        let (lp, completion) = deadline_lp(n, &es, top);
        let warm = SolverOptions::default();
        let cold = SolverOptions {
            warm_start: false,
            ..SolverOptions::default()
        };
        for (label, opts) in [("warm", &warm), ("cold", &cold)] {
            g.bench_with_input(BenchmarkId::new(label, family), &lp, |b, lp| {
                b.iter(|| {
                    // One cold solve to load, then 9 resolves along the
                    // sweep — warm keeps the basis, cold restarts.
                    let mut ctx = SolveContext::new();
                    let mut obj = 0.0;
                    let first = ctx.solve(lp, opts).unwrap();
                    obj += first.objective;
                    for &d in &deadlines[1..] {
                        for &v in &completion {
                            ctx.set_var_bounds(v, 0.0, d).unwrap();
                        }
                        let sol = ctx.resolve(opts).unwrap();
                        if sol.status == mtsp_lp::Status::Optimal {
                            obj += sol.objective;
                        }
                    }
                    obj
                })
            });
        }
    }
    g.finish();
}

/// One full bisection phase 1 on a fresh context.
fn bisection(ins: &Instance, opts: &SolverOptions) -> AllotmentResult {
    let req = AllotmentRequest {
        method: Phase1::Bisection,
        ..AllotmentRequest::default()
    };
    solve_allotment_with(&mut SolveContext::new(), ins, req, opts).unwrap()
}

fn bench_bisection_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("bisection_pipeline");
    g.sample_size(10);
    let warm = SolverOptions::default();
    let cold = SolverOptions {
        warm_start: false,
        ..SolverOptions::default()
    };
    for &(dag, name, n, m) in &[
        (DagFamily::Chain, "chain", 30usize, 8usize),
        (DagFamily::ForkJoin, "diamond", 30, 8),
        (DagFamily::Layered, "layered", 40, 16),
    ] {
        let ins = random_instance(dag, CurveFamily::Mixed, n, m, 42);
        g.bench_with_input(BenchmarkId::new("warm", name), &ins, |b, ins| {
            b.iter(|| bisection(ins, &warm))
        });
        g.bench_with_input(BenchmarkId::new("cold", name), &ins, |b, ins| {
            b.iter(|| bisection(ins, &cold))
        });
    }
    g.finish();
}

fn bench_sparse_vs_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_vs_dense_tableau");
    g.sample_size(10);
    for &(family, n) in &[("chain", 40usize), ("diamond", 40), ("layered", 48)] {
        let es = edges(family, n);
        let (lp, _) = deadline_lp(n, &es, 3.0 * n as f64);
        g.bench_with_input(BenchmarkId::new("sparse_revised", family), &lp, |b, lp| {
            b.iter(|| lp.solve().unwrap())
        });
        g.bench_with_input(BenchmarkId::new("dense_tableau", family), &lp, |b, lp| {
            b.iter(|| tableau::solve_reference(lp).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_warm_vs_cold_resolve,
    bench_bisection_pipeline,
    bench_sparse_vs_dense
);
criterion_main!(benches);
