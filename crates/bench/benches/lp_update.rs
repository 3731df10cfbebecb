//! Product-form (PFI, eta-file) update economics: warm `resolve` against the
//! refactorize-per-resolve baseline on the bisection's deadline-sweep
//! access pattern, up to n ≥ 500.
//!
//! The acceptance target of the factorization-update layer is visible
//! here: after a deadline nudge, a warm resolve re-pivots through
//! product-form eta updates of the standing basis factorization, while
//! the cold baseline (`warm_start = false`) refactorizes and re-pivots
//! from scratch — the per-resolve cost the eta file eliminates. Answers
//! are bitwise-identical either way (asserted in the `mtsp-lp` suite), so
//! the delta is pure factorization reuse. The large entries are for
//! manual perf passes; CI only compiles this bench (`cargo bench
//! --no-run`). The `mtsp audit` gate enforces the same comparison
//! continuously as a deterministic pivot-work floor
//! (`perf_floor_ft_resolve_speedup`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtsp_lp::{Lp, Relation, SolveContext, SolverOptions, VarId};

/// Layers of width 8, complete bipartite between neighbours — the
/// precedence density of the harness's layered family at scale.
fn layered_edges(n: usize) -> Vec<(usize, usize)> {
    let w = 8;
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

/// One resolve per iteration: the deadline bounds alternate between two
/// nearby values (the end-game of a bisection, where probes cluster), so
/// every iteration re-optimizes a freshly perturbed model from the
/// standing basis. Warm rides the eta file; cold refactorizes and
/// re-pivots from scratch — the per-resolve gap the FT layer closes.
fn bench_single_resolve(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_update_resolve");
    g.sample_size(10);
    let warm = SolverOptions::default();
    let cold = SolverOptions {
        warm_start: false,
        ..SolverOptions::default()
    };
    for n in [128usize, 256, 512] {
        let top = 6.5 * n as f64;
        let (lp, completion) = deadline_lp(n, &layered_edges(n), top);
        for (label, opts) in [("warm", &warm), ("cold", &cold)] {
            g.bench_with_input(BenchmarkId::new(label, n), &lp, |b, lp| {
                let mut ctx = SolveContext::new();
                ctx.solve(lp, opts).expect("bench LP solves");
                let mut flip = false;
                b.iter(|| {
                    let d = if flip { top * 0.45 } else { top * 0.44 };
                    flip = !flip;
                    for &v in &completion {
                        ctx.set_var_bounds(v, 0.0, d)
                            .expect("completion var exists");
                    }
                    ctx.resolve(opts).expect("resolve succeeds").objective
                })
            });
        }
    }
    g.finish();
}

/// A ~10-step deadline sweep, descending then backtracking — the access
/// pattern of one whole bisection.
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

/// The whole sweep per iteration: one cold load then nine resolves, warm
/// carrying the basis (and its eta-file factorization) probe to probe,
/// cold restarting every time — the n ≥ 500 form of the acceptance
/// comparison.
fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_update_sweep");
    g.sample_size(10);
    let warm = SolverOptions::default();
    let cold = SolverOptions {
        warm_start: false,
        ..SolverOptions::default()
    };
    for n in [128usize, 512] {
        let top = 6.5 * n as f64;
        let (lp, completion) = deadline_lp(n, &layered_edges(n), top);
        let deadlines = sweep_deadlines(top);
        for (label, opts) in [("warm", &warm), ("cold", &cold)] {
            g.bench_with_input(BenchmarkId::new(label, n), &lp, |b, lp| {
                b.iter(|| {
                    let mut ctx = SolveContext::new();
                    let mut obj = ctx.solve(lp, opts).expect("bench LP solves").objective;
                    for &d in &deadlines[1..] {
                        for &v in &completion {
                            ctx.set_var_bounds(v, 0.0, d)
                                .expect("completion var exists");
                        }
                        let sol = ctx.resolve(opts).expect("resolve succeeds");
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

criterion_group!(benches, bench_single_resolve, bench_sweep);
criterion_main!(benches);
