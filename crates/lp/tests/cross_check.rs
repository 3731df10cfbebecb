//! Property-based cross-validation: the sparse revised bounded-variable
//! simplex and the reference tableau simplex must agree on status and
//! optimal value for random well-scaled LPs — including degenerate and
//! bound-flip-heavy shapes — and warm resolves through a
//! [`mtsp_lp::SolveContext`] must be equivalent to cold solves of the
//! mutated model.

use mtsp_lp::{tableau, Lp, Relation, SolveContext, SolverOptions, Status};
use proptest::prelude::*;

/// A randomly generated LP description (kept simple and well-conditioned).
#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    bounds: Vec<(f64, f64)>,
    costs: Vec<f64>,
    #[allow(clippy::type_complexity)]
    rows: Vec<(Vec<(usize, f64)>, u8, f64)>,
    /// Snap every coefficient/rhs to integers: identical rows and tight
    /// ties everywhere, forcing degenerate vertices and bound flips
    /// through the solver.
    degenerate: bool,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..6, 0u8..2).prop_flat_map(|(nvars, degenerate)| {
        let degenerate = degenerate == 1;
        let bounds =
            proptest::collection::vec((0.0f64..2.0, 2.0f64..6.0).prop_map(|(l, u)| (l, u)), nvars);
        let costs = proptest::collection::vec(-3.0f64..3.0, nvars);
        let row = (
            proptest::collection::vec((0usize..nvars, -2.0f64..2.0), 1..=nvars),
            0u8..3,
            -4.0f64..12.0,
        );
        let rows = proptest::collection::vec(row, 0..5);
        (Just(nvars), bounds, costs, rows, Just(degenerate)).prop_map(
            |(nvars, mut bounds, mut costs, mut rows, degenerate)| {
                if degenerate {
                    for (l, u) in bounds.iter_mut() {
                        *l = l.round();
                        *u = u.round().max(*l);
                    }
                    for c in costs.iter_mut() {
                        *c = c.round();
                    }
                    for (coeffs, _, rhs) in rows.iter_mut() {
                        for (_, a) in coeffs.iter_mut() {
                            *a = a.round();
                        }
                        *rhs = rhs.round();
                    }
                }
                RandomLp {
                    nvars,
                    bounds,
                    costs,
                    rows,
                    degenerate,
                }
            },
        )
    })
}

fn build(r: &RandomLp) -> Lp {
    let mut lp = Lp::minimize();
    let vars: Vec<_> = (0..r.nvars)
        .map(|i| lp.add_var(r.bounds[i].0, r.bounds[i].1, r.costs[i]))
        .collect();
    for (coeffs, rel, rhs) in &r.rows {
        let cs: Vec<_> = coeffs.iter().map(|&(v, a)| (vars[v], a)).collect();
        let rel = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.add_row(&cs, rel, *rhs);
    }
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn solvers_agree_on_random_lps(r in random_lp()) {
        let lp = build(&r);
        let a = lp.solve().expect("revised simplex failed");
        let b = tableau::solve_reference(&lp).expect("tableau simplex failed");
        prop_assert_eq!(
            a.status,
            b.status,
            "status mismatch (degenerate instance: {})",
            r.degenerate
        );
        if a.status == Status::Optimal {
            prop_assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "objective mismatch: revised {} vs tableau {}",
                a.objective,
                b.objective
            );
            prop_assert!(lp.infeasibility_at(&a.x) < 1e-6);
            prop_assert!(lp.infeasibility_at(&b.x) < 1e-6);
            // The reported objective matches the reported point.
            prop_assert!((lp.objective_at(&a.x) - a.objective).abs() < 1e-7);
            // The revised simplex's duals form a valid KKT certificate.
            if let Err(e) = mtsp_lp::verify_optimality(&lp, &a, 1e-6) {
                prop_assert!(false, "certificate rejected: {}", e);
            }
        }
    }

    #[test]
    fn optimum_beats_random_feasible_points(r in random_lp(), t in 0.0f64..1.0) {
        // Whenever the midpoint-ish point is feasible, the solver's optimum
        // must be at least as good (basic sanity of optimality).
        let lp = build(&r);
        let probe: Vec<f64> = r
            .bounds
            .iter()
            .map(|&(l, u)| l + t * (u - l))
            .collect();
        if lp.infeasibility_at(&probe) < 1e-12 {
            let a = lp.solve().expect("revised simplex failed");
            // The LP is feasible, so it is optimal or unbounded.
            match a.status {
                Status::Optimal => {
                    prop_assert!(a.objective <= lp.objective_at(&probe) + 1e-7);
                }
                Status::Unbounded => {}
                Status::Infeasible => prop_assert!(false, "feasible point exists"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Warm-vs-cold equivalence: solve, mutate bounds + rhs in place,
    /// warm-resolve from the old basis — the answer must match a cold
    /// solve of the mutated model (status and value; plus a valid KKT
    /// certificate whenever optimal).
    #[test]
    fn warm_resolve_equals_cold_solve_after_mutation(
        r in random_lp(),
        scale in 0.3f64..1.7,
        shift in -1.5f64..1.5,
    ) {
        let lp = build(&r);
        let opts = SolverOptions::default();
        let mut ctx = SolveContext::new();
        let first = ctx.solve(&lp, &opts).expect("initial solve failed");
        if first.status != Status::Optimal {
            continue; // warm start needs a loaded optimal basis
        }
        // Mutate: rescale every upper bound (tighten or loosen — loosened
        // uppers flip AtUpper variables to fresh bound values) and shift
        // every rhs.
        let mut mutated = lp.clone();
        // VarId handles are assigned densely in insertion order, so a
        // twin builder with the same variable count yields valid ids.
        let ids: Vec<mtsp_lp::VarId> = {
            let mut twin = Lp::minimize();
            (0..r.nvars)
                .map(|j| twin.add_var(r.bounds[j].0, r.bounds[j].1, r.costs[j]))
                .collect()
        };
        for (j, &id) in ids.iter().enumerate() {
            let (l, u0) = r.bounds[j];
            let u = (l + (u0 - l) * scale).max(l);
            ctx.set_var_bounds(id, l, u).expect("bound mutation");
            mutated.set_var_bounds(id, l, u);
        }
        for i in 0..r.rows.len() {
            let rhs = r.rows[i].2 + shift;
            ctx.set_rhs(i, rhs).expect("rhs mutation");
            mutated.set_row_rhs(i, rhs);
        }
        let warm = ctx.resolve(&opts).expect("warm resolve failed");
        let cold = mutated.solve().expect("cold solve failed");
        prop_assert_eq!(warm.status, cold.status, "status mismatch after mutation");
        if warm.status == Status::Optimal {
            prop_assert!(
                (warm.objective - cold.objective).abs() <= 1e-6 * (1.0 + cold.objective.abs()),
                "objective mismatch: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            prop_assert!(mutated.infeasibility_at(&warm.x) < 1e-6);
            if let Err(e) = mtsp_lp::verify_optimality(&mutated, &warm, 1e-6) {
                prop_assert!(false, "warm certificate rejected: {}", e);
            }
        }
    }

    /// `warm_start = false` is the cold baseline: a resolve through the
    /// context must be bitwise identical to a fresh solve of the mutated
    /// model — including iteration counts.
    #[test]
    fn cold_resolve_is_bitwise_a_fresh_solve(r in random_lp(), scale in 0.3f64..1.7) {
        let lp = build(&r);
        let cold_opts = SolverOptions { warm_start: false, ..SolverOptions::default() };
        let mut ctx = SolveContext::new();
        let first = ctx.solve(&lp, &cold_opts).expect("initial solve failed");
        if first.status != Status::Optimal {
            continue;
        }
        let ids: Vec<mtsp_lp::VarId> = {
            let mut twin = Lp::minimize();
            (0..r.nvars)
                .map(|j| twin.add_var(r.bounds[j].0, r.bounds[j].1, r.costs[j]))
                .collect()
        };
        let mut mutated = lp.clone();
        for (j, &id) in ids.iter().enumerate() {
            let (l, u0) = r.bounds[j];
            let u = (l + (u0 - l) * scale).max(l);
            ctx.set_var_bounds(id, l, u).expect("bound mutation");
            mutated.set_var_bounds(id, l, u);
        }
        let through_ctx = ctx.resolve(&cold_opts).expect("cold resolve failed");
        let fresh = mutated.solve_with(&cold_opts).expect("fresh solve failed");
        prop_assert_eq!(through_ctx.status, fresh.status);
        prop_assert_eq!(through_ctx.iterations, fresh.iterations);
        prop_assert_eq!(&through_ctx.x, &fresh.x);
        prop_assert_eq!(&through_ctx.duals, &fresh.duals);
    }
}
