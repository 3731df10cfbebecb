//! A-posteriori optimality certificates.
//!
//! The revised simplex returns the multipliers `y = c_B B⁻¹` of its final
//! basis. Together with the primal point they form a checkable KKT
//! certificate for `min cᵀx, A x {≤,=,≥} b, l ≤ x ≤ u`:
//!
//! * **primal feasibility** — rows and bounds hold;
//! * **dual sign feasibility** — `y_i ≤ 0` for `≤` rows, `y_i ≥ 0` for
//!   `≥` rows, free for `=` rows (minimization convention with slack
//!   `a·x + s = b`);
//! * **reduced-cost optimality** — `d_j = c_j − y·A_j` is `≥ 0` at a lower
//!   bound, `≤ 0` at an upper bound, `≈ 0` strictly between;
//! * **complementary slackness** — `y_i ≠ 0` only on tight rows.
//!
//! Checking is `O(nnz)` and independent of how the solution was produced,
//! so a bug in the (far more complex) simplex cannot silently return a
//! wrong "optimal" answer without tripping this verifier. The allotment
//! tests of `mtsp-core` run it on every phase-1 solve.

use crate::problem::{Lp, Relation};
use crate::simplex::{Solution, Status};

/// Checks the KKT certificate of an optimal [`Solution`].
///
/// Returns `Err` with a human-readable reason on the first violated
/// condition. Only meaningful for solutions from the revised simplex
/// (which populates `duals`); reference-tableau solutions carry zero
/// duals and should be checked for primal feasibility only.
#[allow(clippy::needless_range_loop)] // variable index pairs x/bounds/d
pub fn verify_optimality(lp: &Lp, sol: &Solution, tol: f64) -> Result<(), String> {
    if sol.status != Status::Optimal {
        return Err(format!("solution status is {:?}, not Optimal", sol.status));
    }
    if sol.x.len() != lp.num_vars() || sol.duals.len() != lp.num_rows() {
        return Err("solution shape does not match the LP".into());
    }
    // Primal feasibility.
    let infeas = lp.infeasibility_at(&sol.x);
    if infeas > tol {
        return Err(format!("primal infeasibility {infeas} exceeds tol {tol}"));
    }
    // Scale-aware tolerance for dual tests.
    let scale = 1.0
        + lp.obj.iter().fold(0.0f64, |a, &c| a.max(c.abs()))
        + sol.duals.iter().fold(0.0f64, |a, &y| a.max(y.abs()));
    let dtol = tol * scale;

    // Dual sign feasibility + complementary slackness.
    for (i, row) in lp.rows.iter().enumerate() {
        let y = sol.duals[i];
        let lhs: f64 = row.coeffs.iter().map(|&(v, a)| a * sol.x[v]).sum();
        let slackness = (row.rhs - lhs).abs();
        match row.rel {
            Relation::Le => {
                if y > dtol {
                    return Err(format!("row {i} (<=): dual {y} must be <= 0"));
                }
            }
            Relation::Ge => {
                if y < -dtol {
                    return Err(format!("row {i} (>=): dual {y} must be >= 0"));
                }
            }
            Relation::Eq => {}
        }
        if y.abs() > dtol && slackness > tol * (1.0 + row.rhs.abs()) {
            return Err(format!(
                "row {i}: dual {y} nonzero but row slack {slackness} > 0"
            ));
        }
    }

    // Reduced costs vs bound status.
    let mut d: Vec<f64> = lp.obj.clone();
    for (i, row) in lp.rows.iter().enumerate() {
        let y = sol.duals[i];
        if y != 0.0 {
            for &(v, a) in &row.coeffs {
                d[v] -= y * a;
            }
        }
    }
    for j in 0..lp.num_vars() {
        let x = sol.x[j];
        let (lb, ub) = (lp.lower[j], lp.upper[j]);
        let at_lower = lb.is_finite() && (x - lb).abs() <= tol * (1.0 + lb.abs());
        let at_upper = ub.is_finite() && (x - ub).abs() <= tol * (1.0 + ub.abs());
        if at_lower && at_upper {
            continue; // fixed variable: any reduced cost is fine
        }
        if at_lower {
            if d[j] < -dtol {
                return Err(format!(
                    "var {j} at lower bound with reduced cost {} < 0",
                    d[j]
                ));
            }
        } else if at_upper {
            if d[j] > dtol {
                return Err(format!(
                    "var {j} at upper bound with reduced cost {} > 0",
                    d[j]
                ));
            }
        } else if d[j].abs() > dtol {
            return Err(format!(
                "var {j} strictly between bounds with reduced cost {}",
                d[j]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textbook() -> Lp {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, -3.0);
        let y = lp.add_var(0.0, f64::INFINITY, -5.0);
        lp.add_row(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_row(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_row(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        lp
    }

    #[test]
    fn certifies_textbook_optimum() {
        let lp = textbook();
        let sol = lp.solve().unwrap();
        verify_optimality(&lp, &sol, 1e-7).expect("valid certificate");
    }

    #[test]
    fn rejects_tampered_primal() {
        let lp = textbook();
        let mut sol = lp.solve().unwrap();
        sol.x[0] += 1.0; // violates row 3
        assert!(verify_optimality(&lp, &sol, 1e-7).is_err());
    }

    #[test]
    fn rejects_tampered_duals() {
        let lp = textbook();
        let mut sol = lp.solve().unwrap();
        for y in sol.duals.iter_mut() {
            *y = 1.0; // wrong sign for <= rows
        }
        assert!(verify_optimality(&lp, &sol, 1e-7).is_err());
    }

    #[test]
    fn rejects_suboptimal_interior_point() {
        // A feasible but suboptimal point with fabricated zero duals:
        // reduced costs equal the (negative) objective -> caught.
        let lp = textbook();
        let sol = Solution {
            status: Status::Optimal,
            objective: 0.0,
            x: vec![1.0, 1.0],
            duals: vec![0.0, 0.0, 0.0],
            iterations: 0,
        };
        let err = verify_optimality(&lp, &sol, 1e-7).unwrap_err();
        assert!(err.contains("reduced cost"), "{err}");
    }

    #[test]
    fn certifies_bounded_and_equality_problems() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, 1.0, -1.0);
        let y = lp.add_var(0.0, 2.0, 1.0);
        lp.add_row(&[(x, 1.0), (y, 1.0)], Relation::Eq, 1.5);
        let sol = lp.solve().unwrap();
        verify_optimality(&lp, &sol, 1e-7).expect("valid certificate");

        let mut lp = Lp::minimize();
        let a = lp.add_var(0.0, f64::INFINITY, 2.0);
        let b = lp.add_var(0.0, 8.0, 3.0);
        lp.add_row(&[(a, 1.0), (b, 1.0)], Relation::Ge, 10.0);
        let sol = lp.solve().unwrap();
        verify_optimality(&lp, &sol, 1e-7).expect("valid certificate");
    }

    #[test]
    fn non_optimal_status_rejected() {
        let mut lp = Lp::minimize();
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(&[(x, 1.0)], Relation::Ge, 2.0);
        let sol = lp.solve().unwrap(); // infeasible
        assert!(verify_optimality(&lp, &sol, 1e-7).is_err());
    }
}
