//! Classical LP test problems: known optima, adversarial pivoting
//! behaviour (Klee–Minty), structured degeneracy (assignment), and a
//! transportation instance — exercised against both solvers.

use mtsp_lp::{tableau, Lp, Relation, Status};

fn check_all(lp: &Lp, expect: f64) {
    let a = lp.solve().expect("revised simplex");
    assert_eq!(a.status, Status::Optimal);
    assert!(
        (a.objective - expect).abs() < 1e-6 * (1.0 + expect.abs()),
        "revised: {} vs {expect}",
        a.objective
    );
    assert!(lp.infeasibility_at(&a.x) < 1e-6);

    let b = tableau::solve_reference(lp).expect("tableau simplex");
    assert_eq!(b.status, Status::Optimal);
    assert!(
        (b.objective - expect).abs() < 1e-6 * (1.0 + expect.abs()),
        "tableau: {} vs {expect}",
        b.objective
    );
}

/// Klee–Minty cube of dimension `d`: max Σ 2^{d−i} x_i subject to the
/// perturbed cube constraints; optimum 5^d at the "far" vertex. Dantzig
/// pricing famously visits many vertices; correctness is what we check.
#[allow(clippy::needless_range_loop)] // dimension index is the math
fn klee_minty(d: usize) -> (Lp, f64) {
    let mut lp = Lp::minimize();
    // maximize sum 2^{d-1-i} x_i -> minimize the negation
    let x: Vec<_> = (0..d)
        .map(|i| lp.add_var(0.0, f64::INFINITY, -(2f64.powi((d - 1 - i) as i32))))
        .collect();
    for i in 0..d {
        // 2 sum_{j<i} 2^{i-j-1}? Standard form: x_i + 2 sum_{j<i} 2^{i-j-1} x_j <= 5^i ... use
        // the common variant: for i-th row: (sum_{j<i} 2^{i-j} x_j) + x_i <= 5^{i+1}.
        let mut coeffs = Vec::new();
        for j in 0..i {
            coeffs.push((x[j], 2f64.powi((i - j) as i32)));
        }
        coeffs.push((x[i], 1.0));
        lp.add_row(&coeffs, Relation::Le, 5f64.powi(i as i32 + 1));
    }
    (lp, -(5f64.powi(d as i32)))
}

#[allow(clippy::needless_range_loop)]
#[test]
fn klee_minty_cubes() {
    for d in [2usize, 4, 6, 8] {
        let (lp, expect) = klee_minty(d);
        check_all(&lp, expect);
    }
}

#[allow(clippy::needless_range_loop)]
#[test]
fn transportation_problem() {
    // 2 suppliers (30, 40), 3 consumers (20, 25, 25); costs:
    //   s0: 8 6 10
    //   s1: 9 12 7
    // Optimal: s0->c1 25 @6, s0->c0 5 @8?? compute: total demand 70 =
    // supply. LP solves it; optimum checked against a hand solution:
    // s0: c0=5, c1=25 (cost 40+150=190); s1: c0=15, c2=25 (135+175=310);
    // total 500. Alternative: s0 c0 20,c1 10 => 160+60=220; s1 c1 15,c2 25
    // => 180+175=355 total 575. The first is better; assert LP <= 500 and
    // equals the solver consensus.
    let mut lp = Lp::minimize();
    let costs = [[8.0, 6.0, 10.0], [9.0, 12.0, 7.0]];
    let supply = [30.0, 40.0];
    let demand = [20.0, 25.0, 25.0];
    let mut x = [[None; 3]; 2];
    for s in 0..2 {
        for c in 0..3 {
            x[s][c] = Some(lp.add_var(0.0, f64::INFINITY, costs[s][c]));
        }
    }
    for s in 0..2 {
        let coeffs: Vec<_> = (0..3).map(|c| (x[s][c].unwrap(), 1.0)).collect();
        lp.add_row(&coeffs, Relation::Le, supply[s]);
    }
    for c in 0..3 {
        let coeffs: Vec<_> = (0..2).map(|s| (x[s][c].unwrap(), 1.0)).collect();
        lp.add_row(&coeffs, Relation::Eq, demand[c]);
    }
    // Hand-verified optimum: 500 (shipping plan in the comment above).
    check_all(&lp, 500.0);
}

#[allow(clippy::needless_range_loop)]
#[test]
fn degenerate_assignment_polytope() {
    // 3x3 assignment LP (Birkhoff): min cost perfect matching; highly
    // degenerate vertices. Costs chosen with a unique optimum = 15
    // (diagonal 4+5+6).
    let costs = [[4.0, 7.0, 8.0], [7.0, 5.0, 9.0], [8.0, 9.0, 6.0]];
    let mut lp = Lp::minimize();
    let mut x = [[None; 3]; 3];
    for (i, row) in costs.iter().enumerate() {
        for (j, &cij) in row.iter().enumerate() {
            x[i][j] = Some(lp.add_var(0.0, 1.0, cij));
        }
    }
    for i in 0..3 {
        let r: Vec<_> = (0..3).map(|j| (x[i][j].unwrap(), 1.0)).collect();
        lp.add_row(&r, Relation::Eq, 1.0);
        let c: Vec<_> = (0..3).map(|j| (x[j][i].unwrap(), 1.0)).collect();
        lp.add_row(&c, Relation::Eq, 1.0);
    }
    check_all(&lp, 15.0);
}

#[test]
fn diet_style_problem_with_ge_rows() {
    // min 3a + 2b s.t. a + b >= 4, 2a + b >= 5, a,b >= 0: optimum at
    // (1, 3): 3 + 6 = 9.
    let mut lp = Lp::minimize();
    let a = lp.add_var(0.0, f64::INFINITY, 3.0);
    let b = lp.add_var(0.0, f64::INFINITY, 2.0);
    lp.add_row(&[(a, 1.0), (b, 1.0)], Relation::Ge, 4.0);
    lp.add_row(&[(a, 2.0), (b, 1.0)], Relation::Ge, 5.0);
    check_all(&lp, 9.0);
}

#[test]
fn cycling_prone_beale_example() {
    // Beale's classical cycling example (degenerate under naive Dantzig
    // without anti-cycling): min -0.75x4 + 150x5 - 0.02x6 + 6x7 subject to
    // the two degenerate rows + x6 row. Optimum -0.05.
    let mut lp = Lp::minimize();
    let x4 = lp.add_var(0.0, f64::INFINITY, -0.75);
    let x5 = lp.add_var(0.0, f64::INFINITY, 150.0);
    let x6 = lp.add_var(0.0, f64::INFINITY, -0.02);
    let x7 = lp.add_var(0.0, f64::INFINITY, 6.0);
    lp.add_row(
        &[(x4, 0.25), (x5, -60.0), (x6, -1.0 / 25.0), (x7, 9.0)],
        Relation::Le,
        0.0,
    );
    lp.add_row(
        &[(x4, 0.5), (x5, -90.0), (x6, -1.0 / 50.0), (x7, 3.0)],
        Relation::Le,
        0.0,
    );
    lp.add_row(&[(x6, 1.0)], Relation::Le, 1.0);
    check_all(&lp, -0.05);
}
