//! The complete two-phase algorithm with certificates.

pub use crate::allotment::Phase1;
use crate::allotment::{round_allotment, solve_allotment_with, AllotmentRequest, AllotmentResult};
use crate::error::CoreError;
use crate::list::{list_schedule, Priority};
use crate::schedule::Schedule;
use mtsp_analysis::minmax;
use mtsp_analysis::ratio::{our_params, Params};
use mtsp_lp::{SolveContext, SolverOptions};
use mtsp_model::{Instance, RoundingOutcome};
use mtsp_obs::{Counter, Counters};

/// Configuration of [`schedule_jz_with`].
#[derive(Debug, Clone, Default)]
pub struct JzConfig {
    /// Parameter override; `None` selects the paper's `(ρ(m), μ(m))`
    /// (Eq. 19/20 and the `m ≤ 5` special cases).
    pub params: Option<Params>,
    /// List-scheduling tie-break.
    pub priority: Priority,
    /// LP solver options.
    pub solver: SolverOptions,
    /// Skip the Assumption 2 admissibility check (Assumption 1 is always
    /// required). The paper's generalized model (Section 5) only needs the
    /// work function convex in time, which `WorkFunction` handles.
    pub skip_admissibility_check: bool,
    /// Phase-1 formulation, passed to
    /// [`crate::allotment::solve_allotment_with`] as the request's method.
    pub phase1: Phase1,
}

/// Everything the two-phase algorithm produced, with enough detail to
/// recompute every quantity in the Section 4 analysis.
#[derive(Debug, Clone)]
pub struct JzReport {
    /// The feasible schedule delivered by phase 2.
    pub schedule: Schedule,
    /// Parameters `(ρ, μ)` used.
    pub params: Params,
    /// The fractional LP optimum of phase 1.
    pub lp: AllotmentResult,
    /// Per-task rounding outcomes of phase 1.
    pub rounding: Vec<RoundingOutcome>,
    /// The phase-1 allotment `α′` (before capping at `μ`).
    pub alloc_prime: Vec<usize>,
    /// The final allotment `α` (`l_j = min(l′_j, μ)`).
    pub alloc: Vec<usize>,
    /// The a-priori ratio bound `r(m)` of the min–max program at the used
    /// parameters (Lemma 4.5).
    pub guarantee: f64,
    /// `max{L*, W*/m}` — the lower bound used for observed ratios.
    pub lower_bound: f64,
    /// Deterministic counter *delta* attributed to this solve: the
    /// context's counters diffed around [`schedule_jz_in`]. A cached
    /// report replays the identical delta, so aggregated totals are
    /// byte-stable across cache modes and worker counts.
    pub counters: Counters,
}

impl JzReport {
    /// Observed quality `Cmax / max{L*, W*/m} ≥ Cmax / OPT`; always at
    /// most [`JzReport::guarantee`] by Theorem 4.1.
    pub fn observed_ratio(&self) -> f64 {
        if self.lower_bound <= 0.0 {
            1.0
        } else {
            self.schedule.makespan() / self.lower_bound
        }
    }

    /// Observed quality against the (tighter) LP optimum `C*max`.
    pub fn ratio_vs_cstar(&self) -> f64 {
        if self.lp.cstar <= 0.0 {
            1.0
        } else {
            self.schedule.makespan() / self.lp.cstar
        }
    }
}

/// Validates `(ρ, μ)` against the machine count `m` — the one domain
/// check shared by the batch pipeline and the online session's epoch
/// re-plans.
pub fn validate_params(params: &Params, m: usize) -> Result<(), CoreError> {
    if params.mu == 0 || params.mu > m {
        return Err(CoreError::InvalidParameter("mu must lie in 1..=m"));
    }
    if !(0.0..=1.0).contains(&params.rho) {
        return Err(CoreError::InvalidParameter("rho must lie in [0, 1]"));
    }
    Ok(())
}

/// Runs the Jansen–Zhang two-phase algorithm with default configuration:
/// the paper's parameters, task-id tie-break and default LP options.
pub fn schedule_jz(ins: &Instance) -> Result<JzReport, CoreError> {
    schedule_jz_with(ins, &JzConfig::default())
}

/// Runs the algorithm with explicit configuration.
pub fn schedule_jz_with(ins: &Instance, cfg: &JzConfig) -> Result<JzReport, CoreError> {
    schedule_jz_in(&mut SolveContext::new(), ins, cfg)
}

/// Runs the algorithm through a caller-supplied LP [`SolveContext`]:
/// phase 1 (either formulation) reuses the context's buffers — and, for
/// the bisection, its warm-start basis across deadline probes. The engine
/// worker pool holds one context per worker and threads it through every
/// job; outputs are identical to [`schedule_jz_with`] regardless of what
/// the context solved before.
pub fn schedule_jz_in(
    ctx: &mut SolveContext,
    ins: &Instance,
    cfg: &JzConfig,
) -> Result<JzReport, CoreError> {
    let m = ins.m();
    if !cfg.skip_admissibility_check {
        if let Some(task) = ins
            .verify_assumptions()
            .iter()
            .position(|r| !r.admissible())
        {
            return Err(CoreError::InadmissibleInstance { task });
        }
    }
    let params = cfg.params.unwrap_or_else(|| our_params(m));
    validate_params(&params, m)?;
    let counters_at_entry = *ctx.counters();

    // Phase 1: LP + rounding.
    let lp = {
        let _span = mtsp_obs::span!(match cfg.phase1 {
            Phase1::Lp => "phase1.lp",
            Phase1::Bisection => "phase1.bisection",
        });
        let req = AllotmentRequest {
            method: cfg.phase1,
            ..AllotmentRequest::default()
        };
        solve_allotment_with(ctx, ins, req, &cfg.solver)?
    };
    ctx.counters_mut().inc(Counter::RoundingPasses);
    let (alloc_prime, rounding) = {
        let _span = mtsp_obs::span!("phase1.rounding");
        round_allotment(ins, &lp.x, params.rho)?
    };

    // Phase 2: cap at mu and LIST.
    let alloc: Vec<usize> = alloc_prime.iter().map(|&l| l.min(params.mu)).collect();
    ctx.counters_mut()
        .add(Counter::ListSteps, alloc.len() as u64);
    let schedule = {
        let _span = mtsp_obs::span!("phase2.list");
        list_schedule(ins, &alloc, cfg.priority)
    };

    let guarantee = minmax::objective(m, params.mu, params.rho);
    let lower_bound = lp.lower_bound(m).max(ins.combinatorial_lower_bound());
    let counters = ctx.counters().diff(&counters_at_entry);
    Ok(JzReport {
        schedule,
        params,
        lp,
        rounding,
        alloc_prime,
        alloc,
        guarantee,
        lower_bound,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsp_dag::Dag;
    use mtsp_model::{generate as igen, Profile};

    fn random(n: usize, m: usize, seed: u64) -> Instance {
        igen::random_instance(
            igen::DagFamily::Layered,
            igen::CurveFamily::Mixed,
            n,
            m,
            seed,
        )
    }

    #[test]
    fn end_to_end_feasible_and_within_guarantee() {
        for (m, seed) in [(2usize, 1u64), (4, 2), (8, 3), (16, 4)] {
            let ins = random(20, m, seed);
            let rep = schedule_jz(&ins).unwrap();
            rep.schedule.verify(&ins).unwrap();
            assert!(
                rep.ratio_vs_cstar() <= rep.guarantee + 1e-6,
                "m={m} seed={seed}: ratio {} > guarantee {}",
                rep.ratio_vs_cstar(),
                rep.guarantee
            );
            assert!(rep.observed_ratio() >= 1.0 - 1e-9);
            // Makespan at least the lower bound.
            assert!(rep.schedule.makespan() >= rep.lower_bound - 1e-6);
        }
    }

    #[test]
    fn capping_never_exceeds_mu() {
        let ins = random(30, 12, 5);
        let rep = schedule_jz(&ins).unwrap();
        for (&l, &lp) in rep.alloc.iter().zip(&rep.alloc_prime) {
            assert!(l <= rep.params.mu);
            assert!(l <= lp);
            assert!(l >= 1);
        }
    }

    #[test]
    fn lemma_4_3_and_4_4_inequalities_hold() {
        for seed in 0..6 {
            let m = 8usize;
            let ins = random(24, m, seed);
            let rep = schedule_jz(&ins).unwrap();
            let prof = rep.schedule.slot_profile(rep.params.mu);
            let (rho, mu) = (rep.params.rho, rep.params.mu as f64);
            let mf = m as f64;
            // Lemma 4.3.
            let lhs = (1.0 + rho) * prof.t1 / 2.0 + (mu / mf).min((1.0 + rho) / 2.0) * prof.t2;
            assert!(
                lhs <= rep.lp.cstar + 1e-6,
                "seed {seed}: Lemma 4.3 violated: {lhs} > {}",
                rep.lp.cstar
            );
            // Lemma 4.4.
            let cmax = rep.schedule.makespan();
            let rhs = 2.0 * mf * rep.lp.cstar / (2.0 - rho)
                + (mf - mu) * prof.t1
                + (mf - 2.0 * mu + 1.0) * prof.t2;
            assert!(
                (mf - mu + 1.0) * cmax <= rhs + 1e-6,
                "seed {seed}: Lemma 4.4 violated"
            );
        }
    }

    #[test]
    fn explicit_params_are_respected() {
        let ins = random(15, 6, 9);
        let cfg = JzConfig {
            params: Some(Params { rho: 0.5, mu: 2 }),
            ..JzConfig::default()
        };
        let rep = schedule_jz_with(&ins, &cfg).unwrap();
        assert_eq!(rep.params.mu, 2);
        assert!(rep.alloc.iter().all(|&l| l <= 2));
        rep.schedule.verify(&ins).unwrap();
        assert!(rep.ratio_vs_cstar() <= rep.guarantee + 1e-6);
    }

    #[test]
    fn bisection_phase1_gives_equivalent_pipelines() {
        for seed in [0u64, 4, 9] {
            let ins = random(16, 8, seed);
            let a = schedule_jz(&ins).unwrap();
            let cfg = JzConfig {
                phase1: Phase1::Bisection,
                ..JzConfig::default()
            };
            let b = schedule_jz_with(&ins, &cfg).unwrap();
            b.schedule.verify(&ins).unwrap();
            // Same fractional optimum => same bounds; the rounded schedules
            // may differ slightly if x* sits on a rounding threshold, but
            // both satisfy the same guarantee.
            assert!(
                (a.lp.cstar - b.lp.cstar).abs() <= 1e-4 * (1.0 + a.lp.cstar),
                "seed {seed}: {} vs {}",
                a.lp.cstar,
                b.lp.cstar
            );
            assert!(b.ratio_vs_cstar() <= b.guarantee + 1e-6, "seed {seed}");
        }
    }

    #[test]
    fn bad_params_rejected() {
        let ins = random(5, 4, 0);
        let cfg = JzConfig {
            params: Some(Params { rho: 2.0, mu: 1 }),
            ..JzConfig::default()
        };
        assert!(matches!(
            schedule_jz_with(&ins, &cfg),
            Err(CoreError::InvalidParameter(_))
        ));
        let cfg = JzConfig {
            params: Some(Params { rho: 0.2, mu: 9 }),
            ..JzConfig::default()
        };
        assert!(schedule_jz_with(&ins, &cfg).is_err());
    }

    #[test]
    fn inadmissible_instance_rejected_unless_opted_out() {
        // A2' holds but A2 fails: admissibility check rejects; opting out
        // still produces a feasible schedule (generalized model).
        let p = Profile::counterexample_a2(0.01, 4).unwrap();
        let ins = Instance::new(Dag::new(2), vec![p.clone(), p]).unwrap();
        assert!(matches!(
            schedule_jz(&ins),
            Err(CoreError::InadmissibleInstance { .. })
        ));
        let cfg = JzConfig {
            skip_admissibility_check: true,
            ..JzConfig::default()
        };
        let rep = schedule_jz_with(&ins, &cfg).unwrap();
        rep.schedule.verify(&ins).unwrap();
    }

    #[test]
    fn single_task_schedules_at_zero() {
        let ins =
            Instance::new(Dag::new(1), vec![Profile::power_law(4.0, 0.5, 4).unwrap()]).unwrap();
        let rep = schedule_jz(&ins).unwrap();
        assert_eq!(rep.schedule.task(0).start, 0.0);
        rep.schedule.verify(&ins).unwrap();
    }

    #[test]
    fn report_ratios_degenerate_gracefully() {
        let ins = Instance::new(Dag::new(1), vec![Profile::constant(1.0, 2).unwrap()]).unwrap();
        let rep = schedule_jz(&ins).unwrap();
        assert!(rep.observed_ratio() >= 1.0 - 1e-9);
        assert!(rep.ratio_vs_cstar() >= 1.0 - 1e-9);
    }
}
