//! Event-driven replay of an arrival [`Scenario`] through a
//! [`ScheduleSession`] — the online counterpart of [`crate::online`].
//!
//! The replay plays executor to the session's planner: it walks the
//! scenario's event stream (task arrivals with their edges, machine-count
//! changes) interleaved with realized completions, asks the session to
//! **re-plan the not-yet-started suffix at every epoch** (any batch of
//! arrivals or a machine change), and dispatches pending tasks greedily —
//! LIST with the session's current allotments — with realized durations
//! `p_j(l_j) · ξ_j` under a [`NoiseModel`].
//!
//! Two contracts anchor it to the rest of the workspace:
//!
//! * **batch equivalence** — replaying [`Scenario::batch`]`(ins)` with
//!   [`NoiseModel::None`] reproduces `mtsp_core::list_schedule` on the
//!   session's (= the batch pipeline's) allotments *bit-exactly*;
//! * **determinism** — the realized schedule and every epoch's plan are
//!   pure functions of `(scenario, config, seed)`; warm LP starts and
//!   cross-epoch LP reuse only change re-plan latency, never a byte
//!   (asserted in the engine's session tests).

use crate::error::SimError;
use crate::online::{draw_noise_factors, NoiseModel};
use mtsp_core::{Ord64, Priority, Schedule, ScheduledTask};
use mtsp_dag::{paths, Dag};
use mtsp_engine::{ScheduleSession, SessionConfig};
use mtsp_model::textio::Scenario;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Replay configuration.
#[derive(Debug, Clone, Default)]
pub struct ReplayConfig {
    /// Planner configuration (phase-1 formulation, parameters; the
    /// dispatch tie-break comes from `session.jz.priority`).
    pub session: SessionConfig,
    /// Execution-time noise applied to realized durations.
    pub noise: NoiseModel,
    /// Noise seed (one factor per task, drawn in task-id order).
    pub seed: u64,
}

/// One epoch of the replay: re-plan trigger counts plus the session's
/// epoch stats. `wall` is wall-clock re-plan latency — non-deterministic,
/// so reports must exclude it.
#[derive(Debug, Clone, Copy)]
pub struct EpochTrace {
    /// Event time of the epoch.
    pub time: f64,
    /// Tasks that arrived at this epoch.
    pub arrivals: usize,
    /// Whether a machine-count change triggered (or co-triggered) it.
    pub machine_change: bool,
    /// Pending tasks re-planned.
    pub pending: usize,
    /// The suffix LP bound on the residual makespan (relative to `time`).
    pub cstar: f64,
    /// Simplex iterations of the re-solve.
    pub lp_iterations: usize,
    /// Deterministic counter delta of the epoch (see
    /// [`mtsp_engine::EpochStats::counters`]).
    pub counters: mtsp_obs::Counters,
    /// Re-plan wall-clock latency (non-deterministic).
    pub wall: Duration,
}

/// Everything one replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The realized schedule (starts, frozen allotments, realized
    /// durations), indexed by scenario task id.
    pub schedule: Schedule,
    /// Realized makespan.
    pub makespan: f64,
    /// One trace entry per re-plan epoch.
    pub epochs: Vec<EpochTrace>,
    /// Total re-plan wall-clock time (non-deterministic).
    pub replan_wall: Duration,
}

impl ReplayOutcome {
    /// Sum of epoch LP iterations (deterministic latency proxy).
    pub fn lp_iterations(&self) -> usize {
        self.epochs.iter().map(|e| e.lp_iterations).sum()
    }
}

const fn tol(t: f64) -> f64 {
    1e-12 * (1.0 + t.abs())
}

/// Replays `scenario` through a fresh [`ScheduleSession`]. See the module
/// docs for the contract.
pub fn replay(scenario: &Scenario, cfg: &ReplayConfig) -> Result<ReplayOutcome, SimError> {
    let ins = &scenario.ins;
    let n = ins.n();
    let m_profile = ins.m();
    let xi = draw_noise_factors(cfg.noise, n, cfg.seed)?;
    let fail = |e: mtsp_engine::SessionError| SimError::ReplayFailure(e.to_string());
    let mut session = ScheduleSession::new(m_profile, cfg.session.clone()).map_err(fail)?;
    let priority = session.config().jz.priority;

    // Arrival order: task ids stably sorted by arrival time. Ties keep id
    // order, so a batch of simultaneous arrivals is numbered by the
    // session exactly like the scenario numbers it — `Scenario::batch`
    // replays then hand the planner the *identical* LP the batch pipeline
    // solves (not a permutation of it, whose degenerate optima a solver
    // may break differently), which is what makes the batch-equivalence
    // contract bit-exact by construction. Edges are attached after the
    // whole tie-batch has arrived (arrivals respect precedence, a
    // `Scenario::new` invariant, so a pred is never in a *later* batch).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scenario.arrival[a]
            .partial_cmp(&scenario.arrival[b])
            .expect("scenario arrivals are finite")
    });

    // Executor state, indexed by scenario task id.
    let mut sess_of = vec![usize::MAX; n];
    let mut arrived = vec![false; n];
    let mut unfinished_preds: Vec<usize> = vec![0; n];
    let mut ready_time = vec![0.0f64; n];
    let mut finished = vec![false; n];
    let mut prio = vec![0.0f64; n];
    let mut placed = vec![
        ScheduledTask {
            start: 0.0,
            alloc: 1,
            duration: 0.0,
        };
        n
    ];
    let mut available: BinaryHeap<Reverse<(Ord64, Ord64, usize)>> = BinaryHeap::new();
    let mut waiting: Vec<usize> = Vec::new();
    let mut newly_ready: Vec<usize> = Vec::new();
    let mut running: BinaryHeap<Reverse<(Ord64, usize)>> = BinaryHeap::new();
    let mut epochs: Vec<EpochTrace> = Vec::new();

    let mut m_active = m_profile;
    let mut busy = 0usize;
    let mut next_arr = 0usize;
    let mut next_mev = 0usize;
    let mut done = 0usize;
    let mut now = f64::NEG_INFINITY;

    // The planner's dispatch priorities, recomputed at every epoch from
    // what it knows and nothing more: planned/frozen allotments (1 before
    // the first plan covering a task), and — for bottom levels — only the
    // *arrived* subgraph. Folding in unarrived tasks would make the
    // dispatcher clairvoyant and bias the online-vs-batch ratio.
    let recompute_prio =
        |prio: &mut Vec<f64>, session: &ScheduleSession, sess_of: &[usize]| match priority {
            Priority::TaskId => {
                for (j, p) in prio.iter_mut().enumerate() {
                    *p = -(j as f64);
                }
            }
            Priority::BottomLevel => {
                let arrived_ids: Vec<usize> =
                    (0..n).filter(|&j| sess_of[j] != usize::MAX).collect();
                let mut local = vec![usize::MAX; n];
                for (k, &j) in arrived_ids.iter().enumerate() {
                    local[j] = k;
                }
                // Predecessors always arrive no later than successors, so
                // every edge of an arrived task is inside the subgraph.
                let mut sub = Dag::new(arrived_ids.len());
                for &j in &arrived_ids {
                    for &i in ins.dag().preds(j) {
                        sub.add_edge_unchecked(local[i], local[j])
                            .expect("arrived-subgraph edges are in range");
                    }
                }
                let durations: Vec<f64> = arrived_ids
                    .iter()
                    .map(|&j| {
                        let l = alloc_of(session, sess_of, j).unwrap_or(1);
                        ins.profile(j).time(l)
                    })
                    .collect();
                let levels = paths::bottom_levels(&sub, &durations);
                prio.iter_mut().for_each(|p| *p = 0.0);
                for (k, &j) in arrived_ids.iter().enumerate() {
                    prio[j] = levels[k];
                }
            }
            Priority::WidestFirst => {
                for (j, p) in prio.iter_mut().enumerate() {
                    *p = alloc_of(session, sess_of, j).unwrap_or(1) as f64;
                }
            }
        };

    while done < n {
        // Next event: a realized completion, an arrival, or a machine
        // change.
        let next_finish = running
            .peek()
            .map(|&Reverse((f, _))| f.0)
            .unwrap_or(f64::INFINITY);
        let next_arrival = order
            .get(next_arr)
            .map(|&j| scenario.arrival[j])
            .unwrap_or(f64::INFINITY);
        let next_machine = scenario
            .machine_events
            .get(next_mev)
            .map(|&(t, _)| t)
            .unwrap_or(f64::INFINITY);
        let next = next_finish.min(next_arrival).min(next_machine);
        if !next.is_finite() {
            return Err(SimError::ReplayFailure(format!(
                "replay stalled at t = {now}: {done}/{n} tasks finished, nothing running and no \
                 events left"
            )));
        }
        now = if now.is_finite() { now.max(next) } else { next };

        // Realized completions at `now`.
        while let Some(&Reverse((f, j))) = running.peek() {
            if f.0 > now + tol(now) {
                break;
            }
            running.pop();
            busy -= placed[j].alloc;
            finished[j] = true;
            done += 1;
            session.mark_finished(sess_of[j], f.0).map_err(fail)?;
            for &s in ins.dag().succs(j) {
                ready_time[s] = ready_time[s].max(f.0);
                // Successors that have not arrived yet count their
                // unfinished predecessors at arrival time instead.
                if arrived[s] {
                    unfinished_preds[s] -= 1;
                    if unfinished_preds[s] == 0 {
                        newly_ready.push(s);
                    }
                }
            }
        }

        // Machine-count changes at `now`.
        let mut machine_change = false;
        while next_mev < scenario.machine_events.len()
            && scenario.machine_events[next_mev].0 <= now + tol(now)
        {
            let (t, m_new) = scenario.machine_events[next_mev];
            session.set_machines(m_new, t).map_err(fail)?;
            m_active = m_new;
            machine_change = true;
            next_mev += 1;
        }

        // Arrivals at `now`: the whole tie-batch arrives in id order
        // first, then its edges — a pred arriving simultaneously may
        // carry a larger id than its successor.
        let batch_start = next_arr;
        while next_arr < order.len() && scenario.arrival[order[next_arr]] <= now + tol(now) {
            let j = order[next_arr];
            let t = scenario.arrival[j];
            sess_of[j] = session.arrive(ins.profile(j).clone(), t).map_err(fail)?;
            arrived[j] = true;
            ready_time[j] = ready_time[j].max(t);
            next_arr += 1;
        }
        let arrivals = next_arr - batch_start;
        for &j in &order[batch_start..next_arr] {
            let t = scenario.arrival[j];
            for &i in ins.dag().preds(j) {
                if !finished[i] {
                    unfinished_preds[j] += 1;
                }
                session
                    .add_dependency(sess_of[i], sess_of[j], t)
                    .map_err(fail)?;
            }
            if unfinished_preds[j] == 0 {
                newly_ready.push(j);
            }
        }

        // Epoch: any structural event re-plans the pending suffix.
        if arrivals > 0 || machine_change {
            let stats = *session.replan(now).map_err(fail)?;
            recompute_prio(&mut prio, &session, &sess_of);
            epochs.push(EpochTrace {
                time: stats.time,
                arrivals,
                machine_change,
                pending: stats.pending,
                cstar: stats.cstar,
                lp_iterations: stats.lp_iterations,
                counters: stats.counters,
                wall: stats.wall,
            });
        }

        // Dispatch: greedy LIST over ready tasks under the current plan.
        for j in waiting.drain(..).chain(newly_ready.drain(..)) {
            available.push(Reverse((Ord64(ready_time[j]), Ord64(-prio[j]), j)));
        }
        let mut deferred = Vec::new();
        while let Some(&Reverse((rt, _, j))) = available.peek() {
            if rt.0 > now + tol(now) {
                break;
            }
            available.pop();
            let free = m_active.saturating_sub(busy);
            let l = session.planned_alloc(sess_of[j]);
            if l.is_some_and(|l| l <= free) {
                let l = session.mark_started(sess_of[j], now).map_err(fail)?;
                let realized = ins.profile(j).time(l) * xi[j];
                placed[j] = ScheduledTask {
                    start: now,
                    alloc: l,
                    duration: realized,
                };
                busy += l;
                running.push(Reverse((Ord64(now + realized), j)));
            } else {
                deferred.push(j);
            }
        }
        waiting = deferred;
    }

    let schedule = Schedule::new(m_profile, placed);
    let makespan = schedule.makespan();
    let replan_wall = epochs.iter().map(|e| e.wall).sum();
    Ok(ReplayOutcome {
        schedule,
        makespan,
        epochs,
        replan_wall,
    })
}

fn alloc_of(session: &ScheduleSession, sess_of: &[usize], j: usize) -> Option<usize> {
    let s = *sess_of.get(j)?;
    if s == usize::MAX {
        return None;
    }
    session.planned_alloc(s)
}

/// Structural feasibility of a realized replay schedule against its
/// scenario: no task starts before its arrival or before a predecessor's
/// realized completion; every task's allotment fits the machine count
/// *active at its start*; and the busy processors never exceed the
/// profile domain. (After a machine-count drop, tasks started earlier
/// legitimately keep their processors until they drain — so instantaneous
/// busy counts are bounded by the old machine count, not the new one.)
pub fn replay_feasible(scenario: &Scenario, s: &Schedule) -> bool {
    let eps = 1e-9;
    let machine_at = |t: f64| -> usize {
        let mut m = scenario.ins.m();
        for &(et, em) in &scenario.machine_events {
            if et <= t + eps {
                m = em;
            } else {
                break;
            }
        }
        m
    };
    for j in 0..scenario.ins.n() {
        let t = s.task(j);
        if t.start + eps < scenario.arrival[j] || t.alloc > machine_at(t.start) {
            return false;
        }
    }
    for (i, j) in scenario.ins.dag().edges() {
        if s.task(i).finish() > s.task(j).start + eps {
            return false;
        }
    }
    s.slot_profile(1)
        .intervals
        .iter()
        .all(|&(_, _, b, _)| b <= scenario.ins.m())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsp_core::two_phase::{schedule_jz, JzConfig, Phase1};
    use mtsp_core::{list_schedule, Priority};
    use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};
    use mtsp_model::Instance;

    fn random(n: usize, m: usize, seed: u64) -> Instance {
        random_instance(DagFamily::Layered, CurveFamily::Mixed, n, m, seed)
    }

    /// The anchor: a batch scenario with zero noise reproduces the batch
    /// pipeline bit-exactly — session allotments equal `schedule_jz`'s,
    /// and the realized schedule equals `list_schedule` on them.
    #[test]
    fn batch_scenario_reproduces_list_schedule_bit_exactly() {
        for seed in 0..4 {
            let ins = random(20, 6, seed);
            let rep = schedule_jz(&ins).unwrap();
            for prio in [
                Priority::TaskId,
                Priority::BottomLevel,
                Priority::WidestFirst,
            ] {
                let cfg = ReplayConfig {
                    session: SessionConfig {
                        jz: JzConfig {
                            priority: prio,
                            ..JzConfig::default()
                        },
                    },
                    noise: NoiseModel::None,
                    seed,
                };
                let out = replay(&Scenario::batch(ins.clone()), &cfg).unwrap();
                assert_eq!(out.schedule.allotments(), rep.alloc, "seed {seed} {prio:?}");
                let expect = list_schedule(&ins, &rep.alloc, prio);
                assert_eq!(out.schedule, expect, "seed {seed} {prio:?}");
                assert_eq!(out.epochs.len(), 1);
            }
        }
    }

    /// Staggered arrivals under noise stay feasible and deterministic,
    /// with one epoch per distinct arrival time, for both phase-1
    /// formulations.
    #[test]
    fn staggered_arrivals_are_feasible_and_deterministic() {
        let ins = random(16, 4, 11);
        let order = ins.dag().topological_order();
        let mut arrival = vec![0.0; ins.n()];
        for (k, &j) in order.iter().enumerate() {
            arrival[j] = (k / 4) as f64 * 0.75;
        }
        let sc = Scenario::new(ins, arrival, Vec::new()).unwrap();
        let mut times: Vec<u64> = sc.arrival.iter().map(|t| t.to_bits()).collect();
        times.sort_unstable();
        times.dedup();
        let distinct_arrivals = times.len();
        let run = |phase1: Phase1| {
            let cfg = ReplayConfig {
                session: SessionConfig {
                    jz: JzConfig {
                        phase1,
                        ..JzConfig::default()
                    },
                },
                noise: NoiseModel::Uniform { epsilon: 0.2 },
                seed: 5,
            };
            replay(&sc, &cfg).unwrap()
        };
        for phase1 in [Phase1::Lp, Phase1::Bisection] {
            let out = run(phase1);
            assert_eq!(out.schedule, run(phase1).schedule, "{phase1:?}");
            assert_eq!(out.epochs.len(), distinct_arrivals, "{phase1:?}");
            assert!(replay_feasible(&sc, &out.schedule), "{phase1:?}");
            for e in &out.epochs {
                assert!(e.cstar.is_finite() && e.cstar >= 0.0);
            }
            // Later epochs re-plan strictly fewer tasks than arrived in
            // total: the committed prefix is frozen.
            assert!(out.epochs[3].pending <= sc.ins.n());
        }
    }

    /// A machine-count drop mid-stream triggers an epoch and the replay
    /// respects the reduced capacity from that point on.
    #[test]
    fn machine_change_replans_and_respects_capacity() {
        let ins = random_instance(DagFamily::Independent, CurveFamily::PowerLaw, 8, 4, 3);
        let sc = Scenario::new(ins.clone(), vec![0.0; 8], vec![(0.5, 2)]).unwrap();
        let out = replay(&sc, &ReplayConfig::default()).unwrap();
        assert!(replay_feasible(&sc, &out.schedule));
        assert!(out.epochs.iter().any(|e| e.machine_change));
        for j in 0..8 {
            let t = out.schedule.task(j);
            if t.start >= 0.5 {
                assert!(t.alloc <= 2, "task {j} started wide after the drop");
            }
        }
        // Busy processors after the drop (and after pre-drop tasks have
        // drained) stay within the reduced machine.
        let profile = out.schedule.slot_profile(1);
        let drained = out
            .schedule
            .tasks()
            .iter()
            .filter(|t| t.start < 0.5)
            .map(|t| t.finish())
            .fold(0.0f64, f64::max);
        for &(lo, _, b, _) in &profile.intervals {
            if lo >= drained - 1e-9 {
                assert!(b <= 2, "busy {b} > 2 at t = {lo}");
            }
        }
    }

    #[test]
    fn invalid_noise_is_rejected_with_a_sim_error() {
        let ins = random(6, 2, 0);
        let cfg = ReplayConfig {
            noise: NoiseModel::Uniform { epsilon: 1.5 },
            ..ReplayConfig::default()
        };
        match replay(&Scenario::batch(ins), &cfg) {
            Err(SimError::InvalidNoise { kind, .. }) => assert_eq!(kind, "uniform"),
            other => panic!("expected InvalidNoise, got {other:?}"),
        }
    }
}
