//! Long-lived online scheduling sessions: incremental events, epoch
//! re-planning, frozen commitments.
//!
//! The batch engine solves closed instances; a serving loop faces an
//! *open* one — tasks arrive with their speedup profiles, precedence
//! edges appear with them, the machine grows or shrinks — and must keep a
//! plan current without ever touching work that has already started. A
//! [`ScheduleSession`] is that planner:
//!
//! * **events** ([`ScheduleSession::arrive`],
//!   [`ScheduleSession::add_dependency`],
//!   [`ScheduleSession::set_machines`]) mutate the known task set;
//! * **commitments** ([`ScheduleSession::mark_started`],
//!   [`ScheduleSession::mark_finished`]) freeze a task's allotment and
//!   record realized progress — started tasks are never re-planned;
//! * **epochs** ([`ScheduleSession::replan`]) re-run phase 1 of the
//!   Jansen–Zhang pipeline over the not-yet-started suffix, with frozen
//!   predecessors and late arrivals entering as *release times*
//!   ([`mtsp_core::AllotmentRequest::releases`]), and round the
//!   fractional solution into fresh allotments for every pending task.
//!
//! Every epoch re-solve runs through a session-owned LP [`SolveContext`],
//! so with [`Bisection`](mtsp_core::Phase1::Bisection) each epoch's
//! deadline sweep warm-starts probe-to-probe from the previous basis.
//! On top of that, consecutive
//! epochs that share LP *structure* (no arrival, no new edge, same
//! machine count — only release times moved) skip the rebuild entirely
//! and mutate the previous epoch's still-loaded LP in place
//! ([`mtsp_core::SuffixLpReuse`], `engine.lp_reuses`). Outputs are
//! byte-identical to rebuilding every epoch from scratch (asserted in
//! tests), so warm epochs are purely a latency optimization.
//!
//! Dispatching (deciding *when* each pending task starts under the
//! current allotments) is the executor's job — see the event-driven
//! replay in `mtsp-sim`, which drives a session from an arrival scenario
//! and measures realized makespans.

use mtsp_analysis::ratio::our_params;
use mtsp_core::allotment::{
    round_allotment, solve_allotment_with, AllotmentRequest, SuffixLpReuse,
};
use mtsp_core::two_phase::{validate_params, JzConfig};
use mtsp_core::CoreError;
use mtsp_dag::Dag;
use mtsp_lp::SolveContext;
use mtsp_model::{assumptions, Instance, ModelError, Profile};
use mtsp_obs::{Counter, Counters};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors of the online session API.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// An event carried a timestamp earlier than the session clock.
    TimeRegression {
        /// Current session time.
        now: f64,
        /// The event's (earlier) timestamp.
        event: f64,
    },
    /// A task id outside the known task set.
    UnknownTask(usize),
    /// A machine-count change outside `1..=` the profile domain.
    MachineCount {
        /// Requested machine count.
        requested: usize,
        /// The profile domain (maximum machine count).
        max: usize,
    },
    /// An arriving profile was defined for the wrong machine count.
    ProfileDomain {
        /// The profile's machine count.
        found: usize,
        /// The session's profile domain.
        expected: usize,
    },
    /// An arriving profile violates the model assumptions (and the
    /// session was not configured to skip the admissibility check).
    Inadmissible(usize),
    /// The operation requires a task that has not started yet.
    TaskNotPending(usize),
    /// The operation requires a running task.
    TaskNotRunning(usize),
    /// A task was started while a predecessor was unfinished.
    PredecessorUnfinished {
        /// The unfinished predecessor.
        pred: usize,
        /// The task being started.
        succ: usize,
    },
    /// A dependency edge that would close a cycle.
    CycleEdge {
        /// Edge source.
        pred: usize,
        /// Edge target.
        succ: usize,
    },
    /// A task was started without a current plan covering it (call
    /// [`ScheduleSession::replan`] after events), or its planned
    /// allotment no longer fits the active machine count.
    Unplanned(usize),
    /// The phase-1 re-solve failed.
    Core(CoreError),
    /// Sub-instance construction failed (internal; indicates a bug).
    Model(ModelError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::TimeRegression { now, event } => {
                write!(f, "event at t = {event} precedes session time {now}")
            }
            SessionError::UnknownTask(j) => write!(f, "unknown task {j}"),
            SessionError::MachineCount { requested, max } => {
                write!(f, "machine count {requested} outside 1..={max}")
            }
            SessionError::ProfileDomain { found, expected } => write!(
                f,
                "arriving profile is defined for m = {found}, session expects {expected}"
            ),
            SessionError::Inadmissible(j) => {
                write!(
                    f,
                    "arriving task {j} violates the model assumptions (A1/A2)"
                )
            }
            SessionError::TaskNotPending(j) => write!(f, "task {j} has already started"),
            SessionError::TaskNotRunning(j) => write!(f, "task {j} is not running"),
            SessionError::PredecessorUnfinished { pred, succ } => {
                write!(f, "task {succ} started before predecessor {pred} finished")
            }
            SessionError::CycleEdge { pred, succ } => {
                write!(f, "edge ({pred}, {succ}) would close a precedence cycle")
            }
            SessionError::Unplanned(j) => {
                write!(
                    f,
                    "task {j} has no current planned allotment (replan required)"
                )
            }
            SessionError::Core(e) => write!(f, "epoch re-plan failed: {e}"),
            SessionError::Model(e) => write!(f, "suffix construction failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> Self {
        SessionError::Core(e)
    }
}

impl From<ModelError> for SessionError {
    fn from(e: ModelError) -> Self {
        SessionError::Model(e)
    }
}

/// Lifecycle state of one session task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskState {
    /// Known but not started; re-planned at every epoch.
    Pending,
    /// Started (allotment frozen) and not yet finished.
    Running {
        /// Start time.
        start: f64,
    },
    /// Completed.
    Finished {
        /// Completion time.
        finish: f64,
    },
}

/// Session configuration.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// The two-phase pipeline configuration: parameters `(ρ, μ)` (default
    /// = the paper's, for the *active* machine count), phase-1 formulation
    /// (with [`Bisection`](mtsp_core::Phase1::Bisection) each epoch
    /// warm-starts probe-to-probe), LP options, dispatch priority,
    /// admissibility policy.
    pub jz: JzConfig,
}

impl SessionConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one epoch re-plan produced (wall-clock latency included — keep it
/// out of deterministic reports).
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Session time of the epoch.
    pub time: f64,
    /// Pending (re-planned) tasks at the epoch.
    pub pending: usize,
    /// The suffix LP optimum: a lower bound on the residual makespan
    /// (time past `time` until every pending task can complete). 0 when
    /// nothing was pending.
    pub cstar: f64,
    /// Simplex iterations of the re-solve.
    pub lp_iterations: usize,
    /// Deterministic counter delta attributed to this epoch (LP events of
    /// the re-solve plus the session's own epoch/frozen-task tallies) — a
    /// pure function of the event history, independent of context reuse.
    pub counters: Counters,
    /// Re-plan wall-clock latency (non-deterministic).
    pub wall: Duration,
}

/// A long-lived online scheduling session. See the module docs.
///
/// ```
/// use mtsp_engine::{ScheduleSession, SessionConfig};
/// use mtsp_model::Profile;
///
/// let mut s = ScheduleSession::new(4, SessionConfig::new()).unwrap();
/// let a = s.arrive(Profile::power_law(8.0, 1.0, 4).unwrap(), 0.0).unwrap();
/// let b = s.arrive(Profile::amdahl(5.0, 0.2, 4).unwrap(), 0.0).unwrap();
/// s.add_dependency(a, b, 0.0).unwrap();
/// let epoch = *s.replan(0.0).unwrap();
/// assert_eq!(epoch.pending, 2);
/// let alloc = s.planned_alloc(a).unwrap();
/// s.mark_started(a, 0.0).unwrap();
/// s.mark_finished(a, s.planned_duration_of(a, alloc)).unwrap();
/// ```
#[derive(Debug)]
pub struct ScheduleSession {
    cfg: SessionConfig,
    /// The profile domain: every arriving profile is defined for this m.
    m_profile: usize,
    /// The active machine count (`set_machines` moves it in
    /// `1..=m_profile`).
    m: usize,
    profiles: Vec<Profile>,
    arrival: Vec<f64>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    state: Vec<TaskState>,
    /// Current planned (pending) or frozen (started) allotment.
    alloc: Vec<Option<usize>>,
    now: f64,
    /// Dedicated phase-1 context: only epoch re-solves of *this* session
    /// touch it, so its load stamp proves whether the previous epoch's LP
    /// is still loaded — immune to whatever interleaves on the caller's
    /// context.
    epoch_ctx: SolveContext,
    epoch_reuse: SuffixLpReuse,
    epochs: Vec<EpochStats>,
}

impl ScheduleSession {
    /// Opens a session on `m ≥ 1` machines (also the profile domain every
    /// arriving task must be defined for).
    pub fn new(m: usize, cfg: SessionConfig) -> Result<Self, SessionError> {
        if m == 0 {
            return Err(SessionError::MachineCount {
                requested: 0,
                max: 0,
            });
        }
        Ok(ScheduleSession {
            cfg,
            m_profile: m,
            m,
            profiles: Vec::new(),
            arrival: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            state: Vec::new(),
            alloc: Vec::new(),
            now: 0.0,
            epoch_ctx: SolveContext::new(),
            epoch_reuse: SuffixLpReuse::new(),
            epochs: Vec::new(),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Current session time (the latest event timestamp).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The active machine count.
    pub fn machines(&self) -> usize {
        self.m
    }

    /// The profile domain (maximum machine count).
    pub fn profile_machines(&self) -> usize {
        self.m_profile
    }

    /// Number of tasks that have arrived so far.
    pub fn n(&self) -> usize {
        self.profiles.len()
    }

    /// Lifecycle state of task `j`.
    pub fn task_state(&self, j: usize) -> Result<TaskState, SessionError> {
        self.state
            .get(j)
            .copied()
            .ok_or(SessionError::UnknownTask(j))
    }

    /// The current planned (pending task) or frozen (started task)
    /// allotment of `j`; `None` until the first epoch covers it.
    pub fn planned_alloc(&self, j: usize) -> Option<usize> {
        self.alloc.get(j).copied().flatten()
    }

    /// Arrival time of task `j`.
    pub fn arrival_of(&self, j: usize) -> Result<f64, SessionError> {
        self.arrival
            .get(j)
            .copied()
            .ok_or(SessionError::UnknownTask(j))
    }

    /// The model processing time of task `j` on `l` processors — what the
    /// planner believes a task at allotment `l` takes.
    ///
    /// # Panics
    /// Panics if `j` is unknown or `l` outside `1..=profile_machines()`.
    pub fn planned_duration_of(&self, j: usize, l: usize) -> f64 {
        self.profiles[j].time(l)
    }

    /// Every epoch re-planned so far, in order.
    pub fn epochs(&self) -> &[EpochStats] {
        &self.epochs
    }

    /// Predecessors of task `j`.
    pub fn preds_of(&self, j: usize) -> &[usize] {
        &self.preds[j]
    }

    fn advance(&mut self, t: f64) -> Result<(), SessionError> {
        if !t.is_finite() || t + 1e-12 * (1.0 + t.abs()) < self.now {
            return Err(SessionError::TimeRegression {
                now: self.now,
                event: t,
            });
        }
        self.now = self.now.max(t);
        Ok(())
    }

    fn check_task(&self, j: usize) -> Result<(), SessionError> {
        if j < self.n() {
            Ok(())
        } else {
            Err(SessionError::UnknownTask(j))
        }
    }

    /// Event: a task arrives at time `t` with its speedup profile
    /// (defined for the session's profile domain). Returns the new task's
    /// id. The plan is *not* recomputed — batch several events, then
    /// [`replan`](ScheduleSession::replan) once for the epoch.
    pub fn arrive(&mut self, profile: Profile, t: f64) -> Result<usize, SessionError> {
        self.advance(t)?;
        if profile.m() != self.m_profile {
            return Err(SessionError::ProfileDomain {
                found: profile.m(),
                expected: self.m_profile,
            });
        }
        let id = self.n();
        if !self.cfg.jz.skip_admissibility_check && !assumptions::verify(&profile).admissible() {
            return Err(SessionError::Inadmissible(id));
        }
        self.profiles.push(profile);
        self.arrival.push(self.now);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.state.push(TaskState::Pending);
        self.alloc.push(None);
        Ok(id)
    }

    /// Event: a new precedence edge `pred → succ` at time `t`. The
    /// successor must not have started (its plan is still open); the
    /// predecessor may be in any state. Rejects duplicate edges silently
    /// and cycles loudly.
    pub fn add_dependency(&mut self, pred: usize, succ: usize, t: f64) -> Result<(), SessionError> {
        self.advance(t)?;
        self.check_task(pred)?;
        self.check_task(succ)?;
        if !matches!(self.state[succ], TaskState::Pending) {
            return Err(SessionError::TaskNotPending(succ));
        }
        if pred == succ || self.reaches(succ, pred) {
            return Err(SessionError::CycleEdge { pred, succ });
        }
        if !self.succs[pred].contains(&succ) {
            self.succs[pred].push(succ);
            self.preds[succ].push(pred);
        }
        Ok(())
    }

    /// Depth-first reachability over the successor lists.
    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; self.n()];
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            if std::mem::replace(&mut seen[u], true) {
                continue;
            }
            stack.extend(self.succs[u].iter().copied());
        }
        false
    }

    /// Event: the machine count changes to `m` at time `t` (within the
    /// profile domain). Running tasks keep their processors; the executor
    /// absorbs any transient oversubscription by starting nothing new
    /// until completions free capacity.
    pub fn set_machines(&mut self, m: usize, t: f64) -> Result<(), SessionError> {
        self.advance(t)?;
        if m == 0 || m > self.m_profile {
            return Err(SessionError::MachineCount {
                requested: m,
                max: self.m_profile,
            });
        }
        self.m = m;
        Ok(())
    }

    /// Commitment: task `j` starts at time `t` under its current planned
    /// allotment, which is frozen from here on. Returns that allotment.
    pub fn mark_started(&mut self, j: usize, t: f64) -> Result<usize, SessionError> {
        self.advance(t)?;
        self.check_task(j)?;
        if !matches!(self.state[j], TaskState::Pending) {
            return Err(SessionError::TaskNotPending(j));
        }
        for &i in &self.preds[j] {
            if !matches!(self.state[i], TaskState::Finished { .. }) {
                return Err(SessionError::PredecessorUnfinished { pred: i, succ: j });
            }
        }
        let l = self.alloc[j].filter(|&l| l <= self.m);
        let Some(l) = l else {
            return Err(SessionError::Unplanned(j));
        };
        self.state[j] = TaskState::Running { start: self.now };
        Ok(l)
    }

    /// Commitment: task `j` finishes at time `t` (the *realized*
    /// completion — the executor's clock, which under noise differs from
    /// the planner's model).
    pub fn mark_finished(&mut self, j: usize, t: f64) -> Result<(), SessionError> {
        self.advance(t)?;
        self.check_task(j)?;
        if !matches!(self.state[j], TaskState::Running { .. }) {
            return Err(SessionError::TaskNotRunning(j));
        }
        self.state[j] = TaskState::Finished { finish: self.now };
        Ok(())
    }

    /// Tasks that have not started yet, ascending by id.
    fn pending(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&j| matches!(self.state[j], TaskState::Pending))
            .collect()
    }

    /// Epoch: re-plan the not-yet-started suffix at time `t`.
    ///
    /// Phase 1 runs over the pending tasks only, on the *active* machine
    /// count, with release lower bounds from (a) arrivals and (b) frozen
    /// predecessors — a finished predecessor contributes its realized
    /// completion, a running one its planned completion (the planner
    /// knows the model, not the future). The fractional solution is
    /// ρ-rounded and capped at μ exactly as in the batch pipeline, and
    /// every pending task's planned allotment is replaced.
    ///
    /// The returned stats include the re-plan wall-clock latency; the
    /// plan itself is a pure function of the event history (context reuse
    /// and warm starts never change a byte — asserted in tests).
    pub fn replan(&mut self, t: f64) -> Result<&EpochStats, SessionError> {
        // A fresh `SolveContext` is lazy and allocation-free: the epoch
        // solves on the session's own context and only merges its counter
        // delta here.
        self.replan_in(&mut SolveContext::new(), t)
    }

    /// [`replan`](Self::replan), with the epoch's counter delta merged
    /// into a caller-owned LP context — the hook the serving daemon uses
    /// to account every session of a shard on the shard's one context.
    /// The epoch itself solves on the session's dedicated context, so the
    /// plan is a pure function of the event history whichever context is
    /// handed in.
    pub fn replan_in(
        &mut self,
        ctx: &mut SolveContext,
        t: f64,
    ) -> Result<&EpochStats, SessionError> {
        self.replan_inner(ctx, t)?;
        Ok(self.epochs.last().expect("replan_inner pushed an epoch"))
    }

    fn replan_inner(&mut self, ctx: &mut SolveContext, t: f64) -> Result<(), SessionError> {
        let _span = mtsp_obs::span!("engine.replan");
        let t0 = Instant::now(); // lint:allow(R2): latency metrics only, never in gated output
        self.advance(t)?;
        let pending = self.pending();
        let frozen = (self.n() - pending.len()) as u64;
        if pending.is_empty() {
            let mut counters = Counters::new();
            counters.inc(Counter::SessionEpochs);
            counters.add(Counter::FrozenTasks, frozen);
            self.epochs.push(EpochStats {
                time: self.now,
                pending: 0,
                cstar: 0.0,
                lp_iterations: 0,
                counters,
                wall: t0.elapsed(),
            });
            return Ok(());
        }

        // Suffix sub-instance on the active machine count.
        let mut local = vec![usize::MAX; self.n()];
        for (k, &j) in pending.iter().enumerate() {
            local[j] = k;
        }
        let profiles: Vec<Profile> = pending
            .iter()
            .map(|&j| self.profiles[j].restrict(self.m))
            .collect::<Result<_, _>>()?;
        let mut dag = Dag::new(pending.len());
        for &j in &pending {
            for &i in &self.preds[j] {
                if local[i] != usize::MAX {
                    dag.add_edge(local[i], local[j])
                        .expect("session edges are validated acyclic at add_dependency");
                }
            }
        }
        let sub = Instance::new(dag, profiles)?;

        // Release times relative to `now`.
        let releases: Vec<f64> = pending
            .iter()
            .map(|&j| {
                let mut r = (self.arrival[j] - self.now).max(0.0);
                for &i in &self.preds[j] {
                    let avail = match self.state[i] {
                        TaskState::Pending => continue,
                        TaskState::Finished { finish } => finish,
                        TaskState::Running { start } => {
                            let l = self.alloc[i].expect("running tasks have frozen allotments");
                            start + self.profiles[i].time(l)
                        }
                    };
                    r = r.max(avail - self.now);
                }
                r.max(0.0)
            })
            .collect();

        let params = self.cfg.jz.params.unwrap_or_else(|| our_params(self.m));
        validate_params(&params, self.m).map_err(SessionError::Core)?;

        // Cross-epoch LP reuse runs through the session-owned dedicated
        // context: whether this epoch reuses or rebuilds depends only on
        // the event history, never on what else the caller's context
        // solved in between. The epoch's counter delta is then merged
        // into the caller's context so shard- or session-level telemetry
        // still accounts for the work.
        let epoch_entry = *self.epoch_ctx.counters();
        self.epoch_ctx.counters_mut().inc(Counter::SessionEpochs);
        self.epoch_ctx
            .counters_mut()
            .add(Counter::FrozenTasks, frozen);
        let req = AllotmentRequest {
            method: self.cfg.jz.phase1,
            releases: Some(&releases),
            reuse: Some(&mut self.epoch_reuse),
        };
        let lp = solve_allotment_with(&mut self.epoch_ctx, &sub, req, &self.cfg.jz.solver)?;
        self.epoch_ctx.counters_mut().inc(Counter::RoundingPasses);
        let counters = self.epoch_ctx.counters().diff(&epoch_entry);
        ctx.counters_mut().merge(&counters);
        let (alloc_prime, _) = round_allotment(&sub, &lp.x, params.rho)?;
        for (k, &j) in pending.iter().enumerate() {
            self.alloc[j] = Some(alloc_prime[k].min(params.mu));
        }
        self.epochs.push(EpochStats {
            time: self.now,
            pending: pending.len(),
            cstar: lp.cstar,
            lp_iterations: lp.iterations,
            counters,
            wall: t0.elapsed(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsp_core::two_phase::schedule_jz;
    use mtsp_core::Phase1;
    use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};

    fn batch_session(ins: &Instance, cfg: SessionConfig) -> ScheduleSession {
        let mut s = ScheduleSession::new(ins.m(), cfg).unwrap();
        for p in ins.profiles() {
            s.arrive(p.clone(), 0.0).unwrap();
        }
        for (u, v) in ins.dag().edges() {
            s.add_dependency(u, v, 0.0).unwrap();
        }
        s
    }

    /// With every task arriving at time 0, the session's first epoch must
    /// reproduce the batch pipeline's allotments exactly: same LP, same
    /// rounding, same cap.
    #[test]
    fn batch_epoch_matches_schedule_jz_allotments() {
        for seed in 0..4 {
            let ins = random_instance(DagFamily::Layered, CurveFamily::Mixed, 18, 6, seed);
            let rep = schedule_jz(&ins).unwrap();
            let mut s = batch_session(&ins, SessionConfig::new());
            let epoch = *s.replan(0.0).unwrap();
            assert_eq!(epoch.pending, ins.n());
            assert_eq!(epoch.cstar.to_bits(), rep.lp.cstar.to_bits(), "seed {seed}");
            let alloc: Vec<usize> = (0..ins.n()).map(|j| s.planned_alloc(j).unwrap()).collect();
            assert_eq!(alloc, rep.alloc, "seed {seed}");
        }
    }

    /// Cross-epoch LP reuse never changes a planned byte: every epoch's
    /// allotments and `C*` bits equal those of the same event history
    /// with the reuse handle cleared before every epoch (a full rebuild
    /// each time), for both phase-1 formulations — and the reuse run
    /// really does reuse, so the comparison is not vacuous.
    #[test]
    fn epoch_reuse_plans_identically_to_rebuilding_every_epoch() {
        type Plan = (Vec<Option<usize>>, u64);
        let ins = random_instance(DagFamily::Layered, CurveFamily::Mixed, 14, 4, 11);
        for phase1 in [Phase1::Lp, Phase1::Bisection] {
            let run = |rebuild: bool| -> (Vec<Plan>, u64) {
                let cfg = SessionConfig {
                    jz: JzConfig {
                        phase1,
                        ..JzConfig::default()
                    },
                };
                let mut s = ScheduleSession::new(ins.m(), cfg).unwrap();
                let mut plans = Vec::new();
                let mut reuses = 0;
                let mut epoch = |s: &mut ScheduleSession, t: f64| {
                    if rebuild {
                        s.epoch_reuse.clear();
                    }
                    let e = *s.replan(t).unwrap();
                    reuses += e.counters.get(Counter::LpReuses);
                    let alloc = (0..s.n()).map(|j| s.planned_alloc(j)).collect();
                    plans.push((alloc, e.cstar.to_bits()));
                };
                // Tasks arrive two at a time in topological order (a task
                // can only depend on tasks that already arrived); each
                // batch is an epoch, followed by an idle re-plan.
                let order = ins.dag().topological_order();
                let mut sess_id = vec![usize::MAX; ins.n()];
                let mut t = 0.0;
                for (k, &j) in order.iter().enumerate() {
                    sess_id[j] = s.arrive(ins.profile(j).clone(), t).unwrap();
                    for &i in ins.dag().preds(j) {
                        s.add_dependency(sess_id[i], sess_id[j], t).unwrap();
                    }
                    if k % 2 == 1 {
                        epoch(&mut s, t);
                        epoch(&mut s, t + 0.1);
                        t += 0.5;
                    }
                }
                // One source starts; every later re-plan sees it as a
                // shifting release — the reuse sweet spot.
                s.mark_started(sess_id[order[0]], t).unwrap();
                for dt in [0.2, 0.4, 0.6, 0.8] {
                    epoch(&mut s, t + dt);
                }
                (plans, reuses)
            };
            let (reused, reuses) = run(false);
            let (rebuilt, none) = run(true);
            assert_eq!(reused, rebuilt, "{phase1:?}");
            assert!(reuses >= 10, "{phase1:?}: only {reuses} reuses");
            assert_eq!(none, 0, "{phase1:?}: a cleared handle never reuses");
        }
    }

    /// The reuse/rebuild taxonomy, observed through per-epoch counter
    /// deltas: a structure-preserving re-plan warm-reuses the previous
    /// epoch's LP (`engine.lp_reuses`), while **every** structural event
    /// kind — arrival, new edge, machine change, start freezing, and a
    /// finish that flips a successor's release-row pattern — forces a
    /// rebuild (`core.lp_builds`).
    #[test]
    fn epoch_lp_reuse_falls_back_on_every_structural_event() {
        for phase1 in [Phase1::Lp, Phase1::Bisection] {
            let mut s = ScheduleSession::new(
                4,
                SessionConfig {
                    jz: JzConfig {
                        phase1,
                        ..JzConfig::default()
                    },
                },
            )
            .unwrap();
            let kind = |e: &EpochStats| -> (u64, u64) {
                (
                    e.counters.get(Counter::LpBuilds),
                    e.counters.get(Counter::LpReuses),
                )
            };
            let built = (1, 0);
            let reused = (0, 1);
            // x and y are sources; z waits on both.
            let x = s.arrive(Profile::constant(4.0, 4).unwrap(), 0.0).unwrap();
            let y = s
                .arrive(Profile::power_law(6.0, 1.0, 4).unwrap(), 0.0)
                .unwrap();
            let z = s
                .arrive(Profile::power_law(5.0, 0.8, 4).unwrap(), 0.0)
                .unwrap();
            s.add_dependency(x, z, 0.0).unwrap();
            s.add_dependency(y, z, 0.0).unwrap();
            let first = *s.replan(0.0).unwrap();
            assert_eq!(kind(&first), built, "{phase1:?}: first epoch builds");
            // No event in between: pure re-plan reuses.
            assert_eq!(kind(s.replan(0.1).unwrap()), reused, "{phase1:?}: idle");
            // Arrival changes n.
            s.arrive(Profile::constant(1.0, 4).unwrap(), 0.2).unwrap();
            assert_eq!(kind(s.replan(0.2).unwrap()), built, "{phase1:?}: arrival");
            assert_eq!(kind(s.replan(0.3).unwrap()), reused);
            // A new edge changes the DAG.
            s.add_dependency(x, 3, 0.4).unwrap();
            assert_eq!(kind(s.replan(0.4).unwrap()), built, "{phase1:?}: edge");
            assert_eq!(kind(s.replan(0.5).unwrap()), reused);
            // A machine change rescales every profile.
            s.set_machines(3, 0.6).unwrap();
            assert_eq!(kind(s.replan(0.6).unwrap()), built, "{phase1:?}: machines");
            assert_eq!(kind(s.replan(0.7).unwrap()), reused);
            // Starting x shrinks the pending set; while x runs, z's
            // release row tracks its planned completion.
            s.mark_started(x, 0.8).unwrap();
            assert_eq!(kind(s.replan(0.8).unwrap()), built, "{phase1:?}: start");
            assert_eq!(kind(s.replan(0.9).unwrap()), reused);
            // x finishing drops z's release to zero while z still has the
            // pending predecessor y: the release row vanishes — a
            // structural flip with n, m and the edge set all unchanged.
            s.mark_finished(x, 5.0).unwrap();
            assert_eq!(
                kind(s.replan(5.0).unwrap()),
                built,
                "{phase1:?}: release-pattern flip after finish"
            );
            assert_eq!(kind(s.replan(5.1).unwrap()), reused);
        }
    }

    /// One external context shared across *different* sessions (the
    /// daemon's shard shape: one warm context, many tenants' sessions
    /// interleaving on it) plans byte-identically to per-session owned
    /// contexts.
    #[test]
    fn shared_external_context_plans_identically() {
        let instances: Vec<Instance> = (0..3)
            .map(|s| random_instance(DagFamily::ForkJoin, CurveFamily::Amdahl, 10, 4, s))
            .collect();
        let epochs_owned: Vec<(u64, Vec<usize>)> = instances
            .iter()
            .map(|ins| {
                let mut s = batch_session(ins, SessionConfig::new());
                let e = *s.replan(0.0).unwrap();
                let alloc = (0..ins.n()).map(|j| s.planned_alloc(j).unwrap()).collect();
                (e.cstar.to_bits(), alloc)
            })
            .collect();
        // Same sessions, interleaved twice over one shared warm context.
        let mut shared = SolveContext::new();
        let mut sessions: Vec<ScheduleSession> = instances
            .iter()
            .map(|ins| batch_session(ins, SessionConfig::new()))
            .collect();
        for round in 0..2 {
            for (i, s) in sessions.iter_mut().enumerate() {
                let e = *s.replan_in(&mut shared, round as f64 * 0.25).unwrap();
                let alloc: Vec<usize> = (0..instances[i].n())
                    .map(|j| s.planned_alloc(j).unwrap())
                    .collect();
                assert_eq!(
                    (e.cstar.to_bits(), alloc),
                    epochs_owned[i],
                    "session {i} round {round}"
                );
            }
        }
    }

    /// Started tasks are frozen: later epochs re-plan only the suffix,
    /// and a running predecessor shows up as a release (the residual
    /// bound covers its planned completion).
    #[test]
    fn committed_tasks_are_frozen_and_release_successors() {
        let mut s = ScheduleSession::new(4, SessionConfig::new()).unwrap();
        let a = s.arrive(Profile::constant(4.0, 4).unwrap(), 0.0).unwrap();
        let b = s
            .arrive(Profile::power_law(6.0, 1.0, 4).unwrap(), 0.0)
            .unwrap();
        s.add_dependency(a, b, 0.0).unwrap();
        s.replan(0.0).unwrap();
        let la = s.mark_started(a, 0.0).unwrap();
        assert_eq!(s.planned_alloc(a), Some(la));
        // New arrival at t = 1 forces a second epoch; `a` still runs
        // until t = 4, so `b` cannot complete before (4 - 1) + p_b(m).
        let c = s.arrive(Profile::constant(1.0, 4).unwrap(), 1.0).unwrap();
        let epoch = *s.replan(1.0).unwrap();
        assert_eq!(epoch.pending, 2);
        let residual_floor = 3.0 + 6.0 / 4.0; // release of b + p_b(4)
        assert!(
            epoch.cstar >= residual_floor - 1e-6,
            "cstar {} < {residual_floor}",
            epoch.cstar
        );
        assert_eq!(s.planned_alloc(a), Some(la), "frozen alloc unchanged");
        assert!(s.planned_alloc(c).is_some());
        // Starting b before a finishes is rejected; after a finishes it
        // goes through.
        assert!(matches!(
            s.mark_started(b, 2.0),
            Err(SessionError::PredecessorUnfinished { .. })
        ));
        s.mark_finished(a, 4.0).unwrap();
        s.mark_started(b, 4.0).unwrap();
        assert!(matches!(
            s.mark_started(b, 4.0),
            Err(SessionError::TaskNotPending(_))
        ));
    }

    #[test]
    fn machine_changes_recap_the_plan() {
        let mut s = ScheduleSession::new(8, SessionConfig::new()).unwrap();
        for _ in 0..4 {
            s.arrive(Profile::power_law(8.0, 1.0, 8).unwrap(), 0.0)
                .unwrap();
        }
        s.replan(0.0).unwrap();
        s.set_machines(2, 1.0).unwrap();
        s.replan(1.0).unwrap();
        for j in 0..4 {
            assert!(s.planned_alloc(j).unwrap() <= 2, "task {j} exceeds m = 2");
        }
        assert!(matches!(
            s.set_machines(9, 1.0),
            Err(SessionError::MachineCount { .. })
        ));
        assert!(matches!(
            s.set_machines(0, 1.0),
            Err(SessionError::MachineCount { .. })
        ));
    }

    #[test]
    fn event_validation_catches_misuse() {
        let mut s = ScheduleSession::new(4, SessionConfig::new()).unwrap();
        let a = s.arrive(Profile::constant(1.0, 4).unwrap(), 1.0).unwrap();
        // Clock runs forward only.
        assert!(matches!(
            s.arrive(Profile::constant(1.0, 4).unwrap(), 0.5),
            Err(SessionError::TimeRegression { .. })
        ));
        // Wrong profile domain.
        assert!(matches!(
            s.arrive(Profile::constant(1.0, 3).unwrap(), 1.0),
            Err(SessionError::ProfileDomain { .. })
        ));
        // Inadmissible profile (A1 violated) rejected unless opted out.
        let bad = Profile::from_times(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(matches!(
            s.arrive(bad.clone(), 1.0),
            Err(SessionError::Inadmissible(_))
        ));
        let mut lax = ScheduleSession::new(
            4,
            SessionConfig {
                jz: JzConfig {
                    skip_admissibility_check: true,
                    ..JzConfig::default()
                },
            },
        )
        .unwrap();
        assert!(lax.arrive(bad, 0.0).is_ok());
        // Unknown tasks, self-edges and cycles.
        let b = s.arrive(Profile::constant(1.0, 4).unwrap(), 1.0).unwrap();
        assert!(matches!(
            s.add_dependency(a, 99, 1.0),
            Err(SessionError::UnknownTask(99))
        ));
        assert!(matches!(
            s.add_dependency(a, a, 1.0),
            Err(SessionError::CycleEdge { .. })
        ));
        s.add_dependency(a, b, 1.0).unwrap();
        s.add_dependency(a, b, 1.0).unwrap(); // duplicate: no-op
        assert!(matches!(
            s.add_dependency(b, a, 1.0),
            Err(SessionError::CycleEdge { .. })
        ));
        // Start without a plan.
        assert!(matches!(
            s.mark_started(a, 1.0),
            Err(SessionError::Unplanned(_))
        ));
        s.replan(1.0).unwrap();
        s.mark_started(a, 1.0).unwrap();
        assert!(matches!(
            s.mark_finished(b, 1.0),
            Err(SessionError::TaskNotRunning(_))
        ));
        // Empty-suffix epochs are well-defined.
        s.mark_finished(a, 2.0).unwrap();
        s.mark_started(b, 2.0).unwrap();
        s.mark_finished(b, 3.0).unwrap();
        let e = *s.replan(3.0).unwrap();
        assert_eq!((e.pending, e.cstar), (0, 0.0));
        assert_eq!(s.epochs().len(), 2);
    }

    /// Edge cases around the frozen prefix and the event clock: a started
    /// or finished task is immovable, machine counts stay inside the
    /// profile domain, the cycle check keeps working after part of the
    /// DAG has executed, and every mutator rejects non-monotone or
    /// non-finite timestamps.
    #[test]
    fn frozen_tasks_machine_domain_and_clock_edges() {
        let mut s = ScheduleSession::new(4, SessionConfig::new()).unwrap();
        let a = s.arrive(Profile::constant(1.0, 4).unwrap(), 0.0).unwrap();
        let b = s.arrive(Profile::constant(2.0, 4).unwrap(), 0.0).unwrap();
        s.add_dependency(a, b, 0.0).unwrap();
        s.replan(0.0).unwrap();
        s.mark_started(a, 0.0).unwrap();

        // A running task can be started neither again nor as a successor.
        assert!(matches!(
            s.mark_started(a, 0.5),
            Err(SessionError::TaskNotPending(_))
        ));
        // A pending successor of an unfinished predecessor cannot start.
        assert!(matches!(
            s.mark_started(b, 0.5),
            Err(SessionError::PredecessorUnfinished { .. })
        ));
        s.mark_finished(a, 1.0).unwrap();
        // A finished task is frozen: not startable, not re-finishable,
        // and no longer a legal edge target.
        assert!(matches!(
            s.mark_started(a, 1.0),
            Err(SessionError::TaskNotPending(_))
        ));
        assert!(matches!(
            s.mark_finished(a, 1.5),
            Err(SessionError::TaskNotRunning(_))
        ));
        assert!(matches!(
            s.add_dependency(b, a, 1.5),
            Err(SessionError::TaskNotPending(_))
        ));

        // Machine counts outside the profile domain: zero and above the
        // domain the profiles were declared for.
        assert!(matches!(
            s.set_machines(0, 1.5),
            Err(SessionError::MachineCount { .. })
        ));
        assert!(matches!(
            s.set_machines(5, 1.5),
            Err(SessionError::MachineCount { .. })
        ));
        s.set_machines(2, 1.5).unwrap();

        // The cycle check still holds on the pending suffix after the
        // prefix has executed.
        let c = s.arrive(Profile::constant(1.0, 4).unwrap(), 2.0).unwrap();
        let d = s.arrive(Profile::constant(1.0, 4).unwrap(), 2.0).unwrap();
        s.add_dependency(b, c, 2.0).unwrap();
        s.add_dependency(c, d, 2.0).unwrap();
        assert!(matches!(
            s.add_dependency(d, b, 2.0),
            Err(SessionError::CycleEdge { .. })
        ));

        // Non-monotone and non-finite clocks are rejected by every
        // mutator, and a rejected event leaves the clock untouched.
        let now = s.now();
        for t in [1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                s.arrive(Profile::constant(1.0, 4).unwrap(), t),
                Err(SessionError::TimeRegression { .. })
            ));
            assert!(matches!(
                s.add_dependency(c, d, t),
                Err(SessionError::TimeRegression { .. })
            ));
            assert!(matches!(
                s.set_machines(2, t),
                Err(SessionError::TimeRegression { .. })
            ));
            assert!(matches!(
                s.mark_started(b, t),
                Err(SessionError::TimeRegression { .. })
            ));
            assert!(matches!(
                s.mark_finished(b, t),
                Err(SessionError::TimeRegression { .. })
            ));
            assert!(matches!(
                s.replan(t),
                Err(SessionError::TimeRegression { .. })
            ));
            assert_eq!(s.now(), now, "rejected events must not advance the clock");
        }

        // The session still works after all those rejections.
        s.replan(2.0).unwrap();
        s.mark_started(b, 2.0).unwrap();
        s.mark_finished(b, 4.0).unwrap();
    }
}
