//! Deterministic event counters.
//!
//! A [`Counters`] value is a fixed-size registry indexed by the
//! [`Counter`] enum: one `u64` per counter, no allocation, no hashing on
//! the hot path. Every counter counts a *deterministic algorithmic event*
//! (an iteration, a probe, a pass), never wall-clock time, so a counter
//! snapshot is a pure function of the solved inputs: the engine's
//! byte-determinism contract (same bytes for any `--jobs`, cache mode or
//! context-reuse pattern) extends to counters, which is what lets the
//! regression gate treat them as a reliable perf proxy.
//!
//! The registry travels inside `mtsp-lp::SolveContext`; higher layers
//! (`mtsp-core`, `mtsp-engine`) increment their own counters through the
//! context they already thread. Per-solve *deltas* are computed with
//! [`Counters::diff`] around a solve and summed with [`Counters::merge`]
//! — `u64` addition is associative and commutative, so any fold order
//! over per-job deltas produces identical totals.

/// Identity of one counter. The enum order is the serialization order is
/// the array layout — append new counters at the end of [`Counter::ALL`]
/// and keep names stable, because baselines store them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Simplex pivots, primal and dual (`mtsp-lp`).
    SimplexIterations,
    /// Forward transformations `B⁻¹ a_j` (column solves) (`mtsp-lp`).
    Ftran,
    /// Backward transformations `c_B B⁻¹` (dual-price solves) (`mtsp-lp`).
    Btran,
    /// Basis refactorizations, periodic and final-extraction (`mtsp-lp`).
    Refactorizations,
    /// Cold solves: fresh start basis + two-phase primal (`mtsp-lp`).
    ColdSolves,
    /// Warm resolves attempted from a previous basis (`mtsp-lp`). A warm
    /// resolve that falls back also counts one cold solve.
    WarmResolves,
    /// Standard-form model (re)builds into a context (`mtsp-lp`).
    LpBuilds,
    /// Deadline probes of the bisection sweep (`mtsp-core`).
    BisectionProbes,
    /// ρ-rounding passes over a fractional solution (`mtsp-core`).
    RoundingPasses,
    /// Tasks placed by phase-2 LIST scheduling (`mtsp-core`).
    ListSteps,
    /// Epoch re-plans of an online session (`mtsp-engine`).
    SessionEpochs,
    /// Frozen (committed) tasks carried across epoch re-plans
    /// (`mtsp-engine`).
    FrozenTasks,
    /// Wire requests applied by the daemon's shard workers
    /// (`mtsp-serve`). Counts every request that reached a shard,
    /// whether it succeeded or produced a structured `ERR`.
    ServeRequests,
    /// Requests rejected by the daemon — quota violations, protocol
    /// errors, or session-state errors (`mtsp-serve`).
    ServeRejections,
    /// Session snapshots rendered by the daemon (`mtsp-serve`).
    ServeSnapshots,
    /// Product-form (eta-file) basis-factorization updates appended by
    /// simplex pivots in place of eager inverse updates (`mtsp-lp`).
    EtaUpdates,
    /// Epoch re-plans served by mutating the already-loaded suffix LP
    /// instead of rebuilding it (`mtsp-engine`).
    LpReuses,
    /// Records appended to per-session write-ahead journals: one per
    /// journal creation (`OPEN`/`RESTORE`) and one per accepted mutating
    /// event (`mtsp-serve`). Zero when the daemon runs without
    /// `--wal-dir`.
    WalAppends,
    /// Sessions rebuilt from their on-disk journal at daemon startup
    /// (`mtsp-serve`).
    Recoveries,
}

impl Counter {
    /// Every counter, in array-layout (= serialization) order.
    pub const ALL: [Counter; 19] = [
        Counter::SimplexIterations,
        Counter::Ftran,
        Counter::Btran,
        Counter::Refactorizations,
        Counter::ColdSolves,
        Counter::WarmResolves,
        Counter::LpBuilds,
        Counter::BisectionProbes,
        Counter::RoundingPasses,
        Counter::ListSteps,
        Counter::SessionEpochs,
        Counter::FrozenTasks,
        Counter::ServeRequests,
        Counter::ServeRejections,
        Counter::ServeSnapshots,
        Counter::EtaUpdates,
        Counter::LpReuses,
        Counter::WalAppends,
        Counter::Recoveries,
    ];

    /// Stable dotted name (`layer.event`), used as the JSON key in report
    /// counter sections and baselines.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SimplexIterations => "lp.simplex_iterations",
            Counter::Ftran => "lp.ftran",
            Counter::Btran => "lp.btran",
            Counter::Refactorizations => "lp.refactorizations",
            Counter::ColdSolves => "lp.cold_solves",
            Counter::WarmResolves => "lp.warm_resolves",
            Counter::LpBuilds => "core.lp_builds",
            Counter::BisectionProbes => "core.bisection_probes",
            Counter::RoundingPasses => "core.rounding_passes",
            Counter::ListSteps => "core.list_steps",
            Counter::SessionEpochs => "engine.session_epochs",
            Counter::FrozenTasks => "engine.frozen_tasks",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeRejections => "serve.rejections",
            Counter::ServeSnapshots => "serve.snapshots",
            Counter::EtaUpdates => "lp.eta_updates",
            Counter::LpReuses => "engine.lp_reuses",
            Counter::WalAppends => "serve.wal_appends",
            Counter::Recoveries => "serve.recoveries",
        }
    }

    #[inline]
    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every counter appears in ALL")
    }
}

/// A fixed registry of deterministic event counters. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    vals: [u64; Counter::ALL.len()],
}

impl Counters {
    /// All-zero counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c.index()] += n;
    }

    /// Adds 1 to counter `c`.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of counter `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c.index()]
    }

    /// Adds every counter of `other` into `self` (delta aggregation).
    pub fn merge(&mut self, other: &Counters) {
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a += b;
        }
    }

    /// Counter-wise `self - baseline` (saturating): the delta accumulated
    /// since `baseline` was snapshotted from the same registry.
    pub fn diff(&self, baseline: &Counters) -> Counters {
        let mut out = Counters::new();
        for (o, (a, b)) in out
            .vals
            .iter_mut()
            .zip(self.vals.iter().zip(&baseline.vals))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// `true` iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// Iterates `(counter, value)` in the stable [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Renders as `name=value` lines in stable order (debug/stderr aid).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (c, v) in self.iter() {
            let _ = writeln!(s, "{}={v}", c.name());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "duplicate counter name");
        // Spot-check the wire names the baselines depend on.
        assert_eq!(Counter::SimplexIterations.name(), "lp.simplex_iterations");
        assert_eq!(Counter::BisectionProbes.name(), "core.bisection_probes");
        assert_eq!(Counter::SessionEpochs.name(), "engine.session_epochs");
        assert_eq!(Counter::ServeRequests.name(), "serve.requests");
        assert_eq!(Counter::ServeSnapshots.name(), "serve.snapshots");
        assert_eq!(Counter::WalAppends.name(), "serve.wal_appends");
        assert_eq!(Counter::Recoveries.name(), "serve.recoveries");
    }

    #[test]
    fn add_get_merge_diff_roundtrip() {
        let mut a = Counters::new();
        assert!(a.is_zero());
        a.inc(Counter::Ftran);
        a.add(Counter::SimplexIterations, 41);
        a.inc(Counter::SimplexIterations);
        assert_eq!(a.get(Counter::SimplexIterations), 42);
        assert_eq!(a.get(Counter::Ftran), 1);
        assert_eq!(a.get(Counter::Btran), 0);
        assert!(!a.is_zero());

        let snapshot = a;
        a.add(Counter::Ftran, 9);
        a.inc(Counter::Refactorizations);
        let delta = a.diff(&snapshot);
        assert_eq!(delta.get(Counter::Ftran), 9);
        assert_eq!(delta.get(Counter::Refactorizations), 1);
        assert_eq!(delta.get(Counter::SimplexIterations), 0);

        let mut total = snapshot;
        total.merge(&delta);
        assert_eq!(total, a, "snapshot + delta reconstructs the registry");
    }

    #[test]
    fn merge_is_order_independent() {
        let deltas: Vec<Counters> = (0..5u64)
            .map(|i| {
                let mut c = Counters::new();
                c.add(Counter::SimplexIterations, i * 3 + 1);
                c.add(Counter::ListSteps, 7 - i);
                c
            })
            .collect();
        let mut fwd = Counters::new();
        for d in &deltas {
            fwd.merge(d);
        }
        let mut rev = Counters::new();
        for d in deltas.iter().rev() {
            rev.merge(d);
        }
        assert_eq!(fwd, rev);
    }

    /// `docs/OBSERVABILITY.md` documents the registry: its counter table
    /// lists every wire name in `Counter::ALL` order, and the `[u64; N]`
    /// it quotes is the real size.
    #[test]
    fn observability_doc_matches_the_registry() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("## Deterministic counters")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("doc has a Deterministic counters section");
        let wire: Vec<&str> = section
            .lines()
            .filter(|l| l.starts_with("| `"))
            .map(|l| l.split('|').nth(2).expect("wire name column").trim())
            .map(|cell| cell.trim_matches('`'))
            .collect();
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(wire, names);
        let size = format!("`[u64; {}]`", Counter::ALL.len());
        assert!(section.contains(&size), "doc must quote {size}");
    }

    #[test]
    fn render_lists_every_counter_once() {
        let mut c = Counters::new();
        c.add(Counter::ListSteps, 3);
        let text = c.render();
        assert_eq!(text.lines().count(), Counter::ALL.len());
        assert!(text.contains("core.list_steps=3"));
        assert!(text.contains("lp.ftran=0"));
    }
}
