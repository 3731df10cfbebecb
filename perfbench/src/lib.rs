//! End-to-end and per-layer benchmark of the mtsp solver, batch engine
//! and serving daemon.
//!
//! Three workloads exercise the same layers with and without the LP on
//! the critical path (`README.md` says why each was chosen):
//!
//! * [`Workload::SolveCold`] — seed-generated precedence DAGs solved by
//!   [`mtsp_engine::Engine`] with the cache off: LP-bound.
//! * [`Workload::ServeOnline`] — an open loop of multi-tenant session
//!   traffic against `mtsp serve` journaling every mutation:
//!   bound by the journal, the shard queues and the suffix LP.
//! * [`Workload::ServeSolveHot`] — a closed loop of `SOLVE` requests all
//!   answered from the daemon's solve cache: parsing, hashing and
//!   rendering, no LP.
//!
//! A timed run reports the end-to-end metrics of [`report::END_TO_END`];
//! a traced run replays the same inputs in process with the `mtsp-obs`
//! span collector on and reports [`report::PER_LAYER`].

pub mod cold;
pub mod daemon;
pub mod gen;
pub mod hot;
pub mod layers;
pub mod online;
pub mod report;
pub mod stats;

use std::path::PathBuf;

pub use report::Outcome;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold batch solves through the engine pool.
    SolveCold,
    /// Open-loop journaled online sessions against the daemon.
    ServeOnline,
    /// Closed-loop cache-hot `SOLVE` requests against the daemon.
    ServeSolveHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SolveCold,
        Workload::ServeOnline,
        Workload::ServeSolveHot,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveCold => "solve-cold",
            Workload::ServeOnline => "serve-online",
            Workload::ServeSolveHot => "serve-solve-hot",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Toy` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny inputs for tests.
    Toy,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// The `mtsp` binary whose `serve` verb the serve workloads drive.
    pub mtsp_bin: PathBuf,
    /// Scratch directory for sockets and journals, removed after the
    /// run. Keep it short and relative: Unix socket paths are limited to
    /// about 100 bytes.
    pub work_dir: PathBuf,
    /// Where traced runs write their per-layer table and Chrome trace.
    pub out_dir: PathBuf,
}

/// Runs one workload and returns its result.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let outcome = match (opts.workload, opts.trace) {
        (Workload::SolveCold, false) => cold::timed(opts),
        (Workload::SolveCold, true) => cold::traced(opts),
        (Workload::ServeOnline, false) => online::timed(opts),
        (Workload::ServeOnline, true) => online::traced(opts),
        (Workload::ServeSolveHot, false) => hot::timed(opts),
        (Workload::ServeSolveHot, true) => hot::traced(opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    outcome
}
