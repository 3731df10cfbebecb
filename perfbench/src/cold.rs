//! `solve-cold`: seed-generated precedence DAGs solved by the engine's
//! worker pool with the solve cache off and one LP context per worker.
//! Phase 1 — the crashing-form LP of `mtsp-lp` — is nearly all of the
//! wall time; no journal, parser or cache is on the path.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use mtsp_core::allotment::round_allotment;
use mtsp_core::{
    list_schedule_in, schedule_jz_in, solve_allotment_in, CoreError, JzConfig, JzReport,
    ListWorkspace,
};
use mtsp_engine::{instance_key, BatchMetrics, Engine, EngineConfig};
use mtsp_lp::SolveContext;
use mtsp_model::Instance;
use mtsp_obs::{Counter, Counters};

use crate::layers::{self, mean_us, self_ms};
use crate::report::{Outcome, Values};
use crate::stats::{self, ms, share};
use crate::{gen, Opts};

/// Engine workers: one per core of the 2-core machine the benchmark is
/// sized for.
pub const WORKERS: usize = 2;
/// Set-up repetitions; the median is reported.
const SETUP_REPEATS: usize = 5;

type Reference = Option<Result<JzReport, CoreError>>;

/// What one measured window produced. Only the first report of each
/// instance is kept, and later solves of the instance are compared with
/// it as they arrive, so the benchmark's own memory does not grow with
/// the number of solves and `rss_peak_mb` measures the solver.
struct Window {
    /// Instance index of every completed solve, in submission order.
    solved: Vec<usize>,
    /// Per instance, the first report the window produced.
    first: Vec<Option<Arc<JzReport>>>,
    /// Solves that errored or whose schedule or `C*` differed from the
    /// first report of their instance.
    mismatched: u64,
    metrics: BatchMetrics,
}

/// Streams `instances` round-robin through a fresh engine for `seconds`,
/// then drains the jobs in flight. Results come back in submission
/// order, so four jobs per worker stay in flight: a slow job at the head
/// must not leave a worker idle.
fn solve_for(instances: &[Instance], seconds: f64) -> Window {
    let engine = Engine::new(EngineConfig {
        workers: WORKERS,
        cache: false,
        reuse_context: true,
        ..EngineConfig::default()
    });
    let mut stream = engine.stream();
    let t0 = Instant::now();
    let mut solved = Vec::new();
    let mut first: Vec<Option<Arc<JzReport>>> = vec![None; instances.len()];
    let mut mismatched = 0;
    let mut submitted = 0usize;
    loop {
        while stream.in_flight() < 4 * WORKERS && t0.elapsed().as_secs_f64() < seconds {
            stream.submit(instances[submitted % instances.len()].clone());
            submitted += 1;
        }
        let Some((idx, result)) = stream.recv() else {
            break;
        };
        let i = idx % instances.len();
        solved.push(i);
        match (result, &first[i]) {
            (Err(_), _) => mismatched += 1,
            (Ok(report), None) => first[i] = Some(report),
            (Ok(report), Some(kept)) => {
                if report.schedule != kept.schedule
                    || report.lp.cstar.to_bits() != kept.lp.cstar.to_bits()
                {
                    mismatched += 1;
                }
            }
        }
    }
    Window {
        solved,
        first,
        mismatched,
        metrics: stream.finish(),
    }
}

/// Indices of the instances the windows solved.
fn used_by(windows: &[&Window]) -> BTreeSet<usize> {
    windows
        .iter()
        .flat_map(|w| w.first.iter().enumerate())
        .filter(|(_, first)| first.is_some())
        .map(|(i, _)| i)
        .collect()
}

/// Reference solves — `schedule_jz_in` in process with the default
/// configuration — of the instances in `used`, on [`WORKERS`] threads.
fn references(instances: &[Instance], used: &BTreeSet<usize>) -> Vec<Reference> {
    let used: Vec<usize> = used.iter().copied().collect();
    let solved: Vec<Vec<(usize, Result<JzReport, CoreError>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let mine: Vec<usize> = used.iter().copied().skip(w).step_by(WORKERS).collect();
                s.spawn(move || {
                    let mut ctx = SolveContext::new();
                    mine.into_iter()
                        .map(|i| {
                            let report =
                                schedule_jz_in(&mut ctx, &instances[i], &JzConfig::default());
                            (i, report)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference solver panicked"))
            .collect()
    });
    let mut refs: Vec<Reference> = (0..instances.len()).map(|_| None).collect();
    for (i, report) in solved.into_iter().flatten() {
        refs[i] = Some(report);
    }
    refs
}

/// Failed solves: an error, a schedule that fails `Schedule::verify`, or
/// a `(makespan, C*)` pair whose bits differ from the reference solve of
/// the same instance. A first report that fails counts once for every
/// solve of its instance, since the later ones equal it.
fn count_failures(instances: &[Instance], refs: &[Reference], window: &Window) -> u64 {
    let bad: Vec<bool> = window
        .first
        .iter()
        .zip(refs)
        .zip(instances)
        .map(|((first, reference), ins)| match (first, reference) {
            // Never solved without error: the errors are in `mismatched`.
            (None, _) => false,
            (Some(got), Some(Ok(want))) => {
                got.schedule.verify(ins).is_err()
                    || got.schedule.makespan().to_bits() != want.schedule.makespan().to_bits()
                    || got.lp.cstar.to_bits() != want.lp.cstar.to_bits()
            }
            (Some(_), _) => true,
        })
        .collect();
    window.mismatched + window.solved.iter().filter(|&&i| bad[i]).count() as u64
}

/// A timed run: the end-to-end metrics.
pub fn timed(opts: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        instances = gen::cold_instances(opts.seed, opts.scale);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let window = solve_for(&instances, opts.seconds);
    let rss = stats::peak_rss_mb(None).ok_or("cannot read the benchmark's VmHWM")?;
    let refs = references(&instances, &used_by(&[&window]));
    let failed = count_failures(&instances, &refs, &window);
    let m = &window.metrics;
    stats::check_tail("solve-cold latency", m.jobs, stats::TAIL_Q);
    eprintln!(
        "# solve-cold: {} solves of {} instances on {} workers; p99 {:.3} ms, max {:.3} ms",
        m.jobs,
        instances.len(),
        m.workers,
        ms(m.p99_latency),
        ms(m.max_latency)
    );
    let mut v = Values::default();
    v.set("setup_s", stats::median(&setup_s));
    v.set("rss_peak_mb", rss);
    v.set("ops_per_s", m.throughput);
    v.set("latency_ms_p50", ms(m.p50_latency));
    v.set("latency_ms_p90", ms(m.p90_latency));
    Outcome::new(window.solved.len() as u64, failed, false, v)
}

/// A traced run: the per-layer metrics. Half the window runs with spans
/// off and half with spans on — their median latencies give the tracing
/// overhead — then every solved instance goes once more through the
/// pipeline's layers, called one by one.
pub fn traced(opts: &Opts) -> Result<Outcome, String> {
    let instances = gen::cold_instances(opts.seed, opts.scale);
    let plain = solve_for(&instances, opts.seconds / 2.0);
    mtsp_obs::span::enable();
    let window = solve_for(&instances, opts.seconds / 2.0);
    mtsp_obs::span::disable();
    let pool_events = mtsp_obs::span::drain();
    let refs = references(&instances, &used_by(&[&plain, &window]));
    let mut failed =
        count_failures(&instances, &refs, &plain) + count_failures(&instances, &refs, &window);

    mtsp_obs::span::enable();
    let mut ctx = SolveContext::new();
    let mut ws = ListWorkspace::new();
    let cfg = JzConfig::default();
    let mut ratios = Vec::new();
    for (ins, reference) in instances.iter().zip(&refs) {
        let Some(Ok(want)) = reference else {
            continue;
        };
        ratios.push(want.observed_ratio());
        let lp = {
            let _s = mtsp_obs::span!(layers::SOLVE_ALLOTMENT);
            solve_allotment_in(&mut ctx, ins, &cfg.solver)
        };
        let Ok(lp) = lp else {
            failed += 1;
            continue;
        };
        let rounded = {
            let _s = mtsp_obs::span!(layers::ROUND_ALLOTMENT);
            round_allotment(ins, &lp.x, want.params.rho)
        };
        let Ok((alloc_prime, _)) = rounded else {
            failed += 1;
            continue;
        };
        let alloc: Vec<usize> = alloc_prime.iter().map(|&l| l.min(want.params.mu)).collect();
        let schedule = {
            let _s = mtsp_obs::span!(layers::LIST_SCHEDULE);
            list_schedule_in(&mut ws, ins, &alloc, cfg.priority)
        };
        {
            let _s = mtsp_obs::span!(layers::INSTANCE_KEY);
            std::hint::black_box(instance_key(ins));
        }
        if schedule.makespan().to_bits() != want.schedule.makespan().to_bits() {
            failed += 1;
        }
    }
    mtsp_obs::span::disable();
    let layer_events = mtsp_obs::span::drain();

    let jobs = window.solved.len().max(1) as f64;
    // Counter deltas are a pure function of the instance, so every solve
    // of an instance did the work its first report records.
    let mut counters = Counters::new();
    for report in window
        .solved
        .iter()
        .filter_map(|&i| window.first[i].as_ref())
    {
        counters.merge(&report.counters);
    }
    let per_job = |c: Counter| counters.get(c) as f64 / jobs;
    let mut v = Values::default();
    v.set(
        "lp.solve_ms",
        (self_ms(&pool_events, "lp.solve") + self_ms(&pool_events, "lp.resolve")) / jobs,
    );
    v.set("lp.pivots", per_job(Counter::SimplexIterations));
    v.set("lp.refactorizations", per_job(Counter::Refactorizations));
    v.set("lp.ftran", per_job(Counter::Ftran));
    v.set("lp.btran", per_job(Counter::Btran));
    v.set("lp.eta_updates", per_job(Counter::EtaUpdates));
    v.set(
        "lp.warm_share",
        share(
            counters.get(Counter::WarmResolves),
            counters.get(Counter::ColdSolves) + counters.get(Counter::WarmResolves),
        ),
    );
    v.set(
        "core.phase1_ms",
        mean_us(&layer_events, &[layers::SOLVE_ALLOTMENT]) / 1e3,
    );
    // phase1.lp covers building the LP and the lp.solve inside it.
    v.set(
        "core.lp_build_ms",
        self_ms(&pool_events, "phase1.lp") / jobs,
    );
    v.set(
        "core.rounding_ms",
        mean_us(&layer_events, &[layers::ROUND_ALLOTMENT]) / 1e3,
    );
    v.set(
        "core.list_ms",
        mean_us(&layer_events, &[layers::LIST_SCHEDULE]) / 1e3,
    );
    v.set("core.ratio_vs_lb_mean", stats::mean(&ratios));
    v.set(
        "engine.canon_us",
        mean_us(&layer_events, &[layers::INSTANCE_KEY]),
    );
    // The solve cache is off in this workload.
    v.set("engine.cache_hit_rate", 0.0);
    v.set(
        "obs.trace_overhead",
        layers::overhead(
            ms(window.metrics.p50_latency),
            ms(plain.metrics.p50_latency),
        ),
    );
    v.not_measured(&[
        "engine.cache_lookup_us",
        "engine.replan_ms",
        "engine.lp_reuse_rate",
        "model.parse_instance_us",
        "model.parse_request_us",
        "model.write_response_us",
        "serve.dispatch_us.mutate",
        "serve.dispatch_us.replan",
        "serve.dispatch_us.solve",
        "serve.transport_us",
        "serve.wal_append_us",
        "serve.wal_appends",
        "serve.queue_depth_max",
    ]);
    let attempted = (plain.solved.len() + window.solved.len() + ratios.len()) as u64;
    let outcome = Outcome::new(attempted, failed, true, v)?;
    let mut events = pool_events;
    events.extend(layer_events);
    layers::write_outputs(opts, &outcome, &events)?;
    Ok(outcome)
}
