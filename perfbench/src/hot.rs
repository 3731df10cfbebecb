//! `serve-solve-hot`: a closed loop of `SOLVE` requests over two
//! connections against `mtsp serve`, every body already in the daemon's
//! shared solve cache. No LP runs in the window: wire and `textio`
//! parsing, `instance_key` hashing, the cache lookup and reply rendering
//! are the work.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mtsp_core::{JzConfig, JzReport};
use mtsp_engine::{config_fingerprint, instance_key, CacheKey, Engine, EngineConfig, SolveCache};
use mtsp_model::textio::parse_instance;
use mtsp_model::wire::{parse_request, write_response};
use mtsp_obs::{Counter, Counters};
use mtsp_serve::Registry;

use crate::daemon::{self, count_failures, reply_fails, Conn, Daemon, PairReplay};
use crate::gen::{self, Class, HotPlan, CONNECTIONS};
use crate::layers::{self, mean_us, self_ms};
use crate::report::{Outcome, Values};
use crate::stats::{self, ms, share};
use crate::Opts;

/// Set-up repetitions; the median is reported.
const SETUP_REPEATS: usize = 3;

/// A daemon with every body in its cache and the client connections open.
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
    warm_replies: Vec<String>,
}

/// Creates the journal directory, starts the daemon, connects, and solves
/// every body once so that the window is served from the cache.
fn set_up(opts: &Opts, plan: &HotPlan, k: usize) -> Result<Live, String> {
    let dir = opts.work_dir.join(format!("hot{k}"));
    let wal = dir.join("wal");
    std::fs::create_dir_all(&wal).map_err(|e| format!("{}: {e}", wal.display()))?;
    let daemon = Daemon::spawn(&opts.mtsp_bin, &dir.join("d.sock"), &wal)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let warm_replies = plan.requests[..plan.instances.len()]
        .iter()
        .map(|req| conns[0].call(&req.bytes))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Live {
        daemon,
        conns,
        warm_replies,
    })
}

/// What one connection saw in the window.
struct ConnWindow {
    /// `(instance, reply)` per request.
    served: Vec<(usize, String)>,
    /// `(seconds into the window when sent, latency in ms)` per request.
    samples: Vec<(f64, f64)>,
    last_reply: Instant,
}

/// Sends requests back to back, cycling through `plan.order` from
/// `offset`, from `start` until `start + seconds`.
fn drive(
    mut conn: Conn,
    plan: &HotPlan,
    offset: usize,
    start: Instant,
    seconds: f64,
) -> Result<ConnWindow, String> {
    let mut window = ConnWindow {
        served: Vec::new(),
        samples: Vec::new(),
        last_reply: start,
    };
    let mut i = offset;
    loop {
        let sent = Instant::now();
        let at = sent.saturating_duration_since(start).as_secs_f64();
        if at >= seconds {
            return Ok(window);
        }
        let req = &plan.requests[plan.order[i % plan.order.len()]];
        let reply = conn.call(&req.bytes)?;
        window.last_reply = Instant::now();
        window.samples.push((at, ms(window.last_reply - sent)));
        window.served.push((req.instance, reply));
        i += 1;
    }
}

/// The expected reply to each body: every body solved once by
/// `serve_script` on an in-process registry.
fn expected(plan: &HotPlan, opts: &Opts) -> Result<Vec<String>, String> {
    let script: String = plan.requests[..plan.instances.len()]
        .iter()
        .map(|req| String::from_utf8_lossy(&req.bytes).into_owned())
        .collect();
    let mut want = daemon::reference_replies(&[script], &opts.work_dir.join("ref-wal"))?;
    Ok(want.pop().unwrap_or_default())
}

/// A timed run: the end-to-end metrics.
pub fn timed(opts: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for k in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let plan = gen::hot_plan(opts.seed, opts.scale);
        let live = set_up(opts, &plan, k)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        // Replacing an earlier set-up stops its daemon.
        prepared = Some((plan, live));
    }
    let (plan, live) = prepared.ok_or("no set-up ran")?;
    let Live {
        daemon,
        conns,
        warm_replies,
    } = live;
    let start = Instant::now();
    let windows: Vec<Result<ConnWindow, String>> = std::thread::scope(|s| {
        let plan = &plan;
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let offset = c * plan.order.len() / CONNECTIONS;
                s.spawn(move || drive(conn, plan, offset, start, opts.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let rss = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    drop(daemon);
    let windows = windows.into_iter().collect::<Result<Vec<_>, _>>()?;

    let want = expected(&plan, opts)?;
    let mut attempted = warm_replies.len() as u64;
    let mut failed = count_failures(&warm_replies, &want);
    for (instance, reply) in windows.iter().flat_map(|w| &w.served) {
        attempted += 1;
        failed += u64::from(reply_fails(reply, want.get(*instance).map(String::as_str)));
    }

    let samples: Vec<(f64, f64)> = windows
        .iter()
        .flat_map(|w| w.samples.iter().copied())
        .collect();
    let last = windows.iter().map(|w| w.last_reply).max().unwrap_or(start);
    let elapsed = last.saturating_duration_since(start).as_secs_f64();
    stats::check_tail(
        "serve-solve-hot latency per slice",
        samples.len() / stats::SLICES,
        stats::TAIL_Q,
    );
    let latency: Vec<f64> = samples.iter().map(|s| s.1).collect();
    eprintln!(
        "# serve-solve-hot: {} requests over {} connections, {} bodies; whole-window p99 {:.3} ms, p99.9 {:.3} ms",
        samples.len(),
        CONNECTIONS,
        plan.instances.len(),
        stats::percentile(&latency, 0.99),
        stats::percentile(&latency, 0.999)
    );
    eprintln!(
        "# serve-solve-hot p99 per slice (median over slices): {:.3} ms",
        stats::sliced_percentile(&samples, opts.seconds, 0.99)
    );
    let mut v = Values::default();
    v.set("setup_s", stats::median(&setup_s));
    v.set("rss_peak_mb", rss);
    v.set("ops_per_s", samples.len() as f64 / elapsed.max(1e-9));
    v.set(
        "latency_ms_p50",
        stats::sliced_percentile(&samples, opts.seconds, 0.5),
    );
    v.set(
        "latency_ms_p90",
        stats::sliced_percentile(&samples, opts.seconds, stats::TAIL_Q),
    );
    Outcome::new(attempted, failed, false, v)
}

/// An in-process registry with the daemon's configuration and every body
/// already solved into its cache.
fn warm_registry(plan: &HotPlan, wal_dir: &Path) -> Result<Registry, String> {
    let reg = daemon::registry(wal_dir)?;
    for req in &plan.requests[..plan.instances.len()] {
        let parsed = parse_request(&req.line, 1).map_err(|e| e.to_string())?;
        reg.dispatch(1, parsed, req.body.clone());
    }
    Ok(reg)
}

/// A traced run: the per-layer metrics. A third of the window goes to
/// `Registry::dispatch` request by request on a warm in-process registry,
/// followed by the layers under it called directly on the same requests;
/// the same requests then run through `serve_connection` over socket
/// pairs with spans off and on.
pub fn traced(opts: &Opts) -> Result<Outcome, String> {
    let plan = gen::hot_plan(opts.seed, opts.scale);
    let want = expected(&plan, opts)?;
    // The daemon solves the instance it parses from the body, whose edge
    // order — and so the LP's pivot sequence and counters — can differ
    // from the generated instance's; solve what it solves.
    let parsed: Vec<_> = plan.requests[..plan.instances.len()]
        .iter()
        .map(|req| parse_instance(&req.body).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let reports: Vec<Arc<JzReport>> = parsed
        .iter()
        .map(|ins| engine.solve(ins).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let fingerprint = config_fingerprint(&JzConfig::default());
    let cache = SolveCache::new(16);
    for (ins, report) in parsed.iter().zip(&reports) {
        let key = CacheKey {
            instance: instance_key(ins),
            config: fingerprint,
        };
        cache.insert(key, Arc::clone(report));
    }
    let want_of = |instance: usize| want.get(instance).map(String::as_str);
    let mut failed = 0u64;

    let reg = warm_registry(&plan, &opts.work_dir.join("wal-dispatch"))?;
    let (before, cache_before) = (reg.counters(), reg.cache_stats());
    mtsp_obs::span::enable();
    let t0 = Instant::now();
    let mut sent: Vec<usize> = Vec::new();
    while sent.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds / 3.0 {
        let r = plan.order[sent.len() % plan.order.len()];
        let req = &plan.requests[r];
        let line_no = sent.len() + 1;
        let parsed = {
            let _s = mtsp_obs::span!(layers::PARSE_REQUEST);
            parse_request(&req.line, line_no)
        };
        let parsed = parsed.map_err(|e| format!("request {:?}: {e}", req.line))?;
        let body = req.body.clone();
        let reply = {
            let _s = mtsp_obs::span!(layers::dispatch_label(Class::Solve));
            reg.dispatch(line_no, parsed, body)
        };
        let reply_line = {
            let _s = mtsp_obs::span!(layers::WRITE_RESPONSE);
            write_response(&reply.response)
        };
        let got = format!("{reply_line}\n{}", reply.body);
        failed += u64::from(reply_fails(&got, want_of(req.instance)));
        sent.push(r);
    }
    for &r in &sent {
        let req = &plan.requests[r];
        let ins = {
            let _s = mtsp_obs::span!(layers::PARSE_INSTANCE);
            parse_instance(&req.body)
        };
        let Ok(ins) = ins else {
            failed += 1;
            continue;
        };
        let key = {
            let _s = mtsp_obs::span!(layers::INSTANCE_KEY);
            instance_key(&ins)
        };
        let hit = {
            let _s = mtsp_obs::span!(layers::CACHE_LOOKUP);
            cache.lookup(&CacheKey {
                instance: key,
                config: fingerprint,
            })
        };
        failed += u64::from(hit.is_none());
    }
    mtsp_obs::span::disable();
    let events = mtsp_obs::span::drain();
    let (after, cache_after) = (reg.counters(), reg.cache_stats());
    reg.shutdown();

    let per_conn: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| sent.iter().copied().skip(c).step_by(CONNECTIONS).collect())
        .collect();
    let requests: Vec<Vec<Vec<u8>>> = per_conn
        .iter()
        .map(|rs| rs.iter().map(|&r| plan.requests[r].bytes.clone()).collect())
        .collect();
    let check = |replay: &PairReplay| -> u64 {
        per_conn
            .iter()
            .zip(&replay.replies)
            .map(|(rs, replies)| {
                let expect: Vec<String> = rs
                    .iter()
                    .map(|&r| {
                        want_of(plan.requests[r].instance)
                            .unwrap_or_default()
                            .to_string()
                    })
                    .collect();
                count_failures(replies, &expect)
            })
            .sum()
    };
    let reg = warm_registry(&plan, &opts.work_dir.join("wal-pair"))?;
    let plain = daemon::socket_pair_replay(&reg, &requests);
    reg.shutdown();
    let plain = plain?;
    let reg = warm_registry(&plan, &opts.work_dir.join("wal-pair-traced"))?;
    mtsp_obs::span::enable();
    let spanned = daemon::socket_pair_replay(&reg, &requests);
    mtsp_obs::span::disable();
    reg.shutdown();
    let _ = mtsp_obs::span::drain();
    let spanned = spanned?;
    failed += check(&plain) + check(&spanned);

    // LP work executed in the window: the registry's counter delta minus
    // the deltas its cache hits replay.
    let mut replayed = Counters::new();
    for &r in &sent {
        replayed.merge(&reports[plan.requests[r].instance].counters);
    }
    let executed = after.diff(&before).diff(&replayed);
    let n = sent.len() as f64;
    let per_request = |c: Counter| executed.get(c) as f64 / n;
    let lookups = |s: mtsp_engine::CacheStats| s.hits + s.misses;
    let dispatch_us = mean_us(&events, &[layers::dispatch_label(Class::Solve)]);
    let ratios: Vec<f64> = reports.iter().map(|r| r.observed_ratio()).collect();
    let mut v = Values::default();
    v.set(
        "lp.solve_ms",
        (self_ms(&events, "lp.solve") + self_ms(&events, "lp.resolve")) / n,
    );
    v.set("lp.pivots", per_request(Counter::SimplexIterations));
    v.set(
        "lp.refactorizations",
        per_request(Counter::Refactorizations),
    );
    v.set("lp.ftran", per_request(Counter::Ftran));
    v.set("lp.btran", per_request(Counter::Btran));
    v.set("lp.eta_updates", per_request(Counter::EtaUpdates));
    v.set(
        "lp.warm_share",
        share(
            executed.get(Counter::WarmResolves),
            executed.get(Counter::ColdSolves) + executed.get(Counter::WarmResolves),
        ),
    );
    v.set("core.ratio_vs_lb_mean", stats::mean(&ratios));
    v.set("engine.canon_us", mean_us(&events, &[layers::INSTANCE_KEY]));
    v.set(
        "engine.cache_lookup_us",
        mean_us(&events, &[layers::CACHE_LOOKUP]),
    );
    v.set(
        "engine.cache_hit_rate",
        share(
            cache_after.hits - cache_before.hits,
            lookups(cache_after) - lookups(cache_before),
        ),
    );
    v.set(
        "model.parse_instance_us",
        mean_us(&events, &[layers::PARSE_INSTANCE]),
    );
    v.set(
        "model.parse_request_us",
        mean_us(&events, &[layers::PARSE_REQUEST]),
    );
    v.set(
        "model.write_response_us",
        mean_us(&events, &[layers::WRITE_RESPONSE]),
    );
    v.set("serve.dispatch_us.solve", dispatch_us);
    v.set(
        "serve.transport_us",
        stats::mean(&plain.rtt_us) - dispatch_us,
    );
    v.set("serve.queue_depth_max", plain.queue_depth_max);
    v.set(
        "obs.trace_overhead",
        layers::overhead(spanned.wall_s, plain.wall_s),
    );
    v.not_measured(&[
        "core.phase1_ms",
        "core.lp_build_ms",
        "core.rounding_ms",
        "core.list_ms",
        "engine.replan_ms",
        "engine.lp_reuse_rate",
        "serve.dispatch_us.mutate",
        "serve.dispatch_us.replan",
        "serve.wal_append_us",
        "serve.wal_appends",
    ]);
    let attempted = 4 * sent.len() as u64;
    let outcome = Outcome::new(attempted, failed, true, v)?;
    layers::write_outputs(opts, &outcome, &events)?;
    Ok(outcome)
}
