//! `serve-online`: an open loop of multi-tenant session traffic against
//! `mtsp serve --shards 2 --wal-dir …`. Every mutation is journaled
//! before its reply and every replan re-solves the suffix LP; both wait
//! in the same shard queues, so a slow replan delays the mutations
//! behind it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use mtsp_engine::{ScheduleSession, SessionConfig};
use mtsp_lp::SolveContext;
use mtsp_model::wire::{parse_request, write_request, write_response, Request, SessionEvent};
use mtsp_model::Profile;
use mtsp_obs::Counter;
use mtsp_serve::wal::Wal;
use mtsp_serve::FsyncPolicy;

use crate::daemon::{self, count_failures, read_reply, Conn, Daemon};
use crate::gen::{self, class_of, Class, OnlinePlan, Timed};
use crate::layers::{self, mean_us, self_ms};
use crate::report::{Outcome, Values};
use crate::stats::{self, ms, share};
use crate::Opts;

/// Set-up repetitions; the median is reported.
const SETUP_REPEATS: usize = 5;

/// A daemon with the plan's sessions open on its connections.
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
    setup_replies: Vec<Vec<String>>,
}

/// Creates the journal directory, starts the daemon, connects, and opens
/// every session.
fn set_up(opts: &Opts, plan: &OnlinePlan, k: usize) -> Result<Live, String> {
    let dir = opts.work_dir.join(format!("online{k}"));
    let wal = dir.join("wal");
    std::fs::create_dir_all(&wal).map_err(|e| format!("{}: {e}", wal.display()))?;
    let daemon = Daemon::spawn(&opts.mtsp_bin, &dir.join("d.sock"), &wal)?;
    let mut conns = Vec::new();
    let mut setup_replies = Vec::new();
    for cp in &plan.conns {
        let mut conn = daemon.connect()?;
        let replies = cp
            .setup
            .iter()
            .map(|req| conn.call(format!("{}\n", write_request(req)).as_bytes()))
            .collect::<Result<Vec<_>, _>>()?;
        conns.push(conn);
        setup_replies.push(replies);
    }
    Ok(Live {
        daemon,
        conns,
        setup_replies,
    })
}

/// What one connection saw in the window.
struct ConnWindow {
    replies: Vec<String>,
    /// Per request: reply time minus due time, ms.
    latency_ms: Vec<f64>,
    /// Per request: send time minus due time, ms.
    late_ms: Vec<f64>,
    last_reply: Instant,
}

/// Sends `timed` on `conn` at their due times from a sender thread that
/// never waits for replies (open loop) while this thread reads them.
fn drive(conn: Conn, timed: &[Timed], start: Instant) -> Result<ConnWindow, String> {
    let Conn {
        mut writer,
        mut reader,
    } = conn;
    let due = |t: &Timed| start + Duration::from_secs_f64(t.due_s);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut late_ms = Vec::with_capacity(timed.len());
            for t in timed {
                let at = due(t);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                writer.write_all(&t.bytes)?;
                late_ms.push(ms(Instant::now().saturating_duration_since(at)));
            }
            Ok(late_ms)
        });
        let mut window = ConnWindow {
            replies: Vec::with_capacity(timed.len()),
            latency_ms: Vec::with_capacity(timed.len()),
            late_ms: Vec::new(),
            last_reply: start,
        };
        for t in timed {
            let reply = read_reply(&mut reader).map_err(|e| format!("serve-online reply: {e}"))?;
            let now = Instant::now();
            window
                .latency_ms
                .push(ms(now.saturating_duration_since(due(t))));
            window.replies.push(reply);
            window.last_reply = now;
        }
        window.late_ms = sender
            .join()
            .expect("sender thread panicked")
            .map_err(|e| format!("serve-online send: {e}"))?;
        Ok(window)
    })
}

/// A timed run: the end-to-end metrics.
pub fn timed(opts: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for k in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let plan = gen::online_plan(opts.seed, opts.seconds, opts.scale);
        let live = set_up(opts, &plan, k)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        // Replacing an earlier set-up stops its daemon.
        prepared = Some((plan, live));
    }
    let (plan, live) = prepared.ok_or("no set-up ran")?;
    let Live {
        daemon,
        conns,
        setup_replies,
    } = live;
    let start = Instant::now() + Duration::from_millis(20);
    let windows: Vec<Result<ConnWindow, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&plan.conns)
            .map(|(conn, cp)| s.spawn(move || drive(conn, &cp.timed, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let rss = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    drop(daemon);
    let windows = windows.into_iter().collect::<Result<Vec<_>, _>>()?;

    let scripts: Vec<String> = plan.conns.iter().map(|c| c.script()).collect();
    let want = daemon::reference_replies(&scripts, &opts.work_dir.join("ref-wal"))?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for ((window, setup), want) in windows.iter().zip(&setup_replies).zip(&want) {
        let got: Vec<String> = setup.iter().chain(&window.replies).cloned().collect();
        attempted += got.len() as u64;
        failed += count_failures(&got, want);
    }

    // (due time, latency) of every timed request.
    let samples: Vec<(f64, f64)> = plan
        .conns
        .iter()
        .zip(&windows)
        .flat_map(|(cp, w)| {
            cp.timed
                .iter()
                .map(|t| t.due_s)
                .zip(w.latency_ms.iter().copied())
        })
        .collect();
    let last = windows.iter().map(|w| w.last_reply).max().unwrap_or(start);
    let elapsed = last.saturating_duration_since(start).as_secs_f64();
    stats::check_tail(
        "serve-online latency per slice",
        samples.len() / stats::SLICES,
        stats::TAIL_Q,
    );
    report_diagnostics(&plan, &windows, elapsed);
    eprintln!(
        "# serve-online p99 per slice (median over slices): {:.3} ms",
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

/// Per-class latencies, how late the generator ran, and offered against
/// completed rate, to stderr.
fn report_diagnostics(plan: &OnlinePlan, windows: &[ConnWindow], elapsed: f64) {
    for class in [Class::Mutate, Class::Replan] {
        let latency: Vec<f64> = plan
            .conns
            .iter()
            .zip(windows)
            .flat_map(|(cp, w)| cp.timed.iter().zip(&w.latency_ms))
            .filter(|(t, _)| class_of(&t.req) == class)
            .map(|(_, &l)| l)
            .collect();
        eprintln!(
            "# serve-online {class:?}: {} requests, p50 {:.3} ms, p99 {:.3} ms",
            latency.len(),
            stats::percentile(&latency, 0.5),
            stats::percentile(&latency, 0.99)
        );
    }
    let late: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.late_ms.iter().copied())
        .collect();
    eprintln!(
        "# serve-online generator lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        stats::percentile(&late, 0.5),
        stats::percentile(&late, 0.99),
        late.iter().copied().fold(0.0, f64::max)
    );
    eprintln!(
        "# serve-online: offered {:.0} req/s, completed {:.1} req/s",
        plan.rate,
        late.len() as f64 / elapsed.max(1e-9)
    );
}

/// A traced run: the per-layer metrics. The daemon cannot be traced from
/// outside, so the identical request stream is replayed in process:
/// request by request through `Registry::dispatch`, through
/// `serve_connection` over socket pairs with spans off and on, and event
/// by event through `ScheduleSession::replan_in` and `Wal::append`.
pub fn traced(opts: &Opts) -> Result<Outcome, String> {
    let plan = gen::online_plan(opts.seed, opts.seconds, opts.scale);
    let scripts: Vec<String> = plan.conns.iter().map(|c| c.script()).collect();
    let want = daemon::reference_replies(&scripts, &opts.work_dir.join("ref-wal"))?;
    let order = plan.in_order();

    mtsp_obs::span::enable();
    let reg = daemon::registry(&opts.work_dir.join("wal-dispatch"))?;
    let mut got: Vec<Vec<String>> = vec![Vec::new(); plan.conns.len()];
    for &(c, req) in &order {
        let line_no = got[c].len() + 1;
        let line = write_request(req);
        let parsed = {
            let _s = mtsp_obs::span!(layers::PARSE_REQUEST);
            parse_request(&line, line_no)
        };
        let parsed = parsed.map_err(|e| format!("request {line:?}: {e}"))?;
        let reply = {
            let _s = mtsp_obs::span!(layers::dispatch_label(class_of(req)));
            reg.dispatch(line_no, parsed, String::new())
        };
        let reply_line = {
            let _s = mtsp_obs::span!(layers::WRITE_RESPONSE);
            write_response(&reply.response)
        };
        got[c].push(format!("{reply_line}\n{}", reply.body));
    }
    let counters = reg.counters();
    reg.shutdown();
    mtsp_obs::span::disable();
    let dispatch_events = mtsp_obs::span::drain();

    let requests: Vec<Vec<Vec<u8>>> = plan.conns.iter().map(|c| c.request_bytes()).collect();
    let reg = daemon::registry(&opts.work_dir.join("wal-pair"))?;
    let plain = daemon::socket_pair_replay(&reg, &requests);
    reg.shutdown();
    let plain = plain?;
    let reg = daemon::registry(&opts.work_dir.join("wal-pair-traced"))?;
    mtsp_obs::span::enable();
    let spanned = daemon::socket_pair_replay(&reg, &requests);
    mtsp_obs::span::disable();
    reg.shutdown();
    let _ = mtsp_obs::span::drain();
    let spanned = spanned?;

    mtsp_obs::span::enable();
    let direct = replay_sessions(&order, &opts.work_dir.join("wal-direct"));
    mtsp_obs::span::disable();
    let layer_events = mtsp_obs::span::drain();
    let mut failed = direct?;
    for (c, want) in want.iter().enumerate() {
        failed += count_failures(&got[c], want)
            + count_failures(&plain.replies[c], want)
            + count_failures(&spanned.replies[c], want);
    }

    let count = |class: Class| order.iter().filter(|(_, r)| class_of(r) == class).count() as u64;
    let replans = count(Class::Replan).max(1) as f64;
    let journaled = (count(Class::Mutate) + count(Class::Replan)).max(1) as f64;
    let per_replan = |c: Counter| counters.get(c) as f64 / replans;
    let all_dispatch = [Class::Mutate, Class::Replan, Class::Other].map(layers::dispatch_label);
    let mut v = Values::default();
    v.set(
        "lp.solve_ms",
        (self_ms(&dispatch_events, "lp.solve") + self_ms(&dispatch_events, "lp.resolve")) / replans,
    );
    v.set("lp.pivots", per_replan(Counter::SimplexIterations));
    v.set("lp.refactorizations", per_replan(Counter::Refactorizations));
    v.set("lp.ftran", per_replan(Counter::Ftran));
    v.set("lp.btran", per_replan(Counter::Btran));
    v.set("lp.eta_updates", per_replan(Counter::EtaUpdates));
    v.set(
        "lp.warm_share",
        share(
            counters.get(Counter::WarmResolves),
            counters.get(Counter::ColdSolves) + counters.get(Counter::WarmResolves),
        ),
    );
    v.set(
        "engine.replan_ms",
        mean_us(&layer_events, &[layers::REPLAN_IN]) / 1e3,
    );
    v.set(
        "engine.lp_reuse_rate",
        share(
            counters.get(Counter::LpReuses),
            counters.get(Counter::SessionEpochs),
        ),
    );
    v.set(
        "model.parse_request_us",
        mean_us(&dispatch_events, &[layers::PARSE_REQUEST]),
    );
    v.set(
        "model.write_response_us",
        mean_us(&dispatch_events, &[layers::WRITE_RESPONSE]),
    );
    v.set(
        "serve.dispatch_us.mutate",
        mean_us(&dispatch_events, &[layers::dispatch_label(Class::Mutate)]),
    );
    v.set(
        "serve.dispatch_us.replan",
        mean_us(&dispatch_events, &[layers::dispatch_label(Class::Replan)]),
    );
    v.set(
        "serve.transport_us",
        stats::mean(&plain.rtt_us) - mean_us(&dispatch_events, &all_dispatch),
    );
    v.set(
        "serve.wal_append_us",
        mean_us(&layer_events, &[layers::WAL_APPEND]),
    );
    // Each OPEN journals a header record; every accepted mutation or
    // replan appends one more.
    v.set(
        "serve.wal_appends",
        counters
            .get(Counter::WalAppends)
            .saturating_sub(count(Class::Other)) as f64
            / journaled,
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
        "core.ratio_vs_lb_mean",
        "engine.canon_us",
        "engine.cache_lookup_us",
        "engine.cache_hit_rate",
        "model.parse_instance_us",
        "serve.dispatch_us.solve",
    ]);
    let attempted = 4 * order.len() as u64;
    let outcome = Outcome::new(attempted, failed, true, v)?;
    let mut events = dispatch_events;
    events.extend(layer_events);
    layers::write_outputs(opts, &outcome, &events)?;
    Ok(outcome)
}

/// Applies the request stream event by event to one `ScheduleSession`
/// per session — with one shared LP context, like a shard — and journals
/// every accepted event with `Wal::append` at `--fsync always`. Returns
/// the number of events a session or the journal rejected.
fn replay_sessions(order: &[(usize, &Request)], wal_dir: &Path) -> Result<u64, String> {
    let mut wal = Wal::new(wal_dir, FsyncPolicy::Always)
        .map_err(|e| format!("{}: {e}", wal_dir.display()))?;
    let mut sessions: BTreeMap<(String, String), ScheduleSession> = BTreeMap::new();
    let mut ctx = SolveContext::new();
    let mut failed = 0u64;
    for &(_, req) in order {
        let (Some(tenant), Some(name)) = (req.tenant(), req.session()) else {
            continue;
        };
        let key = (tenant.to_string(), name.to_string());
        if let Request::Open { m, .. } = req {
            let session =
                ScheduleSession::new(*m, SessionConfig::new()).map_err(|e| e.to_string())?;
            wal.create(tenant, name, *m)
                .map_err(|e| format!("journal {tenant}/{name}: {e}"))?;
            sessions.insert(key, session);
            continue;
        }
        let Some(session) = sessions.get_mut(&key) else {
            failed += 1;
            continue;
        };
        let (applied, event) = match req {
            Request::Arrive { t, times, .. } => (
                Profile::from_times(times.clone())
                    .map_err(|e| e.to_string())
                    .and_then(|p| session.arrive(p, *t).map(|_| ()).map_err(|e| e.to_string())),
                SessionEvent::Arrive {
                    t: *t,
                    times: times.clone(),
                },
            ),
            Request::Edge { t, pred, succ, .. } => (
                session
                    .add_dependency(*pred, *succ, *t)
                    .map_err(|e| e.to_string()),
                SessionEvent::Edge {
                    t: *t,
                    pred: *pred,
                    succ: *succ,
                },
            ),
            Request::Start { t, task, .. } => (
                session
                    .mark_started(*task, *t)
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                SessionEvent::Start { t: *t, task: *task },
            ),
            Request::Finish { t, task, .. } => (
                session.mark_finished(*task, *t).map_err(|e| e.to_string()),
                SessionEvent::Finish { t: *t, task: *task },
            ),
            Request::Replan { t, .. } => {
                let _s = mtsp_obs::span!(layers::REPLAN_IN);
                (
                    session
                        .replan_in(&mut ctx, *t)
                        .map(|_| ())
                        .map_err(|e| e.to_string()),
                    SessionEvent::Replan { t: *t },
                )
            }
            _ => continue,
        };
        if applied.is_err() {
            failed += 1;
            continue;
        }
        let _s = mtsp_obs::span!(layers::WAL_APPEND);
        if wal.append(tenant, name, &event).is_err() {
            failed += 1;
        }
    }
    Ok(failed)
}
