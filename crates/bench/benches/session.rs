//! Online session economics: warm epoch re-planning vs cold re-solving.
//!
//! A full arrival-scenario replay whose epochs re-plan with dual-simplex
//! warm starts on must measurably beat the same replay with every solve
//! cold (`warm_start = false`) — with `Phase1::Bisection` each epoch's
//! deadline sweep warm-starts probe-to-probe from the previous basis (the
//! axis measured at 3–9x for the batch pipeline in `lp_warmstart.rs`).
//! Sessions always carry the suffix LP across structure-preserving
//! epochs; the rebuild-every-epoch baseline is the `mtsp audit` probe
//! `measure_epoch_reuse_speedup`. Both variants produce byte-identical
//! plans (asserted in the session and replay test suites), so the delta
//! is pure re-plan latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtsp_core::two_phase::{JzConfig, Phase1};
use mtsp_engine::SessionConfig;
use mtsp_model::generate::{CurveFamily, DagFamily};
use mtsp_model::textio::Scenario;
use mtsp_sim::{arrival_scenario, replay, ArrivalPattern, NoiseModel, ReplayConfig};

fn scenario(n: usize, m: usize) -> Scenario {
    arrival_scenario(
        DagFamily::Layered,
        CurveFamily::Mixed,
        n,
        m,
        ArrivalPattern::Bursty,
        0.4,
        7,
    )
}

/// `warm = true`: dual-simplex warm starts on (every bisection probe
/// restarts from the previous basis). `warm = false`: `warm_start =
/// false` — every probe a full cold solve.
fn cfg(phase1: Phase1, warm: bool) -> ReplayConfig {
    ReplayConfig {
        session: SessionConfig {
            jz: JzConfig {
                phase1,
                solver: mtsp_lp::SolverOptions {
                    warm_start: warm,
                    ..mtsp_lp::SolverOptions::default()
                },
                ..JzConfig::default()
            },
        },
        noise: NoiseModel::Uniform { epsilon: 0.1 },
        seed: 7,
    }
}

fn bench_epoch_replans(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_replay");
    g.sample_size(10);
    for (n, m) in [(24usize, 8usize), (48, 8)] {
        let sc = scenario(n, m);
        let label = format!("n{}_m{m}", sc.ins.n());
        for (phase1, tag) in [(Phase1::Lp, "lp"), (Phase1::Bisection, "bisection")] {
            g.bench_with_input(
                BenchmarkId::new(format!("{tag}_warm"), &label),
                &sc,
                |b, sc| b.iter(|| replay(sc, &cfg(phase1, true)).unwrap()),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{tag}_cold"), &label),
                &sc,
                |b, sc| b.iter(|| replay(sc, &cfg(phase1, false)).unwrap()),
            );
        }
    }
    g.finish();
}

/// Isolates the re-plan itself (no dispatch, no noise): one session
/// absorbing an arrival stream epoch by epoch, warm vs cold solves — the
/// serving-loop hot path.
fn bench_replan_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_replan_only");
    g.sample_size(10);
    let sc = scenario(32, 8);
    for (warm, tag) in [(true, "warm"), (false, "cold")] {
        g.bench_with_input(BenchmarkId::new(tag, sc.ins.n()), &sc, |b, sc| {
            b.iter(|| {
                let mut s = mtsp_engine::ScheduleSession::new(
                    sc.ins.m(),
                    cfg(Phase1::Bisection, warm).session,
                )
                .unwrap();
                let mut order = sc.ins.dag().topological_order();
                order.sort_by(|&a, &b| sc.arrival[a].partial_cmp(&sc.arrival[b]).unwrap());
                let mut sess = vec![usize::MAX; sc.ins.n()];
                let mut last = f64::NEG_INFINITY;
                for &j in &order {
                    let t = sc.arrival[j];
                    if t > last && last != f64::NEG_INFINITY {
                        s.replan(last).unwrap();
                    }
                    sess[j] = s.arrive(sc.ins.profile(j).clone(), t).unwrap();
                    for &i in sc.ins.dag().preds(j) {
                        s.add_dependency(sess[i], sess[j], t).unwrap();
                    }
                    last = t;
                }
                s.replan(last).unwrap();
                s.epochs().len()
            })
        });
    }
    g.finish();
}

/// Large-n noise-only re-plans: all tasks arrive (with edges) at time
/// zero, the session plans once and starts the first task, then absorbs
/// repeated pure-noise re-plans at advancing clocks — the serving-loop
/// shape where cross-epoch LP reuse pays. Both sides keep the suffix LP
/// loaded between epochs (rhs re-aim); warm continues from the previous
/// basis, cold re-solves every probe from scratch. These entries are for
/// manual perf passes (CI compiles them via `cargo bench --no-run`); the
/// `mtsp audit` gate enforces reuse vs per-epoch rebuild continuously as
/// a deterministic pivot-work floor (`perf_floor_epoch_reuse_speedup`).
fn bench_replan_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_replan_large");
    g.sample_size(10);
    for (n, m) in [(96usize, 16usize), (256, 16)] {
        let sc = scenario(n, m);
        let label = format!("n{}_m{m}", sc.ins.n());
        for (warm, tag) in [(true, "warm"), (false, "cold")] {
            g.bench_with_input(BenchmarkId::new(tag, &label), &sc, |b, sc| {
                b.iter(|| {
                    let mut s = mtsp_engine::ScheduleSession::new(
                        sc.ins.m(),
                        cfg(Phase1::Bisection, warm).session,
                    )
                    .unwrap();
                    for j in 0..sc.ins.n() {
                        s.arrive(sc.ins.profile(j).clone(), 0.0).unwrap();
                    }
                    for j in 0..sc.ins.n() {
                        for &i in sc.ins.dag().preds(j) {
                            s.add_dependency(i, j, 0.0).unwrap();
                        }
                    }
                    s.replan(0.0).unwrap();
                    let first = sc.ins.dag().topological_order()[0];
                    s.mark_started(first, 0.0).unwrap();
                    for k in 1..=3usize {
                        s.replan(k as f64 * 0.1).unwrap();
                    }
                    s.epochs().len()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_epoch_replans,
    bench_replan_only,
    bench_replan_large
);
criterion_main!(benches);
