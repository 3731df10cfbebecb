//! Helpers of the traced runs: the span labels the benchmark wraps its
//! own calls into each layer in, statistics over `mtsp-obs` spans, and
//! the files a traced run writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mtsp_obs::SpanEvent;

use crate::gen::Class;
use crate::report::Outcome;
use crate::Opts;

/// Most spans written to a Chrome trace; a viewer loads that many
/// quickly, and the per-layer table covers every span regardless.
const TRACE_EVENTS: usize = 100_000;

/// Span around `mtsp_model::wire::parse_request`.
pub const PARSE_REQUEST: &str = "bench.model.parse_request";
/// Span around `mtsp_model::wire::write_response`.
pub const WRITE_RESPONSE: &str = "bench.model.write_response";
/// Span around `mtsp_model::textio::parse_instance`.
pub const PARSE_INSTANCE: &str = "bench.model.parse_instance";
/// Span around `mtsp_engine::instance_key`.
pub const INSTANCE_KEY: &str = "bench.engine.instance_key";
/// Span around `mtsp_engine::SolveCache::lookup`.
pub const CACHE_LOOKUP: &str = "bench.engine.cache_lookup";
/// Span around `mtsp_engine::ScheduleSession::replan_in`.
pub const REPLAN_IN: &str = "bench.engine.replan_in";
/// Span around `mtsp_core::solve_allotment_in`.
pub const SOLVE_ALLOTMENT: &str = "bench.core.solve_allotment_in";
/// Span around `mtsp_core::allotment::round_allotment`.
pub const ROUND_ALLOTMENT: &str = "bench.core.round_allotment";
/// Span around `mtsp_core::list_schedule_in`.
pub const LIST_SCHEDULE: &str = "bench.core.list_schedule_in";
/// Span around `mtsp_serve::wal::Wal::append`.
pub const WAL_APPEND: &str = "bench.serve.wal_append";

/// Span around `mtsp_serve::Registry::dispatch` of one request class.
pub fn dispatch_label(class: Class) -> &'static str {
    match class {
        Class::Mutate => "bench.serve.dispatch.mutate",
        Class::Replan => "bench.serve.dispatch.replan",
        Class::Solve => "bench.serve.dispatch.solve",
        Class::Other => "bench.serve.dispatch.other",
    }
}

/// Mean duration of the spans carrying any of `labels`, µs; 0 when
/// there are none.
pub fn mean_us(events: &[SpanEvent], labels: &[&str]) -> f64 {
    let (count, total_ns) = events
        .iter()
        .filter(|e| labels.contains(&e.label))
        .fold((0u64, 0u64), |(c, t), e| (c + 1, t + e.dur_ns));
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64 / 1e3
    }
}

/// Summed self time of the spans labelled `label`, ms: each span's
/// duration minus the time its direct child spans on the same thread
/// cover.
pub fn self_ms(events: &[SpanEvent], label: &str) -> f64 {
    let mut lanes: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        lanes.entry(e.lane).or_default().push(e);
    }
    let mut total_ns = 0u64;
    for lane in lanes.values_mut() {
        // Parents sort before the children they contain.
        lane.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut child_ns = vec![0u64; lane.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, e) in lane.iter().enumerate() {
            let end = e.start_ns + e.dur_ns;
            while let Some(&p) = open.last() {
                if lane[p].start_ns + lane[p].dur_ns >= end {
                    break;
                }
                open.pop();
            }
            if let Some(&p) = open.last() {
                child_ns[p] += e.dur_ns;
            }
            open.push(i);
        }
        total_ns += lane
            .iter()
            .zip(&child_ns)
            .filter(|(e, _)| e.label == label)
            .map(|(e, &c)| e.dur_ns.saturating_sub(c))
            .sum::<u64>();
    }
    total_ns as f64 / 1e6
}

/// The tracing overhead: a measurement taken with spans on over the same
/// one with spans off, minus 1.
pub fn overhead(traced: f64, plain: f64) -> f64 {
    if plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    }
}

/// Writes the per-layer table to stderr and to
/// `<out_dir>/<workload>-seed<seed>.layers.txt`, and `events` as a
/// Chrome trace to `<out_dir>/<workload>-seed<seed>.trace.json`.
pub fn write_outputs(opts: &Opts, outcome: &Outcome, events: &[SpanEvent]) -> Result<(), String> {
    let io_err = |path: &std::path::Path, e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| io_err(&opts.out_dir, e))?;
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    let mut table = String::new();
    for (name, unit, value) in &outcome.metrics {
        let _ = writeln!(table, "{name:<26} {value:>14.4} {unit}");
    }
    eprint!("# per-layer metrics, {stem}:\n{table}");
    let table_path = opts.out_dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&table_path, &table).map_err(|e| io_err(&table_path, e))?;
    let trace_path = opts.out_dir.join(format!("{stem}.trace.json"));
    if events.len() > TRACE_EVENTS {
        eprintln!(
            "# the trace keeps the first {TRACE_EVENTS} of {} spans",
            events.len()
        );
    }
    let trace =
        mtsp_bench::trace::chrome_trace(&events[..events.len().min(TRACE_EVENTS)]).to_pretty();
    std::fs::write(&trace_path, trace).map_err(|e| io_err(&trace_path, e))?;
    eprintln!(
        "# wrote {} and {}",
        table_path.display(),
        trace_path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(label: &'static str, lane: u64, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            label,
            lane,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_lane() {
        let events = [
            ev("outer", 0, 0, 100),
            ev("inner", 0, 10, 30),
            ev("leaf", 0, 15, 5),
            ev("inner", 0, 50, 20),
            ev("outer", 1, 20, 40),
        ];
        assert_eq!(self_ms(&events, "outer"), (50 + 40) as f64 / 1e6);
        assert_eq!(self_ms(&events, "inner"), (25 + 20) as f64 / 1e6);
        assert_eq!(self_ms(&events, "leaf"), 5.0 / 1e6);
        assert_eq!(mean_us(&events, &["inner", "leaf"]), 55.0 / 3.0 / 1e3);
        assert_eq!(mean_us(&events, &["none"]), 0.0);
    }
}
