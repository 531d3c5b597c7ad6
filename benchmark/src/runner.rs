//! Repetition, aggregation and the result line.
//!
//! An untraced run repeats the workload's fixed-count timed phase on the
//! same generated inputs, each repetition on freshly set-up engine, cache
//! and store state. Every repetition therefore makes the *same calls in
//! the same order*, and the run reports the **quiet** version of each call:
//! the shortest, over the repetitions, of that one call's wall times
//! ([`quiet_calls`]). Throughput and the latency percentiles are computed
//! from those; `setup_s` is likewise the shortest of the set-ups. A traced run
//! replays a fixed prefix without and with spans, and reports the
//! per-layer metrics.

use crate::fixture::peak_rss_mb;
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, spread, Tail};
use crate::trace::Tracer;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed call into the program under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Call {
    /// Wall time of the call as the caller saw it, microseconds.
    pub us: f64,
    /// Requests the call carried — each of them waited for the whole call.
    /// 0 for a call that serves none (a publish, a controller tick): its
    /// time counts against throughput, and it is no latency sample.
    pub requests: u32,
}

impl Call {
    /// A call that ran from `start` to `end`.
    pub fn between(start: Instant, end: Instant, requests: usize) -> Call {
        Call {
            us: (end - start).as_nanos() as f64 / 1e3,
            requests: requests as u32,
        }
    }

    /// A call that started at `start` and has just returned.
    pub fn since(start: Instant, requests: usize) -> Call {
        Call::between(start, Instant::now(), requests)
    }
}

/// What one untraced repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Everything before the timed phase, seconds.
    pub setup_s: f64,
    /// Every call of the timed phase, in the order made. The time between
    /// calls is the harness's own bookkeeping and is not measured.
    pub calls: Vec<Call>,
    /// Calls `i` and `i + period` are the same work on the same state (a
    /// repetition that replays its stream against a steady state); 0 when
    /// no call of the repetition repeats another.
    pub period: usize,
    /// Requests (and oracle checks) attempted.
    pub attempted: u64,
    /// Requests failed or shed, answers that did not sum to one, oracle
    /// mismatches.
    pub failed: u64,
    /// Summed `cost.ops` over computed requests.
    pub ops: u128,
    /// Summed `baseline_ops` over the same requests.
    pub baseline_ops: u128,
    /// Exact counts that must repeat for a given seed (store faults,
    /// swaps, ...), by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
}

/// Throughput and latency of one sequence of calls.
#[derive(Clone, Copy, Debug)]
struct Summary {
    /// Seconds spent inside the calls.
    timed_s: f64,
    /// Requests completed per second spent inside the calls.
    throughput_qps: f64,
    /// Per-request latency: each call weighted by the requests it carried.
    latency: Tail,
}

fn summarize(calls: &[Call]) -> Summary {
    let timed_s = calls.iter().map(|c| c.us).sum::<f64>() / 1e6;
    let requests: f64 = calls.iter().map(|c| f64::from(c.requests)).sum();
    let mut samples: Vec<(f64, u32)> = calls
        .iter()
        .filter(|c| c.requests > 0)
        .map(|c| (c.us, c.requests))
        .collect();
    Summary {
        timed_s,
        throughput_qps: requests / timed_s.max(f64::MIN_POSITIVE),
        latency: Tail::weighted(&mut samples),
    }
}

/// The quiet version of a run's calls: call `i` takes the shortest of the
/// wall times call `i` had in the repetitions — and, where a repetition
/// repeats its calls with a [`Rep::period`], in every round of each.
///
/// Every repetition replays the same inputs against fresh state, so call
/// `i` is the same work each time; what differs is what the host did to
/// it. Interference in a shared sandbox is one-sided — a neighbour can
/// only slow a call down — and comes in bursts, which hit different calls
/// in different repetitions. Whole-repetition aggregates of eight
/// identical repetitions of `direct_small` ranged over 16 %; the pointwise
/// minimum of any four consecutive ones ranged over 1.8 %. The price: a
/// stall the *program* causes at a different call each time is filtered
/// like the host's; [`Reported::raw`] keeps the unfiltered figure.
///
/// How many samples a call has decides how little quiet time a run needs:
/// the sandbox's vCPUs drop to about 0.8 of their speed for seconds at a
/// time (a neighbour on the sibling hyperthread), more than one call in a
/// hundred is disturbed even in a quiet repetition, and so a tail over
/// per-repetition minima needs several quiet repetitions where a tail over
/// per-round minima needs one.
pub fn quiet_calls(reps: &[Rep]) -> Vec<Call> {
    let n = reps.iter().map(|r| r.calls.len()).min().unwrap_or(0);
    let period = match reps.first().map_or(0, |r| r.period) {
        0 => n,
        p => p.min(n),
    };
    (0..period)
        .map(|i| Call {
            us: reps
                .iter()
                .flat_map(|r| r.calls[i..n].iter().step_by(period))
                .map(|c| c.us)
                .fold(f64::INFINITY, f64::min),
            requests: reps[0].calls[i].requests,
        })
        .collect()
}

/// What a traced run measured.
pub struct Traced {
    /// Per-layer metric values by name; names not listed read 0.
    pub layer: Vec<(&'static str, f64)>,
    /// The spans behind them.
    pub tracer: Tracer,
    /// Requests attempted across the traced run's passes.
    pub attempted: u64,
    /// Requests failed across the traced run's passes.
    pub failed: u64,
}

/// One benchmark workload: inputs were generated at construction; each
/// call sets the program up afresh and measures it.
pub trait Workload {
    /// One untraced repetition: set-up, warm-up, fixed-count timed phase,
    /// correctness checks. `index` counts a run's repetitions from 0.
    fn rep(&self, index: usize) -> Rep;
    /// Seconds one repetition — set-up and timed phase — took on the build
    /// host. A constant, not a measurement: it turns `--seconds` into a
    /// number of repetitions that is the same on every host and in every
    /// run, so that every run applies the same estimator.
    fn nominal_rep_s(&self) -> f64;
    /// The traced run.
    fn traced(&self) -> Traced;
}

/// Repetitions of a run that is asked to measure for `seconds`: as many
/// as fit, but at least three and at most twenty.
pub fn repetitions(seconds: f64, nominal_rep_s: f64) -> usize {
    ((seconds / nominal_rep_s).round() as usize).clamp(3, 20)
}

/// A finished run, ready to print.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every answer checked was right and nothing failed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// One entry per reported metric, in registry order.
    pub metrics: Vec<Reported>,
}

/// One metric of a finished run.
pub struct Reported {
    /// The registry entry.
    pub spec: &'static MetricSpec,
    /// The reported value.
    pub value: f64,
    /// Median of the repetitions' own, unfiltered values (`value` itself
    /// where there is a single measurement). The distance between the two
    /// is the interference [`quiet_calls`] removed — the host's and, for a
    /// stall that hits different calls each time, the program's.
    pub raw: f64,
    /// `(max − min) / median` of the repetitions' own values.
    pub spread: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Runs `workload` untraced for about `seconds`.
pub fn run_untraced(name: &'static str, workload: &dyn Workload, seconds: f64) -> Outcome {
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_rep_rss_mb = 0.0;
    for index in 0..repetitions(seconds, workload.nominal_rep_s()) {
        let rep = workload.rep(index);
        let s = summarize(&rep.calls);
        eprintln!(
            "rep {index}: setup {:.3} s, timed {:.3} s, {:.1} req/s, p50 {:.1} us, p{:.1} {:.1} us, failed {}, peak rss {:.0} MB",
            rep.setup_s,
            s.timed_s,
            s.throughput_qps,
            s.latency.p50,
            s.latency.tail_p * 100.0,
            s.latency.tail,
            rep.failed,
            peak_rss_mb()
        );
        reps.push(rep);
        if index == 0 {
            // Later repetitions run the program again in the same process:
            // their worker threads get allocator arenas of their own while
            // the freed memory of earlier ones stays mapped, so the
            // high-water mark creeps up by an amount that differs from run
            // to run (serve_distinct: 530 MB after one repetition, 570 to
            // 950 MB after eight). One repetition is what one process of
            // the program would have used.
            first_rep_rss_mb = peak_rss_mb();
        }
    }
    let lengths: Vec<usize> = reps.iter().map(|r| r.calls.len()).collect();
    if lengths.iter().any(|&n| n != lengths[0]) {
        // only a failing repetition makes fewer calls; the run is already
        // incorrect, and the common prefix is what can still be compared
        eprintln!("note: repetitions made different numbers of calls: {lengths:?}");
    }
    let per_rep: Vec<Summary> = reps.iter().map(|r| summarize(&r.calls)).collect();
    let quiet = summarize(&quiet_calls(&reps));
    if quiet.latency.tail_p != 0.99 {
        eprintln!(
            "note: {} timed calls per repetition; query_us_p99 reports p{:.1}",
            quiet.latency.n,
            quiet.latency.tail_p * 100.0
        );
    }
    let ops_ratio = |r: &Rep| r.ops as f64 / r.baseline_ops.max(1) as f64;
    let series = |f: &dyn Fn(&Summary) -> f64| -> Vec<f64> { per_rep.iter().map(f).collect() };
    let samples: usize = reps
        .iter()
        .map(|r| r.calls.iter().filter(|c| c.requests > 0).count())
        .sum();
    // (value, the repetitions' own values, samples behind the value)
    let value_of = |name: &str| -> (f64, Vec<f64>, usize) {
        match name {
            "setup_s" => {
                // the quiet set-up, like the quiet calls: one-sided
                // interference leaves the shortest one closest to the work
                let xs: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
                let shortest = xs.iter().copied().fold(f64::INFINITY, f64::min);
                (shortest, xs, reps.len())
            }
            "throughput_qps" => (quiet.throughput_qps, series(&|s| s.throughput_qps), samples),
            "query_us_p50" => (quiet.latency.p50, series(&|s| s.latency.p50), samples),
            "query_us_p99" => (quiet.latency.tail, series(&|s| s.latency.tail), samples),
            "peak_rss_mb" => (first_rep_rss_mb, Vec::new(), 1),
            "ops_ratio" => {
                // an exact count: identical in every repetition
                let xs: Vec<f64> = reps.iter().map(ops_ratio).collect();
                (xs[0], xs, reps.len())
            }
            other => unreachable!("end-to-end metric {other} has no source"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|spec| {
            let (value, xs, samples) = value_of(spec.name);
            Reported {
                spec,
                value,
                raw: if xs.is_empty() { value } else { median(&xs) },
                spread: spread(&xs),
                samples,
            }
        })
        .collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    Outcome {
        workload: name,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Runs `workload` traced and writes `trace_<name>.json` into `out`.
pub fn run_traced(name: &'static str, workload: &dyn Workload, out: &Path) -> Outcome {
    let traced = workload.traced();
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| {
        traced
            .tracer
            .write_json(&out.join(format!("trace_{name}.json")))
    }) {
        eprintln!("warning: could not write the trace file: {e}");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let value = traced
                .layer
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map_or(0.0, |&(_, v)| v);
            Reported {
                spec,
                value,
                raw: value,
                spread: 0.0,
                samples: 1,
            }
        })
        .collect();
    for (n, _) in &traced.layer {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *n),
            "workload emitted unregistered per-layer metric {n}"
        );
    }
    Outcome {
        workload: name,
        correct: traced.failed == 0,
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
    }
}

impl Outcome {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.spec.name,
                json_number(m.value),
                m.spec.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable lines: every metric by name with unit, sample
    /// count, the repetitions' unfiltered median and their spread.
    pub fn print_table(&self) {
        println!("workload {}", self.workload);
        for m in &self.metrics {
            println!(
                "  {:<42} {:>16.4} {:<6} n={:<8} raw={:<14.4} spread={:.4}",
                m.spec.name, m.value, m.spec.unit, m.samples, m.raw, m.spread
            );
        }
        println!(
            "  attempted={} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
    }

    /// Writes `<out>/<workload>[.traced].json` with values, spreads and
    /// sample counts.
    pub fn write_json(&self, out: &Path, traced: bool) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(out)?;
        let suffix = if traced { ".traced" } else { "" };
        let path = out.join(format!("{}{suffix}.json", self.workload));
        std::fs::write(&path, self.detail_json())?;
        Ok(path)
    }

    /// The detailed object `write_json` stores and `--all` merges.
    pub fn detail_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n",
            self.workload, self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "  \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"raw\": {}, \"spread\": {}, \"samples\": {}}}{comma}",
                m.spec.name,
                json_number(m.value),
                m.spec.unit,
                json_number(m.raw),
                json_number(m.spread),
                m.samples
            );
        }
        s.push_str("}}\n");
        s
    }
}

/// A finite float as JSON (all digits; non-finite values become 0 so the
/// line stays parseable — they would already have failed the run).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Refuses to run with more load threads than cores: the timings would
/// measure the scheduler, not the program.
pub fn check_host() -> Result<usize, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < spec::WORKERS {
        return Err(format!(
            "refusing to run: {} worker threads on {nproc} core(s)",
            spec::WORKERS
        ));
    }
    Ok(nproc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep_of(walls: &[(f64, u32)]) -> Rep {
        Rep {
            calls: walls
                .iter()
                .map(|&(us, requests)| Call { us, requests })
                .collect(),
            ..Rep::default()
        }
    }

    #[test]
    fn quiet_calls_take_each_call_from_its_fastest_repetition() {
        // a burst hit the first call of one repetition, the second of another
        let reps = [
            rep_of(&[(90.0, 1), (20.0, 0), (640.0, 64)]),
            rep_of(&[(10.0, 1), (75.0, 0), (650.0, 64)]),
            rep_of(&[(11.0, 1), (21.0, 0), (900.0, 64)]),
        ];
        let quiet = quiet_calls(&reps);
        let walls: Vec<f64> = quiet.iter().map(|c| c.us).collect();
        assert_eq!(walls, [10.0, 20.0, 640.0]);
        let s = summarize(&quiet);
        // 65 requests in 670 µs; the tick (no request) costs throughput
        // and is no latency sample; 64 of 65 requests waited 640 µs
        assert!((s.throughput_qps - 65.0 / 670e-6).abs() < 1e-6);
        assert_eq!((s.latency.n, s.latency.p50), (2, 640.0));
        // a repetition that failed early shortens the comparison
        let short = [rep_of(&[(5.0, 1)]), rep_of(&[(4.0, 1), (9.0, 1)])];
        assert_eq!(quiet_calls(&short).len(), 1);
    }

    #[test]
    fn quiet_calls_fold_the_rounds_of_a_periodic_repetition() {
        // two rounds of two calls per repetition
        let mut reps = [
            rep_of(&[(12.0, 64), (30.0, 64), (11.0, 64), (25.0, 64)]),
            rep_of(&[(14.0, 64), (21.0, 64), (15.0, 64), (22.0, 64)]),
        ];
        for r in &mut reps {
            r.period = 2;
        }
        let walls: Vec<f64> = quiet_calls(&reps).iter().map(|c| c.us).collect();
        assert_eq!(walls, [11.0, 21.0]);
    }

    #[test]
    fn repetitions_follow_from_the_seconds_alone() {
        assert_eq!(repetitions(8.0, 0.75), 11);
        assert_eq!(repetitions(8.0, 2.0), 4);
        assert_eq!(repetitions(1.0, 2.0), 3);
        assert_eq!(repetitions(60.0, 0.65), 20);
    }
}
