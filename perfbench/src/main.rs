//! `taq-perfbench` — the repository benchmark's command line.
//!
//! ```text
//! taq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (why each is here is in `BENCHMARK.json`):
//! `weblog_churn`, `manyflow_fairness` and `access_tree`. Each run
//! generates its inputs from the seed, builds the scenario (set-up) and
//! simulates a fixed horizon (run).
//!
//! With `--trace 0` the command repeats plain runs for `--seconds` and
//! reports the end-to-end metrics over that window: mean wall and CPU
//! time per run, events per wall second, and the median set-up time.
//! With `--trace 1` it alternates plain and traced runs and reports the
//! per-layer metrics, with a self-time row per layer that, with the
//! residual, sums to the plain `run_s`. The traced `weblog_churn`
//! invocation also measures its observed twin, the same web log with a
//! summary sink attached, which carries the telemetry layer: the observed
//! run's wall time follows the ring transport's overflow fallback, which
//! host load triggers, so it is measured there rather than gated as a
//! workload of its own. The traced `access_tree` invocation also times
//! the sharded engine.
//!
//! Every invocation checks packet conservation on every link, that every
//! run of the invocation produces the same digest (flow log, `TaqStats`,
//! link counters) and event count, that the sharded tree matches its
//! serial run, that the observed web log matches the unobserved one and
//! that its sink saw every link event. A failed check counts in
//! `failed` and makes the exit code 1.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The full result,
//! with the seed, core count, CPU model, rustc version and git revision,
//! goes to `perfbench/out/`. The absolute numbers of `bench_report` and
//! `BENCH_sim.json` are informational and are not this benchmark.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use taq_perfbench::account::{breakdown, Breakdown, ROW_LAYERS};
use taq_perfbench::probe::{harvest, median, Calibration, Counter, Harvest, Layer, Op, OpStats};
use taq_perfbench::sys::{self, CountingAlloc};
use taq_perfbench::workload::{prepare, run_once, sharded_shards, Kind, RunOpts, RunResult, Sizes};
use taq_telemetry::Value;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fewest timed runs per invocation, whatever `--seconds` says.
const MIN_RUNS: usize = 5;
/// Fewest plain-and-traced pairs per traced invocation.
const MIN_PAIRS: usize = 2;
/// Set-up is timed at least this many times per invocation.
const SETUP_SAMPLES: usize = 41;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs attempted and failed, with what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records one run with its own checks plus `extra` failures.
    fn record(&mut self, label: &str, run: &RunResult, extra: Vec<String>) {
        self.attempted += 1;
        let failures: Vec<String> = run.failures.iter().cloned().chain(extra).collect();
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{label}: {f}")));
        }
    }
}

/// The checks every repeat of the reference run must pass.
fn same_as(reference: &RunResult, run: &RunResult, what: &str) -> Vec<String> {
    let mut out = Vec::new();
    if run.digest != reference.digest {
        out.push(format!(
            "digest {:016x} differs from {what} {:016x}",
            run.digest, reference.digest
        ));
    }
    if run.events != reference.events {
        out.push(format!(
            "{} events differ from {what} {}",
            run.events, reference.events
        ));
    }
    out
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    median(&mut v)
}

/// Repeats plain runs for the time budget.
fn timed_runs(
    args: &Args,
    sizes: &Sizes,
    reference: &RunResult,
    tally: &mut Tally,
) -> Vec<RunResult> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut runs = Vec::new();
    while runs.len() < MIN_RUNS || Instant::now() < deadline {
        let r = run_once(args.kind, sizes, args.seed, &RunOpts::default());
        tally.record("repeat", &r, same_as(reference, &r, "the reference run"));
        runs.push(r);
    }
    runs
}

/// The access tree on the sharded engine, checked against the serial run.
fn sharded_run(sizes: &Sizes, seed: u64, serial: &RunResult, tally: &mut Tally) -> RunResult {
    let opts = RunOpts {
        shards: Some(sharded_shards()),
        ..RunOpts::default()
    };
    let sharded = run_once(Kind::AccessTree, sizes, seed, &opts);
    tally.record(
        "sharded",
        &sharded,
        same_as(serial, &sharded, "the serial run"),
    );
    sharded
}

/// Checks the sharded access tree against the serial reference run.
fn cross_check(args: &Args, sizes: &Sizes, reference: &RunResult, tally: &mut Tally) {
    if args.kind == Kind::AccessTree && sharded_shards() > 1 {
        sharded_run(sizes, args.seed, reference, tally);
    }
}

fn setup_samples(args: &Args, sizes: &Sizes, runs: &[RunResult]) -> Vec<f64> {
    let mut setup: Vec<f64> = runs.iter().map(|r| r.generate_s + r.build_s).collect();
    while setup.len() < SETUP_SAMPLES {
        let p = prepare(args.kind, sizes, args.seed, &RunOpts::default());
        setup.push(p.generate_s + p.build_s);
    }
    setup
}

struct Report {
    metrics: Vec<Metric>,
    /// Printed lines before the JSON.
    lines: Vec<String>,
    /// Extra fields of the result file.
    detail: Vec<(&'static str, Value)>,
}

fn outcome_lines(r: &RunResult) -> Vec<String> {
    let o = &r.outcomes;
    let mut lines = Vec::new();
    let mut push = |name: &str, v: Option<f64>, unit: &str| {
        if let Some(v) = v {
            lines.push(format!("  {name:<22} {v:>14.6} {unit}"));
        }
    };
    push("jain_short", o.jain_short, "frac");
    push("shutout_frac", o.shutout_frac, "frac");
    push("droptail.jain_short", o.droptail_jain_short, "frac");
    push("droptail.shutout_frac", o.droptail_shutout_frac, "frac");
    push("download_p50_s", o.download_p50_s, "s");
    push("download_p99_s", o.download_p99_s, "s");
    lines
}

fn outcome_value(r: &RunResult) -> Value {
    let o = &r.outcomes;
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    Value::object(vec![
        ("jain_short", opt(o.jain_short)),
        ("shutout_frac", opt(o.shutout_frac)),
        ("droptail_jain_short", opt(o.droptail_jain_short)),
        ("droptail_shutout_frac", opt(o.droptail_shutout_frac)),
        ("download_p50_s", opt(o.download_p50_s)),
        ("download_p99_s", opt(o.download_p99_s)),
        ("downloads", Value::UInt(o.downloads)),
        ("utilization", Value::Float(o.utilization)),
        ("digest", Value::Str(format!("{:016x}", r.digest))),
    ])
}

fn plain_invocation(args: &Args, sizes: &Sizes, tally: &mut Tally) -> Report {
    let reference = run_once(args.kind, sizes, args.seed, &RunOpts::default());
    tally.record("reference", &reference, Vec::new());
    cross_check(args, sizes, &reference, tally);
    let runs = timed_runs(args, sizes, &reference, tally);
    let setup = setup_samples(args, sizes, &runs);

    // Window means, not medians: the host alternates between a fast and
    // a slow state for seconds at a time, so run times within a window
    // are bimodal and their median jumps between the two modes, while
    // the mean follows the share of time spent in each.
    let n = runs.len() as f64;
    let run_s = runs.iter().map(|r| r.run_s).sum::<f64>() / n;
    let metrics = vec![
        metric("run_s", run_s, "s"),
        metric(
            "events_per_s",
            runs.iter().map(|r| r.events as f64).sum::<f64>() / (run_s * n),
            "1/s",
        ),
        metric("cpu_s", runs.iter().map(|r| r.cpu_s).sum::<f64>() / n, "s"),
        metric("setup_s", med(setup.iter().copied()), "s"),
        metric("utilization", reference.outcomes.utilization, "frac"),
    ];
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let mut lines = vec![format!(
        "{} timed runs, {} set-ups, {} events per run",
        runs.len(),
        setup.len(),
        reference.events
    )];
    let outcomes = outcome_lines(&reference);
    if !outcomes.is_empty() {
        lines.push("simulated outcomes (identical on every run of a seed), not gated:".into());
        lines.extend(outcomes);
    }
    lines.push("reported, not gated:".into());
    lines.push(format!("  {:<22} {failed_frac:>14.6} frac", "failed_frac"));
    lines.push(format!(
        "  {:<22} {:>14.6} MB (whole invocation)",
        "peak_rss_mb",
        sys::peak_rss_mb()
    ));
    lines.push(format!(
        "  {:<22} {:>14.6} MB (median per run)",
        "peak_heap_mb",
        med(runs.iter().map(|r| r.peak_heap_bytes as f64 / MIB))
    ));
    let detail = vec![
        ("outcomes", outcome_value(&reference)),
        (
            "run_s_samples",
            Value::Array(runs.iter().map(|r| Value::Float(r.run_s)).collect()),
        ),
        (
            "peak_heap_mb_samples",
            Value::Array(
                runs.iter()
                    .map(|r| Value::Float(r.peak_heap_bytes as f64 / MIB))
                    .collect(),
            ),
        ),
    ];
    Report {
        metrics,
        lines,
        detail,
    }
}

/// One traced run, kept for the per-layer figures.
struct Traced {
    /// Bracket cost measured just before the run, so that it sees the
    /// same host state.
    calib: Calibration,
    result: RunResult,
    trace: Harvest,
    breakdown: Breakdown,
}

/// Work counts that must repeat exactly across runs of one seed.
fn exact_counts(t: &Traced) -> Vec<(&'static str, u64)> {
    let calls = |op| t.trace.op(op).calls;
    let c = t.result.counted.clone().unwrap_or_default();
    vec![
        ("sim.events", t.result.events),
        ("link.enqueues", c.enqueues),
        ("link.transmits", c.transmits),
        ("link.drops", c.drops),
        ("link.delivers", c.delivers),
        ("taq.enqueues", calls(Op::TaqEnqueue)),
        ("tcp.packets", calls(Op::TcpPacket)),
        ("tcp.timers", calls(Op::TcpTimer)),
        ("tcp.timeouts", t.trace.counter(Counter::TcpTimeouts)),
    ]
}

/// `op`'s brackets over every traced run.
fn merged(traced: &[Traced], op: Op) -> OpStats {
    let mut out = OpStats::default();
    for t in traced {
        out.merge(&t.trace.op(op));
    }
    out
}

/// Plain and traced runs of one workload, alternated, with its
/// reference run.
struct LayerRuns {
    reference: RunResult,
    plain: Vec<RunResult>,
    traced: Vec<Traced>,
    /// Sharded runs of the access tree.
    sharded: Vec<RunResult>,
}

impl LayerRuns {
    fn collect(
        kind: Kind,
        sizes: &Sizes,
        seed: u64,
        reference: RunResult,
        seconds: f64,
        tally: &mut Tally,
    ) -> LayerRuns {
        let shard_probe = kind == Kind::AccessTree && sharded_shards() > 1;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut runs = LayerRuns {
            reference,
            plain: Vec::new(),
            traced: Vec::new(),
            sharded: Vec::new(),
        };
        while runs.plain.len() < MIN_PAIRS || Instant::now() < deadline {
            let r = run_once(kind, sizes, seed, &RunOpts::default());
            tally.record(
                "repeat",
                &r,
                same_as(&runs.reference, &r, "the reference run"),
            );
            runs.plain.push(r);

            let calib = Calibration::measure();
            let opts = RunOpts {
                trace: true,
                ..RunOpts::default()
            };
            let result = run_once(kind, sizes, seed, &opts);
            let trace = harvest();
            let t = Traced {
                breakdown: breakdown(&trace.ops, &calib),
                calib,
                result,
                trace,
            };
            let mut extra = same_as(&runs.reference, &t.result, "the untraced run");
            if let Some(first) = runs.traced.first() {
                for ((name, a), (_, b)) in exact_counts(first).into_iter().zip(exact_counts(&t)) {
                    if a != b {
                        extra.push(format!(
                            "exact count {name} = {b}, first traced run had {a}"
                        ));
                    }
                }
            }
            tally.record("traced", &t.result, extra);
            runs.traced.push(t);

            if shard_probe {
                let sharded = sharded_run(sizes, seed, &runs.reference, tally);
                runs.sharded.push(sharded);
            }
        }
        runs
    }

    /// Median plain wall time.
    fn run_s(&self) -> f64 {
        med(self.plain.iter().map(|r| r.run_s))
    }

    /// Median self time of `layer` over the traced runs.
    fn row(&self, layer: Layer) -> f64 {
        med(self.traced.iter().map(|t| t.breakdown.layer(layer)))
    }

    /// Median bracket cost over the traced runs.
    fn calib(&self) -> Calibration {
        Calibration {
            pair_ns: med(self.traced.iter().map(|t| t.calib.pair_ns)),
            inner_ns: med(self.traced.iter().map(|t| t.calib.inner_ns)),
        }
    }

    /// Calibrated quantile `q` of `op`'s durations, in nanoseconds.
    fn pct(&self, op: Op, q: f64) -> f64 {
        merged(&self.traced, op)
            .hist
            .quantile(q)
            .map_or(0.0, |ns| ns - self.calib().inner_ns)
    }

    fn last(&self) -> &Traced {
        self.traced.last().expect("at least one traced run")
    }

    /// The engine and layer rows, then the residual against `run_s`.
    fn rows(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> = std::iter::once(Layer::Sim)
            .chain(ROW_LAYERS)
            .map(|l| (l.name(), self.row(l)))
            .collect();
        let attributed: f64 = rows.iter().map(|(_, s)| s).sum();
        rows.push(("residual", self.run_s() - attributed));
        rows
    }

    fn table(&self, title: &str) -> Vec<String> {
        let run_s = self.run_s();
        let rows = self.rows();
        let traced_run_s = med(self.traced.iter().map(|t| t.breakdown.traced_run_s));
        let trace_s = med(self.traced.iter().map(|t| t.breakdown.trace_s));
        let mut lines = vec![
            format!(
                "{title}: {} plain and {} traced runs",
                self.plain.len(),
                self.traced.len()
            ),
            format!("  {:<12} {:>12} {:>8}", "layer", "self_s", "share"),
        ];
        for (name, s) in &rows {
            lines.push(format!(
                "  {name:<12} {s:>12.6} {:>7.1}%",
                100.0 * s / run_s
            ));
        }
        lines.push(format!(
            "  {:<12} {run_s:>12.6} {:>7.1}%  (plain run_s)",
            "total", 100.0
        ));
        lines.push(format!(
            "  traced run_s {traced_run_s:.6}, of which tracing {trace_s:.6}; overhead {:.2}x",
            ratio(traced_run_s, run_s)
        ));
        // The residual is what the calibration does not explain; the sim
        // row holds most of it, and it bounds how far any share can be
        // trusted.
        let error = 100.0 * rows.last().map_or(0.0, |(_, s)| s.abs()) / run_s;
        lines.push(format!(
            "  sim includes the tracing slowdown the calibration misses; every share is uncertain by the residual, +-{error:.1}%"
        ));
        // Shares within the half of the workload each discipline runs in.
        let taq_cases_s = med(self.plain.iter().map(|r| r.taq_cases_s));
        let droptail_cases_s = med(self.plain.iter().map(|r| r.droptail_cases_s));
        if droptail_cases_s > 0.0 {
            lines.push(format!(
                "  taq is {:.1}% of the TAQ cases' wall time, droptail {:.1}% of the DropTail cases' (+-{error:.1}%)",
                100.0 * ratio(self.row(Layer::Taq), taq_cases_s),
                100.0 * ratio(self.row(Layer::DropTail), droptail_cases_s)
            ));
        }
        lines
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn traced_invocation(args: &Args, sizes: &Sizes, tally: &mut Tally) -> Report {
    let reference = run_once(args.kind, sizes, args.seed, &RunOpts::default());
    tally.record("reference", &reference, Vec::new());
    cross_check(args, sizes, &reference, tally);
    // The unobserved web log is measured with its observed twin, which
    // carries the telemetry layer; the time budget is split between them.
    let with_twin = args.kind == Kind::WeblogChurn;
    let seconds = if with_twin {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let main = LayerRuns::collect(args.kind, sizes, args.seed, reference, seconds, tally);
    let observed = with_twin.then(|| {
        let reference = run_once(Kind::WeblogObserved, sizes, args.seed, &RunOpts::default());
        tally.record(
            "observed",
            &reference,
            same_as(&main.reference, &reference, "the unobserved run"),
        );
        LayerRuns::collect(
            Kind::WeblogObserved,
            sizes,
            args.seed,
            reference,
            seconds,
            tally,
        )
    });

    let run_s = main.run_s();
    let events = main.reference.events as f64;
    let sim_s = main.row(Layer::Sim);
    let residual = main.rows().last().map_or(0.0, |(_, s)| *s);
    let frac = |layer| main.row(layer) / run_s;
    let calib = main.calib();
    let pct = |op, q| main.pct(op, q);
    let last = main.last();
    let calls = |op| last.trace.op(op).calls as f64;
    let counted = last.result.counted.clone().unwrap_or_default();
    let traced_run_s = med(main.traced.iter().map(|t| t.breakdown.traced_run_s));
    let sharded_run_s = med(main.sharded.iter().map(|r| r.run_s));
    let sharded_cpu_s = med(main.sharded.iter().map(|r| r.cpu_s));
    let serial_run_s = if main.sharded.is_empty() { 0.0 } else { run_s };
    let telemetry_metric = |f: &dyn Fn(&LayerRuns) -> f64| observed.as_ref().map_or(0.0, f);
    let plain = &main.plain;

    let metrics = vec![
        metric(
            "workloads.generate_s",
            med(plain.iter().map(|r| r.generate_s)),
            "s",
        ),
        metric(
            "workloads.build_s",
            med(plain.iter().map(|r| r.build_s)),
            "s",
        ),
        metric("sim.events", events, "count"),
        metric("sim.self_ns_per_event", sim_s / events * 1e9, "ns"),
        metric("sim.self_frac", sim_s / run_s, "frac"),
        metric(
            "alloc.per_event",
            med(plain
                .iter()
                .map(|r| ratio(r.steady.allocs as f64, r.steady.events as f64))),
            "count",
        ),
        metric(
            "alloc.setup",
            med(plain.iter().map(|r| r.setup_allocs as f64)),
            "count",
        ),
        metric(
            "alloc.peak_heap_mb",
            med(plain.iter().map(|r| r.peak_heap_bytes as f64 / MIB)),
            "MB",
        ),
        metric("taq.enqueue_ns.p50", pct(Op::TaqEnqueue, 0.50), "ns"),
        metric("taq.enqueue_ns.p99", pct(Op::TaqEnqueue, 0.99), "ns"),
        metric("taq.dequeue_ns.p50", pct(Op::TaqDequeue, 0.50), "ns"),
        metric("taq.dequeue_ns.p99", pct(Op::TaqDequeue, 0.99), "ns"),
        metric("taq.enqueues", calls(Op::TaqEnqueue), "count"),
        // The engine calls `Qdisc::dequeue`, one packet per call, never
        // `dequeue_batch`: this is the share of calls that found a packet.
        metric(
            "taq.dequeue_hit_frac",
            ratio(
                last.trace.counter(Counter::TaqDequeued) as f64,
                calls(Op::TaqDequeue),
            ),
            "frac",
        ),
        metric(
            "taq.drop_frac",
            ratio(
                main.reference.taq.dropped as f64,
                main.reference.taq.offered as f64,
            ),
            "frac",
        ),
        metric("taq.self_frac", frac(Layer::Taq), "frac"),
        metric(
            "droptail.enqueue_ns.p50",
            pct(Op::DropTailEnqueue, 0.50),
            "ns",
        ),
        metric("droptail.self_frac", frac(Layer::DropTail), "frac"),
        metric("tcp.on_packet_ns.p50", pct(Op::TcpPacket, 0.50), "ns"),
        metric("tcp.on_timer_ns.p50", pct(Op::TcpTimer, 0.50), "ns"),
        metric("tcp.packets", calls(Op::TcpPacket), "count"),
        metric("tcp.timers", calls(Op::TcpTimer), "count"),
        metric(
            "tcp.timeouts",
            last.trace.counter(Counter::TcpTimeouts) as f64,
            "count",
        ),
        metric(
            "tcp.retransmit_frac",
            ratio(counted.retransmits as f64, counted.segments as f64),
            "frac",
        ),
        metric("tcp.self_frac", frac(Layer::Tcp), "frac"),
        metric("link.enqueues", counted.enqueues as f64, "count"),
        metric("link.transmits", counted.transmits as f64, "count"),
        metric("link.drops", counted.drops as f64, "count"),
        metric("link.delivers", counted.delivers as f64, "count"),
        metric(
            "metrics.monitor_ns.p50",
            pct(Op::MetricsMonitor, 0.50),
            "ns",
        ),
        metric("metrics.self_frac", frac(Layer::Metrics), "frac"),
        metric(
            "telemetry.events",
            telemetry_metric(&|o| {
                o.last()
                    .result
                    .telemetry
                    .as_ref()
                    .map_or(0.0, |t| t.events as f64)
            }),
            "count",
        ),
        metric(
            "telemetry.sink_ns.p50",
            telemetry_metric(&|o| o.pct(Op::SinkEmit, 0.50)),
            "ns",
        ),
        metric(
            "telemetry.drain_s",
            telemetry_metric(&|o| {
                med(o
                    .plain
                    .iter()
                    .filter_map(|r| r.telemetry.as_ref().map(|t| t.drain_s)))
            }),
            "s",
        ),
        metric(
            "telemetry.overflowed",
            telemetry_metric(&|o| {
                med(o
                    .plain
                    .iter()
                    .filter_map(|r| r.telemetry.as_ref().map(|t| t.overflowed as f64)))
            }),
            "count",
        ),
        metric(
            "telemetry.self_frac",
            telemetry_metric(&|o| o.row(Layer::Telemetry) / o.run_s()),
            "frac",
        ),
        metric("shard.serial_run_s", serial_run_s, "s"),
        metric("shard.speedup", ratio(serial_run_s, sharded_run_s), "ratio"),
        metric(
            "shard.cpu_per_wall",
            ratio(sharded_cpu_s, sharded_run_s),
            "ratio",
        ),
        metric("trace.clock_ns", calib.pair_ns, "ns"),
        metric("trace.overhead", ratio(traced_run_s, run_s), "ratio"),
        metric("trace.residual_frac", residual / run_s, "frac"),
    ];

    let mut lines = vec![format!(
        "bracket cost {:.1} ns, {:.1} ns of it inside the span",
        calib.pair_ns, calib.inner_ns
    )];
    lines.extend(main.table(args.kind.name()));
    if let Some(o) = &observed {
        lines.extend(o.table(Kind::WeblogObserved.name()));
        lines.push(format!(
            "observing costs {:.1}% of the observed run_s ({:.3} s unobserved, {:.3} s observed)",
            100.0 * (1.0 - run_s / o.run_s()),
            run_s,
            o.run_s()
        ));
    }
    if !main.sharded.is_empty() {
        lines.push(format!(
            "sharded engine ({} shards): {sharded_run_s:.3} s against {run_s:.3} s serial",
            sharded_shards()
        ));
    }
    let rows_value = |runs: &LayerRuns| {
        Value::Object(
            runs.rows()
                .into_iter()
                .map(|(name, s)| (name.to_string(), Value::Float(s)))
                .collect(),
        )
    };
    let mut detail = vec![
        ("outcomes", outcome_value(&main.reference)),
        ("plain_run_s", Value::Float(run_s)),
        ("rows", rows_value(&main)),
        ("ops", ops_value(&main.traced)),
    ];
    if let Some(o) = &observed {
        detail.push(("observed_plain_run_s", Value::Float(o.run_s())));
        detail.push(("observed_rows", rows_value(o)));
        detail.push(("observed_ops", ops_value(&o.traced)));
    }
    Report {
        metrics,
        lines,
        detail,
    }
}

/// Every bracket of every traced run, merged per operation: counts,
/// durations, the histogram and the raw span sample.
fn ops_value(traced: &[Traced]) -> Value {
    let mut all: BTreeMap<Op, OpStats> = BTreeMap::new();
    for t in traced {
        for (op, s) in &t.trace.ops {
            all.entry(*op).or_default().merge(s);
        }
    }
    Value::Array(
        all.iter()
            .map(|(op, s)| {
                Value::object(vec![
                    ("layer", Value::Str(op.layer().name().into())),
                    ("op", Value::Str(op.name().into())),
                    ("calls", Value::UInt(s.calls)),
                    ("total_ns", Value::UInt(s.total_ns)),
                    ("self_ns", Value::UInt(s.self_ns)),
                    ("child_calls", Value::UInt(s.child_calls)),
                    (
                        "hist",
                        Value::Array(
                            s.hist
                                .buckets()
                                .into_iter()
                                .map(|(lo, n)| Value::Array(vec![Value::Float(lo), Value::UInt(n)]))
                                .collect(),
                        ),
                    ),
                    (
                        "spans",
                        Value::Array(
                            s.spans
                                .iter()
                                .map(|r| {
                                    Value::Array(vec![
                                        Value::UInt(r.id),
                                        Value::UInt(r.parent),
                                        Value::UInt(r.start_ns),
                                        Value::UInt(r.dur_ns),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::object(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn write_result(args: &Args, meta: &[(&'static str, Value)], report: &Report, tally: &Tally) {
    let dir = std::path::Path::new("perfbench/out");
    if !dir.parent().is_some_and(|p| p.is_dir()) {
        return;
    }
    let metrics = metrics_value(&report.metrics);
    let mut fields: Vec<(&str, Value)> = meta.to_vec();
    fields.push(("metrics", metrics));
    fields.push(("attempted", Value::UInt(tally.attempted)));
    fields.push(("failed", Value::UInt(tally.failed)));
    fields.push((
        "failures",
        Value::Array(
            tally
                .failures
                .iter()
                .map(|f| Value::Str(f.clone()))
                .collect(),
        ),
    ));
    fields.extend(report.detail.iter().cloned());
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, Value::object(fields).to_json()));
    if let Err(e) = written {
        eprintln!("taq-perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("taq-perfbench: {e}");
            eprintln!(
                "usage: taq-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::COMMAND_LINE.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::standard();
    let meta: Vec<(&'static str, Value)> = vec![
        ("workload", Value::Str(args.kind.name().into())),
        ("seed", Value::UInt(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Float(args.seconds)),
        ("nproc", Value::UInt(sys::nproc() as u64)),
        ("cpu_model", Value::Str(sys::cpu_model())),
        ("rustc", Value::Str(sys::rustc_version())),
        ("git_revision", Value::Str(sys::git_revision())),
    ];
    println!(
        "taq-perfbench {} seed={} trace={} seconds={}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    for (k, v) in &meta[4..] {
        println!("  {k}: {}", v.to_json());
    }

    let mut tally = Tally::default();
    let report = if args.trace {
        traced_invocation(&args, &sizes, &mut tally)
    } else {
        plain_invocation(&args, &sizes, &mut tally)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("metrics:");
    for m in &report.metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    write_result(&args, &meta, &report, &tally);

    let metrics = metrics_value(&report.metrics);
    let last = Value::object(vec![
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::UInt(tally.attempted)),
        ("failed", Value::UInt(tally.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", last.to_json());
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
