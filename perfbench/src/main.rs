//! The NetCo simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flows_1m|lattice_16x5|ba_adversarial> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Builds the workload's world from the seed and runs it untraced,
//! again and again for `--seconds` seconds. Every run is checked, and
//! all runs must leave the same witness. With `--trace 0` it prints the
//! end-to-end metrics (medians over the runs); with `--trace 1` it also
//! runs the world three more times with every device handler call timed
//! and prints the per-layer metrics of the run with the median wall. The
//! last line of standard output is one JSON object; progress goes to
//! standard error. A failed check exits 1.
//! See `README.md` beside this crate for the workloads and metrics.

mod host;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use netco_harness::Pool;

use trace::Class;
use workload::{Rep, TracedRun, Workload, DROP_REASONS, PARALLEL_WORKERS};

const USAGE: &str = "usage: netco-perfbench --workload \
    <flows_1m|lattice_16x5|ba_adversarial> --seed <n> --seconds <n> --trace <0|1>";

/// Fewest untraced runs whatever `--seconds` says: set-up time and the
/// run rate are medians, and the repeat check needs a second run.
const MIN_REPS: usize = 3;
/// Host time spent on set-up-only samples after each timed run, so the
/// set-up median covers the whole run as the run-rate median does.
const SETUP_SLICE: Duration = Duration::from_millis(100);
/// Traced runs under `--trace 1`; the one with the median wall is reported.
const TRACED_REPS: usize = 3;
/// Region-parallel runs of the BA world under `--trace 1`; one otherwise.
const PARALLEL_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} operations failed", report.failed);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on f64 prints the shortest form that reads back exactly.
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        let rep = workload::untraced_rep(w, args.seed, None)?;
        eprintln!(
            "{} seed {} run {}: setup {:.4} s, wall {:.4} s, cpu {:.4} s, {} events, digest {:016x}",
            w.name(),
            args.seed,
            reps.len() + 1,
            rep.setup_s,
            rep.wall_s,
            rep.sched.cpu_s,
            rep.witness.events,
            rep.witness.digest
        );
        if reps.is_empty() {
            // One world's own peak: later runs reuse the allocator's freed
            // memory, and their fragmentation would creep into the mark.
            peak_rss_mb = host::peak_rss_mb()?;
        }
        setups.push(rep.setup_s);
        reps.push(rep);
        // `run_flow_world` cannot be set up on its own.
        if !args.trace && w != Workload::Flows1m {
            let slice = Instant::now();
            while slice.elapsed() < SETUP_SLICE {
                setups.push(workload::setup_only(w, args.seed));
            }
        }
    }
    let first = reps[0];
    if let Some(r) = reps
        .iter()
        .find(|r| r.witness != first.witness || r.ops != first.ops)
    {
        return Err(format!(
            "{}: repeats differ: {:?} {:?} vs {:?} {:?}",
            w.name(),
            first.witness,
            first.ops,
            r.witness,
            r.ops
        ));
    }
    // The region-parallel executor must reproduce the sequential world
    // exactly.
    let mut parallel_walls = Vec::new();
    if w == Workload::BaAdversarial {
        let pool = Pool::new(PARALLEL_WORKERS);
        let count = if args.trace { PARALLEL_REPS } else { 1 };
        for _ in 0..count {
            let par = workload::untraced_rep(w, args.seed, Some(&pool))?;
            if par.witness != first.witness {
                return Err(format!(
                    "{}: region-parallel world {:?} differs from the sequential one {:?}",
                    w.name(),
                    par.witness,
                    first.witness
                ));
            }
            parallel_walls.push(par.wall_s);
        }
    }

    let mut report = Report {
        correct: first.ops.failed == 0,
        attempted: first.ops.attempted,
        failed: first.ops.failed,
        metrics: Vec::new(),
    };
    let sim_s = w.sim_time().as_secs_f64();
    let wall_s = median(reps.iter().map(|r| r.wall_s));
    if !args.trace {
        report.metric(
            "sim_s_per_wall_s",
            median(reps.iter().map(|r| sim_s / r.wall_s)),
            "s/s",
        );
        report.metric("setup_s", median(setups.iter().copied()), "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
        return Ok(report);
    }

    let mut traced_runs = Vec::with_capacity(TRACED_REPS);
    for _ in 0..TRACED_REPS {
        let traced = workload::traced_run(w, args.seed)?;
        if traced.witness != first.witness {
            return Err(format!(
                "{}: traced world {:?} differs from the timed world {:?}",
                w.name(),
                traced.witness,
                first.witness
            ));
        }
        traced_runs.push(traced);
    }
    // A whole run, not per-metric medians, so the split still adds up.
    traced_runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let traced = &traced_runs[TRACED_REPS / 2];
    // 0 where the workload is not run in parallel.
    let speedup = if parallel_walls.is_empty() {
        0.0
    } else {
        wall_s / median(parallel_walls.iter().copied())
    };
    per_layer(&mut report, &reps, traced, wall_s, speedup);
    Ok(report)
}

/// Appends every per-layer metric: the traced run's split, its counters,
/// and the untraced runs' set-up stages and host readings.
fn per_layer(report: &mut Report, reps: &[Rep], traced: &TracedRun, wall_s: f64, speedup: f64) {
    let c = &traced.census;
    let events = reps[0].witness.events as f64;
    let calls: u64 = traced.tallies.iter().map(|t| t.calls).sum();
    let busy_s: f64 = traced.tallies.iter().map(|t| t.busy_ns as f64 / 1e9).sum();
    let self_s = traced.wall_s - busy_s;
    report.metric("net.world.events", events, "count");
    report.metric("net.world.events_per_sec", events / wall_s, "1/s");
    report.metric("net.world.handler_calls", calls as f64, "count");
    report.metric("net.world.self_s", self_s, "s");
    report.metric("net.world.self_share", self_s / traced.wall_s, "ratio");
    for (reason, &n) in DROP_REASONS.iter().zip(&c.drops) {
        report.metric(format!("net.drops.{}", reason.slug()), n as f64, "count");
    }

    let m = traced.memo;
    report.metric("net.frame.fp_hits", m.fp_hits as f64, "count");
    report.metric("net.frame.fp_misses", m.fp_misses as f64, "count");
    report.metric("net.frame.parse_hits", m.parse_hits as f64, "count");
    report.metric("net.frame.parse_misses", m.parse_misses as f64, "count");
    report.metric(
        "net.frame.fp_hit_ratio",
        ratio(m.fp_hits, m.fp_hits + m.fp_misses),
        "ratio",
    );
    report.metric(
        "net.frame.parse_hit_ratio",
        ratio(m.parse_hits, m.parse_hits + m.parse_misses),
        "ratio",
    );

    for (class, t) in Class::ALL.iter().zip(&traced.tallies) {
        let name = class.name();
        report.metric(format!("dev.{name}.calls"), t.calls as f64, "count");
        report.metric(format!("dev.{name}.busy_s"), t.busy_ns as f64 / 1e9, "s");
        report.metric(
            format!("dev.{name}.ns_per_call"),
            ratio(t.busy_ns, t.calls),
            "ns",
        );
    }

    report.metric("core.compare.received", c.compare_received as f64, "count");
    report.metric("core.compare.released", c.compare_released as f64, "count");
    report.metric(
        "core.compare.suppressed",
        c.compare_suppressed as f64,
        "count",
    );
    report.metric(
        "core.compare.expired_unreleased",
        c.compare_expired_unreleased as f64,
        "count",
    );
    report.metric(
        "core.compare.peak_cache_entries",
        c.compare_peak_cache_entries as f64,
        "count",
    );
    report.metric(
        "core.compare.release_ratio",
        ratio(c.compare_released, c.compare_received),
        "ratio",
    );
    report.metric("core.guard.hubbed", c.guard_hubbed as f64, "count");
    report.metric("core.guard.released", c.guard_released as f64, "count");
    report.metric(
        "openflow.switch.forwarded",
        c.switch_forwarded as f64,
        "count",
    );
    report.metric("openflow.switch.dropped", c.switch_dropped as f64, "count");
    report.metric("adversary.modified", c.adversary_modified as f64, "count");
    report.metric(
        "traffic.flowset.packets_sent",
        c.flow_packets_sent as f64,
        "count",
    );
    report.metric(
        "traffic.flowset.completed",
        c.flows_completed as f64,
        "count",
    );
    report.metric("traffic.sink.packets", c.sink_packets as f64, "count");
    report.metric(
        "traffic.ping.transmitted",
        c.ping_transmitted as f64,
        "count",
    );
    report.metric("traffic.ping.received", c.ping_received as f64, "count");
    report.metric("traffic.ping.rtt_avg_us", c.ping_rtt_avg_us(), "us");

    report.metric(
        "topogen.generate_s",
        median(reps.iter().map(|r| r.stages.generate_s)),
        "s",
    );
    report.metric(
        "topogen.netcoize_s",
        median(reps.iter().map(|r| r.stages.netcoize_s)),
        "s",
    );
    report.metric(
        "topogen.build_s",
        median(reps.iter().map(|r| r.stages.build_s)),
        "s",
    );
    report.metric("net.region.speedup_vs_seq", speedup, "ratio");

    report.metric(
        "host.cpu_s",
        median(reps.iter().map(|r| r.sched.cpu_s)),
        "s",
    );
    report.metric(
        "host.runq_wait_s",
        median(reps.iter().map(|r| r.sched.runq_wait_s)),
        "s",
    );
    report.metric("trace.wall_s", traced.wall_s, "s");
    report.metric("trace.overhead_ratio", traced.wall_s / wall_s, "ratio");
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
