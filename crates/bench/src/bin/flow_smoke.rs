//! `flow_smoke`: the CI timed smoke for the million-flow traffic engine.
//!
//! Runs the canonical flow-scale world (default 100,000 concurrent flows)
//! twice with the same seed, prints one JSON line, and exits non-zero if
//! any flow failed to complete or the reruns were not bit-identical. CI
//! wraps the invocation in `timeout`, so a performance regression that
//! blows the wall-clock budget fails the job even though the run itself
//! would eventually succeed.
//!
//! Usage: `flow_smoke [flows]`
//!
//! `flows` is a plain decimal count (`1000000`, not `1e6`). Any other
//! argument, or more than one, prints the usage line and exits 2 rather
//! than silently running the default.

use netco_bench::flows::{peak_rss_mb, run_flow_world};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flows: usize = match args.as_slice() {
        [] => 100_000,
        [n] => n.parse().unwrap_or_else(|_| usage_exit()),
        _ => usage_exit(),
    };
    let first = run_flow_world(flows, 7);
    let second = run_flow_world(flows, 7);
    let identical = first.digest == second.digest && first.events == second.events;
    let complete = second.completed == second.spawned && second.spawned == flows as u64;
    println!(
        "{{\"flows\": {}, \"events\": {}, \"events_per_sec\": {:.0}, \"packets\": {}, \"completed\": {}, \"peak_rss_mb\": {:.1}, \"rerun_bit_identical\": {}, \"all_flows_completed\": {}}}",
        flows,
        second.events,
        second.events_per_sec(),
        second.packets,
        second.completed,
        peak_rss_mb(),
        identical,
        complete
    );
    if !identical || !complete {
        eprintln!("flow_smoke: FAILED (identical={identical} complete={complete})");
        std::process::exit(1);
    }
}

fn usage_exit() -> ! {
    eprintln!("usage: flow_smoke [flows]");
    std::process::exit(2);
}
