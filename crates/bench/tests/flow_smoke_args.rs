//! `flow_smoke` must reject any argument that is not a flow count, rather
//! than silently running its 100k default and passing.

use std::process::Command;

fn flow_smoke(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_flow_smoke"))
        .args(args)
        .output()
        .expect("run flow_smoke")
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [&["1e6"][..], &["--dispatch=fast"], &["100", "200"]] {
        let out = flow_smoke(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} ran the world");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: flow_smoke"), "args {args:?}");
    }
}

#[test]
fn a_flow_count_runs_that_many_flows() {
    let out = flow_smoke(&["100"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"flows\": 100,"), "{stdout}");
    assert!(stdout.contains("\"all_flows_completed\": true"), "{stdout}");
}
