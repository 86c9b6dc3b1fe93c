//! The `table2` and `ablation` binaries' strict-args contract.
//!
//! Both run the Table 2 characterization, whose Fisher-z significance
//! threshold needs at least four traces, and both run at the fixed
//! default lane count. A trace count below four and any `--lanes` must
//! therefore fail at argument parsing with exit 2 — before any
//! simulation, and without printing a partial report — instead of
//! panicking mid-run or being silently ignored.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn too_few_traces_and_lanes_are_rejected_with_exit_2() {
    for (name, binary) in [
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ] {
        for args in [
            &["--traces", "3"][..],
            &["--traces", "0"][..],
            &["--lanes", "2"][..],
            &["--lanes", "8"][..],
            &["--traces", "8", "--lanes", "1"][..],
        ] {
            let out = run(binary, args);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} {args:?} must exit 2, got {:?}\nstderr: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                out.stdout.is_empty(),
                "{name} {args:?}: a rejected invocation must not print a report"
            );
        }
    }
}

#[test]
fn four_traces_are_enough() {
    let out = run(
        env!("CARGO_BIN_EXE_table2"),
        &["--traces", "4", "--threads", "1"],
    );
    assert!(
        out.status.success(),
        "table2 --traces 4 must run, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 2 reproduction"));
}
