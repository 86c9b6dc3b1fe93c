//! `--lanes` on the campaign binaries that run at the default lane
//! count: `figure3`, `figure4` and `masked` print byte-identical output
//! at every lane count, so the flag could change nothing — it must fail
//! at argument parsing with exit 2, before any simulation and without
//! printing a partial report, instead of being silently ignored.

use std::process::Command;

#[test]
fn lanes_is_rejected_with_exit_2() {
    for (name, binary) in [
        ("figure3", env!("CARGO_BIN_EXE_figure3")),
        ("figure4", env!("CARGO_BIN_EXE_figure4")),
        ("masked", env!("CARGO_BIN_EXE_masked")),
    ] {
        for args in [
            &["--lanes", "1"][..],
            &["--lanes", "8"][..],
            &["--traces", "8", "--lanes", "2"][..],
        ] {
            let out = Command::new(binary)
                .args(args)
                .output()
                .expect("binary runs");
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
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("--lanes"),
                "{name} {args:?}: the error names the flag"
            );
        }
    }
}
