//! Command-line entry point:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --capture-golden
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, after first running the same workload untraced in
//! a child process to measure the tracing overhead.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::golden::{Golden, BENCHMARK_SEED, BUNDLED, HELD_OUT_SEED};
use perfbench::metrics::{peak_rss_mb, result_line, tail_percentile, Outcome};
use perfbench::stats::percentile;
use perfbench::trace::{render_tree, Tracer};
use perfbench::workloads::{
    corpus_lint, portfolio_live, tenant_mix, BenchResult, Ctx, Sizes, Workload,
};

/// Printed by an untraced child so its traced parent can compute the
/// tracing overhead.
const PASS_SECONDS_TAG: &str = "perfbench-pass-seconds=";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    report_pass_seconds: bool,
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {problem}\n\
         usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      perfbench --capture-golden\n\
         workloads: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut report_pass_seconds = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--report-pass-seconds" {
            report_pass_seconds = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        report_pass_seconds,
    })
}

/// Removes the scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload untraced in a child process, for half the traced
/// run's seconds (a median per pass needs fewer passes than a total),
/// and returns its median seconds per pass.
fn untraced_pass_seconds(args: &Args) -> BenchResult<f64> {
    let output = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &(args.seconds / 2.0).to_string(),
            "--trace",
            "0",
            "--report-pass-seconds",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()?;
    if !output.status.success() {
        return Err(format!("untraced child run failed: {}", output.status).into());
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|l| l.strip_prefix(PASS_SECONDS_TAG)?.parse::<f64>().ok())
        .ok_or_else(|| "untraced child printed no pass time".into())
}

fn run(args: &Args, tracer: &Tracer) -> BenchResult<Outcome> {
    let work_dir = std::env::current_dir()?.join(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work_dir)?;
    let _scratch = ScratchDir(work_dir.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::standard(),
        tracer,
        work_dir,
    };
    match args.workload {
        Workload::PortfolioLive => portfolio_live::run(&ctx, &Golden::parse(BUNDLED)?),
        Workload::CorpusLint => corpus_lint::run(&ctx),
        Workload::TenantMix => tenant_mix::run(&ctx),
    }
}

fn capture_golden() -> BenchResult<()> {
    let golden = portfolio_live::capture(&Sizes::standard(), &[BENCHMARK_SEED, HELD_OUT_SEED])?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/portfolio-live.txt");
    std::fs::write(&path, golden.render())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--capture-golden"] {
        std::env::set_var("SCA_TELEMETRY", "0");
        return match capture_golden() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    // Read once per process by the telemetry layer, before any span.
    std::env::set_var("SCA_TELEMETRY", if args.trace { "1" } else { "0" });

    let untraced = if args.trace {
        match untraced_pass_seconds(&args) {
            Ok(seconds) => Some(seconds),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let tracer = Tracer::new(args.trace);
    let mut outcome = match run(&args, &tracer) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let checks = &outcome.checks;
    let tail = tail_percentile(outcome.latencies.len());
    let (_, beyond) = percentile(&outcome.kind_mean_latencies(), tail);
    let fastest = outcome
        .passes
        .iter()
        .map(|p| p.seconds)
        .fold(f64::INFINITY, f64::min);
    let slowest = outcome.passes.iter().map(|p| p.seconds).fold(0.0, f64::max);
    eprintln!(
        "perfbench {}: seed {} | {} passes (seconds: fastest {fastest:.6}, median {:.6}, \
         slowest {slowest:.6}) | {} operations of {} kinds timed, {beyond} beyond \
         latency_tail_s = p{tail:.2} | error_rate {} ({} failed of {} attempted)",
        args.workload.name(),
        args.seed,
        outcome.passes.len(),
        outcome.pass_seconds(),
        outcome.latencies.len(),
        outcome.latency_kinds(),
        checks.error_rate(),
        checks.failed,
        checks.attempted,
    );
    for failure in &checks.failures {
        eprintln!("  check failed: {failure}");
    }
    if args.report_pass_seconds {
        println!("{PASS_SECONDS_TAG}{}", outcome.pass_seconds());
    }
    let metrics: Vec<(&str, &str, f64)> = if let Some(untraced) = untraced {
        eprint!("{}", render_tree(&tracer.records()));
        outcome
            .layers
            .set("telemetry.overhead_s", outcome.pass_seconds() - untraced);
        outcome.per_layer()
    } else {
        outcome.end_to_end(peak_rss_mb())
    };
    for (metric, unit, value) in &metrics {
        eprintln!("  {metric} = {value} {unit}");
    }
    println!("{}", result_line(&outcome.checks, &metrics));
    ExitCode::SUCCESS
}
