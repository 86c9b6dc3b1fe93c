//! `portfolio-live`: the paper's full method — value-level HW CPA,
//! microarchitecture-aware HD CPA, fixed-vs-random TVLA, the Table-2
//! characterization and the node audit — on all four registered
//! targets, with no store. Bound by simulation.
//!
//! One pass runs every operation of every target once; passes repeat
//! the same seeded inputs. Work is traces delivered (CPA, TVLA and
//! characterization traces); the pass time includes the audits.

use std::time::Instant;

use sca_core::{audit_cipher_target, leak_paths, AuditConfig};
use sca_target::{
    characterize_target, portfolio, resolve_window, CipherTarget, TargetCampaign,
    TargetCampaignConfig,
};
use sca_uarch::UarchConfig;

use super::{bench_noise, simulation_layers, BenchResult, Ctx, Sizes};
use crate::gen::derive;
use crate::golden::{Counters, Golden};
use crate::metrics::{Checker, Latency, Outcome, Pass};
use crate::trace::{Probe, Tracer, Work};

/// Counters checked exactly against the golden file: `(golden name,
/// telemetry counter)`.
const EXACT_COUNTERS: [(&str, &str); 6] = [
    ("sim_runs", "power/simulator_runs"),
    ("traces", "campaign/traces_simulated"),
    ("l1i", "uarch/l1i/accesses"),
    ("l1d", "uarch/l1d/accesses"),
    ("lockstep", "campaign/lockstep_traces"),
    ("poisoned", "campaign/blocks_poisoned"),
];

/// One operation's outputs.
#[derive(Clone, Debug)]
pub(crate) struct OpRun {
    /// `target/phase`.
    pub key: String,
    /// Verdict lines (bit-exact figures included).
    pub lines: Vec<String>,
    /// Host seconds.
    pub seconds: f64,
    /// Traces delivered.
    pub traces: u64,
    /// Exact simulated counters.
    pub counters: Counters,
}

/// The golden `config` string of a size configuration.
#[must_use]
pub(crate) fn config_key(sizes: &Sizes) -> String {
    format!(
        "traces={} executions={} charz={} audit={}",
        sizes.live_traces, sizes.live_executions, sizes.charz_traces, sizes.audit_executions
    )
}

/// The campaign seed of a workload seed (every pass reuses it).
#[must_use]
pub(crate) fn pass_seed(seed: u64) -> u64 {
    derive(seed, "portfolio-live", 0)
}

fn counters(work: &Work) -> Counters {
    EXACT_COUNTERS
        .iter()
        .map(|(name, counter)| ((*name).to_owned(), work.counter(counter)))
        .collect()
}

/// Runs one operation, catching its error as an output line (which
/// then fails every check).
fn op(
    tracer: &Tracer,
    key: String,
    span: &str,
    body: impl FnOnce() -> BenchResult<(Vec<String>, u64)>,
) -> OpRun {
    let probe = Probe::start();
    let start = Instant::now();
    let result = {
        let _span = tracer.span(span);
        body()
    };
    let seconds = start.elapsed().as_secs_f64();
    let (lines, traces) = result.unwrap_or_else(|e| (vec![format!("error: {e}")], 0));
    OpRun {
        key,
        lines,
        seconds,
        traces,
        counters: counters(&probe.finish()),
    }
}

fn hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// One pass over the portfolio with `lanes` lockstep lanes. An
/// operation's failure is recorded in its lines.
///
/// # Errors
///
/// A target that cannot be built.
pub(crate) fn run_pass(
    sizes: &Sizes,
    seed: u64,
    lanes: usize,
    tracer: &Tracer,
) -> BenchResult<Vec<OpRun>> {
    let uarch = UarchConfig::cortex_a7();
    let mut ops = Vec::new();
    for (i, target) in portfolio().iter().enumerate() {
        let target: &dyn CipherTarget = target.as_ref();
        let name = target.name();
        let salt = i as u64 + 1;
        let _span = tracer.span(name);
        let config = TargetCampaignConfig {
            traces: sizes.live_traces,
            executions_per_trace: sizes.live_executions,
            seed: seed ^ (salt << 24),
            threads: sizes.threads,
            batch: sca_campaign::DEFAULT_BATCH,
            lanes,
            noise: bench_noise(),
        };
        let campaign = TargetCampaign::new(target, &uarch, config.clone())?;
        let models = target.models();
        let traces = sizes.live_traces as u64;
        for model in &models {
            let phase = format!("cpa-{}", model.kind.to_string().to_lowercase());
            ops.push(op(tracer, format!("{name}/{phase}"), "cpa", || {
                let v = campaign.cpa(model)?;
                Ok((
                    vec![format!(
                        "[{name}] {} peak={} best_wrong={}",
                        v.verdict(),
                        hex(v.peak),
                        hex(v.best_wrong)
                    )],
                    traces,
                ))
            }));
        }
        ops.push(op(tracer, format!("{name}/tvla"), "tvla", || {
            let v = campaign.tvla()?;
            Ok((
                vec![format!(
                    "[{name}] TVLA fixed-vs-random: {} max_t={} counts={}/{}",
                    if v.leaks { "LEAKS" } else { "clean" },
                    hex(v.max_t),
                    v.counts.0,
                    v.counts.1
                )],
                traces,
            ))
        }));
        ops.push(op(tracer, format!("{name}/charz"), "charz", || {
            let rows = characterize_target(
                target,
                campaign.cpu(),
                &models,
                &TargetCampaignConfig {
                    traces: sizes.charz_traces,
                    ..config.clone()
                },
                0.995,
            )?;
            let lines = rows
                .iter()
                .map(|row| {
                    let peaks: Vec<String> = row.cells.iter().map(|c| hex(c.peak_corr)).collect();
                    format!(
                        "[{name}] charz {} peaks={}",
                        row.verdict_line(),
                        peaks.join(",")
                    )
                })
                .collect();
            Ok((lines, sizes.charz_traces as u64))
        }));
        ops.push(op(tracer, format!("{name}/audit"), "audit", || {
            let report = audit_cipher_target(
                target,
                &uarch,
                &AuditConfig {
                    executions: sizes.audit_executions,
                    seed: seed ^ 0xa0d17 ^ salt,
                    ..AuditConfig::default()
                },
            )?;
            let (operand, memory) = leak_paths(&report);
            Ok((
                vec![format!(
                    "[{name}] audit: {operand} operand-path leak(s), {memory} memory-path leak(s), {} finding(s)",
                    report.findings.len()
                )],
                0,
            ))
        }));
    }
    Ok(ops)
}

/// Checks one pass: verdict lines against the reference pass (and the
/// golden lines when the seed is pinned), exact counters against the
/// golden counters.
pub(crate) fn check_pass(
    checks: &mut Checker,
    ops: &[OpRun],
    reference: &[OpRun],
    golden: &Golden,
    config: &str,
    seed: u64,
) {
    if ops.len() != reference.len() {
        checks.check(false, || {
            format!(
                "pass has {} operations, reference {}",
                ops.len(),
                reference.len()
            )
        });
        return;
    }
    let pinned = golden.lines.get(&seed);
    for (run, reference) in ops.iter().zip(reference) {
        let config_ok = golden.config == config;
        let lines_ok = run.key == reference.key && run.lines == reference.lines;
        let counters_ok = golden.counters.get(&run.key) == Some(&run.counters);
        let pinned_ok = pinned.is_none_or(|p| p.get(&run.key) == Some(&run.lines));
        checks.check(config_ok && lines_ok && counters_ok && pinned_ok, || {
            format!(
                "{}: config {config_ok}, reference lines {lines_ok}, golden counters {counters_ok} \
                 ({:?}), pinned lines {pinned_ok}",
                run.key, run.counters
            )
        });
    }
}

/// Captures a golden file from passes at the given seeds.
///
/// # Errors
///
/// A target that cannot be built, and an operation whose counters
/// differ between seeds (they would not be a valid check for every
/// seed).
pub fn capture(sizes: &Sizes, seeds: &[u64]) -> BenchResult<Golden> {
    let tracer = Tracer::new(false);
    let mut golden = Golden {
        config: config_key(sizes),
        ..Golden::default()
    };
    for &seed in seeds {
        let ops = run_pass(sizes, pass_seed(seed), sca_campaign::DEFAULT_LANES, &tracer)?;
        for run in ops {
            if let Some(seen) = golden.counters.get(&run.key) {
                if *seen != run.counters {
                    return Err(format!(
                        "{}: counters depend on the seed: {seen:?} vs {:?}",
                        run.key, run.counters
                    )
                    .into());
                }
            }
            golden.counters.insert(run.key.clone(), run.counters);
            golden
                .lines
                .entry(seed)
                .or_default()
                .insert(run.key, run.lines);
        }
    }
    Ok(golden)
}

/// Runs the workload.
///
/// # Errors
///
/// A target that cannot be built.
pub fn run(ctx: &Ctx, golden: &Golden) -> BenchResult<Outcome> {
    let sizes = &ctx.sizes;
    let mut outcome = Outcome::default();
    let uarch = UarchConfig::cortex_a7();

    // Set-up: assemble and warm every target, resolve every window.
    for _ in 0..sizes.setup_reps {
        let start = Instant::now();
        for target in &portfolio() {
            let cpu = target.build(&uarch)?;
            resolve_window(target.as_ref(), &cpu, &target.primary_window())?;
            for model in target.models() {
                resolve_window(target.as_ref(), &cpu, &model.window)?;
            }
        }
        outcome.setup.push(start.elapsed().as_secs_f64());
    }

    let seed = pass_seed(ctx.seed);
    let mark = ctx.tracer.mark();
    let mut work = Work::default();
    let mut passes = Vec::new();
    let started = Instant::now();
    loop {
        let probe = Probe::start();
        let start = Instant::now();
        let ops = {
            let _span = ctx.tracer.span("pass");
            run_pass(sizes, seed, sca_campaign::DEFAULT_LANES, ctx.tracer)?
        };
        let seconds = start.elapsed().as_secs_f64();
        work.absorb(&probe.finish());
        outcome.passes.push(Pass {
            seconds,
            jobs: ops.len() as u64,
            work: ops.iter().map(|o| o.traces).sum(),
        });
        outcome.latencies.extend(ops.iter().map(|o| Latency {
            kind: o.key.clone(),
            seconds: o.seconds,
        }));
        passes.push(ops);
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    if ctx.tracer.on() {
        let n = passes.len() as f64;
        let layers = &mut outcome.layers;
        simulation_layers(layers, &work, n);
        layers.set("target.cpa_s", ctx.tracer.total("cpa", mark) / n);
        layers.set("target.tvla_s", ctx.tracer.total("tvla", mark) / n);
        layers.set("target.charz_s", ctx.tracer.total("charz", mark) / n);
        layers.set("core.audit_s", ctx.tracer.total("audit", mark) / n);
    }

    // Reference: the same pass through the scalar simulator path.
    let reference = run_pass(sizes, seed, 1, &Tracer::new(false))?;
    let config = config_key(sizes);
    for ops in &passes {
        check_pass(
            &mut outcome.checks,
            ops,
            &reference,
            golden,
            &config,
            ctx.seed,
        );
    }
    Ok(outcome)
}
