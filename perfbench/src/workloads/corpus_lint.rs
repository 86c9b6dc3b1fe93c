//! `corpus-lint`: the zero-simulation workload. Set-up simulates a
//! stored corpus for every (target, HW CPA / HD CPA / TVLA) pair and
//! builds the lint fixture. Each timed pass re-analyzes every corpus by
//! streaming it ([`super::corpus_reanalyze`]), then runs one hardening
//! and lint sweep ([`super::lint_triage`]). The store read path, the
//! analysis accumulators, the scheduler and the static analyzer do the
//! work.
//!
//! Work is traces streamed; a job is one re-analysis, or one whole
//! sweep (a triage of every program, as one `lint` run gives it). The
//! sweep's single programs take milliseconds and are the part of a pass
//! most sensitive to a contended host, so they are not timed one by
//! one; `sched.harden_s` and `lint.lint_s` break the sweep down.

use std::time::Instant;

use sca_target::portfolio;

use super::corpus_reanalyze::{build, read_layers, reanalyze};
use super::lint_triage::{fixture, run_sweep, sweep_order, SweepTotals, LINT_PINS};
use super::{simulation_layers, store_write_layers, BenchResult, Ctx};
use crate::gen::derive;
use crate::metrics::{Latency, Outcome, Pass};
use crate::trace::{Probe, Work};

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (simulating or storing a corpus, building the lint
/// fixture) and scratch I/O.
pub fn run(ctx: &Ctx) -> BenchResult<Outcome> {
    let sizes = &ctx.sizes;
    let mut outcome = Outcome::default();
    let seed = derive(ctx.seed, "corpus-reanalyze", 0);

    // Set-up: build the corpus and the lint fixture from scratch,
    // several times; the last build is the one used.
    let mut corpora = Vec::new();
    let mut built_fixture = None;
    let mut build_work = Work::default();
    let mut previous: Option<Vec<String>> = None;
    for rep in 0..sizes.corpus_builds {
        let root = ctx.work_dir.join(format!("corpus-{rep}"));
        let start = Instant::now();
        let probe = Probe::start();
        let built = build(sizes, seed, &root)?;
        build_work = probe.finish();
        built_fixture = Some(fixture(LINT_PINS)?);
        outcome.setup.push(start.elapsed().as_secs_f64());
        // Every build of the same seed must store the same verdicts.
        let lines: Vec<String> = built.iter().map(|c| c.line.clone()).collect();
        if let Some(previous) = &previous {
            outcome
                .checks
                .check(*previous == lines, || format!("corpus build {rep} differs"));
        }
        previous = Some(lines);
        if !corpora.is_empty() {
            std::fs::remove_dir_all(ctx.work_dir.join(format!("corpus-{}", rep - 1)))?;
        }
        corpora = built;
    }
    let fixture = built_fixture.expect("at least one corpus build");

    let targets = portfolio();
    let mark = ctx.tracer.mark();
    let mut work = Work::default();
    let mut sweeps = SweepTotals::default();
    let mut results = Vec::new();
    let started = Instant::now();
    for pass in 0.. {
        let steps = sweep_order(ctx.seed, pass, sizes, fixture.pinned.len());
        let probe = Probe::start();
        let start = Instant::now();
        let mut lines = Vec::new();
        {
            let _span = ctx.tracer.span("pass");
            for (i, corpus) in corpora.iter().enumerate() {
                let op_start = Instant::now();
                let line = {
                    let _span = ctx.tracer.span("reanalyze");
                    reanalyze(corpus, &targets).unwrap_or_else(|e| format!("error: {e}"))
                };
                outcome.latencies.push(Latency {
                    kind: format!("corpus-{i}"),
                    seconds: op_start.elapsed().as_secs_f64(),
                });
                lines.push(line);
            }
            let sweep_start = Instant::now();
            let totals = {
                let _span = ctx.tracer.span("sweep");
                run_sweep(&fixture, &steps, &mut outcome.checks, ctx.tracer)
            };
            outcome.latencies.push(Latency {
                kind: "lint-sweep".to_owned(),
                seconds: sweep_start.elapsed().as_secs_f64(),
            });
            sweeps.absorb(&totals);
        }
        let seconds = start.elapsed().as_secs_f64();
        let delta = probe.finish();
        work.absorb(&delta);
        outcome.passes.push(Pass {
            seconds,
            jobs: corpora.len() as u64 + 1,
            work: corpora.iter().map(|c| c.traces).sum(),
        });
        results.push((lines, delta.counter("power/simulator_runs")));
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    if ctx.tracer.on() {
        let n = outcome.passes.len() as f64;
        let layers = &mut outcome.layers;
        // The simulator and store-write layers work during set-up here:
        // report one corpus build.
        simulation_layers(layers, &build_work, 1.0);
        store_write_layers(layers, &build_work, 1.0);
        read_layers(layers, ctx.tracer, &corpora, &work, n, mark)?;
        sweeps.layers(layers, n);
    }

    // Every re-analysis must reproduce its stored run's verdict line,
    // and a pass must not simulate at all.
    for (lines, sim_runs) in &results {
        for (line, corpus) in lines.iter().zip(&corpora) {
            outcome
                .checks
                .check(*line == corpus.line && *sim_runs == 0, || {
                    format!(
                        "re-analysis of {} gave '{line}' with {sim_runs} simulator runs, \
                         stored run gave '{}'",
                        corpus.dir.display(),
                        corpus.line
                    )
                });
        }
    }
    Ok(outcome)
}
