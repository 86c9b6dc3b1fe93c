//! The lint half of `corpus-lint`: the share-distance scheduler hardens
//! the masked AES at every `min_distance` of a sweep (with its
//! lint-based self-check on), and the static analyzer lints every
//! portfolio program plus each hardened variant. No simulation: only the
//! ISA, scheduler and lint layers work.
//!
//! One sweep hardens once per distance and lints every program once, in
//! a seeded order.

use std::time::Instant;

use sca_isa::{Program, Reg};
use sca_lint::{lint_program, LintSpec};
use sca_sched::{harden_program, HardenConfig, SharePolicy};
use sca_target::{AesTarget, CipherTarget, MaskedAesTarget, PresentTarget, SpeckTarget};

use super::{BenchResult, Sizes};
use crate::gen::{derive, SplitMix64};
use crate::metrics::{Checker, Layers};
use crate::trace::Tracer;

/// The committed lint report of the five pinned programs.
pub const LINT_PINS: &str = include_str!("../../../LINT_PINS.txt");

/// Everything a sweep needs, built during set-up.
#[derive(Debug)]
pub(crate) struct Fixture {
    /// The unscheduled masked AES.
    masked: Program,
    /// Its lint spec (it describes every hardened variant too).
    masked_spec: LintSpec,
    /// The scheduler policy for the masked AES.
    policy: SharePolicy,
    /// `(name, program, spec, pinned report)` in pin order.
    pub pinned: Vec<(String, Program, LintSpec, String)>,
}

/// Splits a pins file into `(name, report)` sections.
#[must_use]
pub fn parse_pins(text: &str) -> Vec<(String, String)> {
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")) {
            sections.push((name.to_owned(), String::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    for (_, body) in &mut sections {
        body.truncate(body.trim_end().len());
    }
    sections
}

/// Builds the fixture from a pins file.
///
/// # Errors
///
/// Assembly and scheduling failures, and a pins file that does not
/// name exactly the five portfolio programs.
pub(crate) fn fixture(pins: &str) -> BenchResult<Fixture> {
    let masked_target = MaskedAesTarget::default();
    let masked = masked_target.program().clone();
    let masked_spec = masked_target.lint_spec();
    let policy = SharePolicy::new()
        .with_span(&masked, "subbytes", "mixcolumns")?
        .with_scoped_secret_regs(
            &masked,
            "subbytes",
            "shiftrows",
            [Reg::R1, Reg::R5, Reg::R9, Reg::R11],
        )?;
    let scheduled = harden_program(&masked, &policy, &HardenConfig::default())?.program;
    let aes = AesTarget::default();
    let speck = SpeckTarget::default();
    let present = PresentTarget::default();
    let programs = [
        (
            aes.name().to_owned(),
            aes.program().clone(),
            aes.lint_spec(),
        ),
        (
            masked_target.name().to_owned(),
            masked.clone(),
            masked_spec.clone(),
        ),
        (
            format!("{}+sched", masked_target.name()),
            scheduled,
            masked_spec.clone(),
        ),
        (
            speck.name().to_owned(),
            speck.program().clone(),
            speck.lint_spec(),
        ),
        (
            present.name().to_owned(),
            present.program().clone(),
            present.lint_spec(),
        ),
    ];
    let sections = parse_pins(pins);
    let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = programs.iter().map(|(n, _, _)| n.as_str()).collect();
    if names != expected {
        return Err(format!("pins name {names:?}, expected {expected:?}").into());
    }
    let pinned = programs
        .into_iter()
        .zip(sections)
        .map(|((name, program, spec), (_, report))| (name, program, spec, report))
        .collect();
    Ok(Fixture {
        masked,
        masked_spec,
        policy,
        pinned,
    })
}

/// One sweep step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Harden the masked AES at this `min_distance`, then lint the result.
    Harden(usize),
    /// Lint the pinned program with this index.
    Pinned(usize),
}

/// The steps of sweep `sweep`: every distance in `1..=max_distance` and
/// every pinned program, in a seeded order.
#[must_use]
pub(crate) fn sweep_order(seed: u64, sweep: u64, sizes: &Sizes, pinned: usize) -> Vec<Step> {
    let mut steps: Vec<Step> = (1..=sizes.lint_max_distance)
        .map(Step::Harden)
        .chain((0..pinned).map(Step::Pinned))
        .collect();
    SplitMix64::new(derive(seed, "lint-sweep", sweep)).shuffle(&mut steps);
    steps
}

/// Per-layer totals of one sweep.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SweepTotals {
    /// Seconds in `harden_program`.
    pub harden_s: f64,
    /// Seconds in `lint_program`.
    pub lint_s: f64,
    /// Scrub pairs inserted.
    pub scrubs: u64,
    /// Diagnostics reported.
    pub diagnostics: u64,
}

/// Times `body` under a benchmark span.
fn timed<T>(tracer: &Tracer, span: &str, body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = {
        let _span = tracer.span(span);
        body()
    };
    (result, start.elapsed().as_secs_f64())
}

/// Runs one sweep, checking every output.
pub(crate) fn run_sweep(
    fixture: &Fixture,
    steps: &[Step],
    checks: &mut Checker,
    tracer: &Tracer,
) -> SweepTotals {
    let mut totals = SweepTotals::default();
    for &step in steps {
        match step {
            Step::Harden(distance) => {
                let config = HardenConfig {
                    min_distance: distance,
                    ..HardenConfig::default()
                };
                let (hardened, seconds) = timed(tracer, "harden", || {
                    harden_program(&fixture.masked, &fixture.policy, &config)
                });
                totals.harden_s += seconds;
                let hardened = match hardened {
                    Ok(hardened) => hardened,
                    Err(e) => {
                        checks.check(false, || format!("harden at distance {distance}: {e}"));
                        continue;
                    }
                };
                checks.check(true, String::new);
                totals.scrubs += (hardened.report.mem_scrubs + hardened.report.bus_scrubs) as u64;
                let (report, seconds) = timed(tracer, "lint", || {
                    lint_program(&hardened.program, &fixture.masked_spec)
                });
                totals.lint_s += seconds;
                if let Ok(report) = &report {
                    totals.diagnostics += report.diagnostics.len() as u64;
                }
                checks.check(report.is_ok_and(|r| r.is_clean()), || {
                    format!("hardened variant at distance {distance} does not lint clean")
                });
            }
            Step::Pinned(index) => {
                let (name, program, spec, pinned) = &fixture.pinned[index];
                let (report, seconds) = timed(tracer, "lint", || lint_program(program, spec));
                totals.lint_s += seconds;
                if let Ok(report) = &report {
                    totals.diagnostics += report.diagnostics.len() as u64;
                }
                checks.check(
                    report.is_ok_and(|r| r.render(program).trim_end() == pinned),
                    || format!("{name}: lint report differs from the pins"),
                );
            }
        }
    }
    totals
}

impl SweepTotals {
    /// Adds one sweep's totals (the counts repeat every sweep, so the
    /// last one is kept).
    pub(crate) fn absorb(&mut self, sweep: &SweepTotals) {
        self.harden_s += sweep.harden_s;
        self.lint_s += sweep.lint_s;
        self.scrubs = sweep.scrubs;
        self.diagnostics = sweep.diagnostics;
    }

    /// Fills the scheduler and lint layers from the totals of `n` sweeps.
    pub(crate) fn layers(&self, layers: &mut Layers, n: f64) {
        layers.set("sched.harden_s", self.harden_s / n);
        layers.set("sched.scrubs_inserted", self.scrubs as f64);
        layers.set("lint.lint_s", self.lint_s / n);
        layers.set("lint.diagnostics", self.diagnostics as f64);
    }
}
