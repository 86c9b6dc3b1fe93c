//! Table-2-style per-component characterization of a cipher target.
//!
//! The paper's Table 2 characterizes each pipeline component against
//! per-kernel model expressions; this module does the same against a
//! *cipher*: the target's attack models, evaluated at the true key,
//! are correlated against each component's own power sub-trace inside
//! the target's analysis window, and each `(component, model)` cell
//! gets a RED/black verdict at the configured Fisher-z confidence —
//! exactly the characterization step the paper runs before mounting an
//! attack, generalized over the portfolio.

use sca_analysis::{significance_threshold, PearsonAccumulator};
use sca_campaign::{run_sharded, ComponentArena, ShardPlan};
use sca_power::{ComponentSynthesizer, LeakageWeights};
use sca_uarch::{Cpu, Lane, NodeKind};

use crate::{resolve_window, CipherTarget, TargetCampaignConfig, TargetError, TargetModel};

/// The components characterized — Table 2's seven columns.
pub const CHARZ_COMPONENTS: [NodeKind; 7] = [
    NodeKind::RegisterFile,
    NodeKind::IsExBuffer,
    NodeKind::ShiftBuffer,
    NodeKind::Alu,
    NodeKind::ExWbBuffer,
    NodeKind::Mdr,
    NodeKind::AlignBuffer,
];

/// One `(component, model)` cell.
#[derive(Clone, Debug)]
pub struct NodeCharacterization {
    /// The pipeline component.
    pub component: NodeKind,
    /// Peak |correlation| inside the window.
    pub peak_corr: f64,
    /// RED (significant) or black.
    pub significant: bool,
}

/// One model's characterization row across all components.
#[derive(Clone, Debug)]
pub struct TargetCharacterization {
    /// The model (evaluated at the true key).
    pub model: String,
    /// Traces used.
    pub traces: usize,
    /// Detection confidence.
    pub confidence: f64,
    /// Per-component cells, in [`CHARZ_COMPONENTS`] order.
    pub cells: Vec<NodeCharacterization>,
}

impl TargetCharacterization {
    /// The compact RED/black verdict line the portfolio binary prints
    /// and the regression tests pin.
    pub fn verdict_line(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{}={}",
                    match c.component {
                        NodeKind::RegisterFile => "RF",
                        NodeKind::IsExBuffer => "ISEX",
                        NodeKind::ShiftBuffer => "SHIFT",
                        NodeKind::Alu => "ALU",
                        NodeKind::ExWbBuffer => "EXWB",
                        NodeKind::Mdr => "MDR",
                        NodeKind::AlignBuffer => "ALIGN",
                        NodeKind::FetchPath => "FETCH",
                    },
                    if c.significant { "RED" } else { "black" }
                )
            })
            .collect();
        format!("{}: {}", self.model, cells.join(" "))
    }
}

/// Characterizes a target's models against every pipeline component.
///
/// One sharded acquisition serves every `(model, component)` cell:
/// each trace records one power sub-trace per component (averaged over
/// the configured executions, with per-execution noise), cropped to
/// the target's primary window, and folds into per-cell Pearson
/// accumulators — the leakage-characterization analog of the CPA
/// campaigns, and deterministic under the same contract.
///
/// # Errors
///
/// Propagates simulator faults, and window misconfiguration as
/// [`TargetError::Window`].
///
/// # Panics
///
/// Panics if `config.traces < 4`: the Fisher-z significance threshold
/// needs at least four observations.
pub fn characterize_target(
    target: &dyn CipherTarget,
    cpu: &Cpu,
    models: &[TargetModel],
    config: &TargetCampaignConfig,
    confidence: f64,
) -> Result<Vec<TargetCharacterization>, TargetError> {
    let window = resolve_window(target, cpu, &target.primary_window())?;
    // The characterization records per-cycle power (one sample per
    // cycle), so the shared end-exclusive conversion is the identity
    // here — but it keeps this crop on the same rounding contract as
    // the campaign engine's sample-rate expansion.
    let (start, len) = sca_power::cycle_window_to_samples(
        1.0,
        window.trigger_relative.0,
        window.trigger_relative.1,
    );

    let plan = ShardPlan {
        items: config.traces,
        threads: config.threads.max(1),
        batch: config.batch.max(1),
    };
    let entry = target.program().entry();
    let synth = ComponentSynthesizer::new(
        LeakageWeights::cortex_a7(),
        &CHARZ_COMPONENTS,
        (start, len),
        config.executions_per_trace,
        config.noise,
        config.seed ^ 0xc4a12,
    );
    let generate = |rng: &mut rand::rngs::StdRng, index| target.generate(rng, index);
    let stage = |cpu: &mut Lane, input: &[u8]| target.stage(cpu, input);
    let sink = run_sharded(
        &plan,
        || ComponentArena::new(&synth, cpu, config.lanes),
        // `models × components` Pearson accumulators.
        || {
            models
                .iter()
                .map(|_| vec![PearsonAccumulator::new(len); CHARZ_COMPONENTS.len()])
                .collect::<Vec<_>>()
        },
        |arena, sink, range| {
            arena.run(
                &synth,
                entry,
                range,
                &generate,
                &stage,
                |input, channels| {
                    for (model, row) in models.iter().zip(sink.iter_mut()) {
                        let prediction = model.predict_true(input);
                        for (acc, channel) in row.iter_mut().zip(channels) {
                            acc.add(prediction, channel);
                        }
                    }
                },
            )
        },
    )?;

    // Bonferroni over the window keeps the per-cell false-positive rate
    // at (1 - confidence).
    let corrected = 1.0 - (1.0 - confidence) / len.max(1) as f64;
    let threshold = significance_threshold(config.traces as u64, corrected);
    Ok(models
        .iter()
        .zip(&sink)
        .map(|(model, row)| TargetCharacterization {
            model: model.name.clone(),
            traces: config.traces,
            confidence,
            cells: CHARZ_COMPONENTS
                .iter()
                .zip(row)
                .map(|(&component, acc)| {
                    let peak = acc
                        .correlations()
                        .iter()
                        .map(|c| c.abs())
                        .fold(0.0, f64::max);
                    NodeCharacterization {
                        component,
                        peak_corr: peak,
                        significant: peak >= threshold,
                    }
                })
                .collect(),
        })
        .collect())
}
