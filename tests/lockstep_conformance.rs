//! Lockstep conformance: a `CpuBlock` stepping N traces together must
//! be **byte-identical** to N independent scalar `Cpu` runs — per
//! target, per lane count, at the synthesis layer and through the full
//! campaign engine.
//!
//! This is the harness that makes the lockstep fast path safe to leave
//! on by default: the block shares one pipeline walk across lanes, so
//! any divergence it fails to detect (or any per-lane event it emits in
//! the wrong order) would silently corrupt every downstream statistic.
//! Here every portfolio target — AES-128, masked AES, SPECK64/128,
//! PRESENT-80 — and every Table 2 micro-benchmark runs at
//! N ∈ {1, 2, 5, 8} against the scalar reference, and the results are
//! compared bit-for-bit, not to an epsilon. A kernel with a
//! data-dependent branch forces a divergence, so the poison-and-rerun
//! path is pinned too.

use rand::rngs::StdRng;

use sca_target::{characterize_target, portfolio, TargetCampaignConfig};
use superscalar_sca::campaign::{
    run_sharded, Campaign, CampaignConfig, ComponentArena, Mergeable, ShardPlan,
};
use superscalar_sca::core::{run_benchmark_at_lanes, table2_benchmarks, CharacterizationConfig};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{
    AcquisitionConfig, ComponentSynthesizer, GaussianNoise, LeakageWeights, PowerRecorder,
    SampleWindow, SamplingConfig, SynthScratch, TraceSynthesizer,
};
use superscalar_sca::uarch::{Cpu, CpuBlock, Lane, NodeKind, UarchConfig};

const LANE_COUNTS: [usize; 4] = [1, 2, 5, 8];

fn synthesizer(seed: u64) -> TraceSynthesizer {
    TraceSynthesizer::new(
        LeakageWeights::cortex_a7(),
        AcquisitionConfig {
            traces: 16,
            executions_per_trace: 2,
            sampling: SamplingConfig::picoscope_500msps_120mhz(),
            noise: GaussianNoise::bare_metal(),
            seed,
            threads: 1,
        },
    )
}

/// The direct differential: `synth_block_into` at every lane count vs
/// one `synth_into` per index, for every portfolio target — identical
/// inputs and bit-identical f32 traces, from a nonzero base index so
/// lane→index mapping is exercised too.
#[test]
fn block_synthesis_matches_scalar_per_target_and_lane_count() {
    let uarch = UarchConfig::cortex_a7();
    for target in &portfolio() {
        let target = target.as_ref();
        let template = target.build(&uarch).expect("target builds");
        let entry = target.program().entry();
        let synth = synthesizer(0x010c_45e7 ^ target.name().len() as u64);
        let generate = |rng: &mut StdRng, index: usize| target.generate(rng, index);
        let stage = |cpu: &mut Lane, input: &[u8]| target.stage(cpu, input);
        let post = |_: &mut StdRng, _: &mut Vec<f64>| {};

        for lanes in LANE_COUNTS {
            let base = 3; // nonzero: lane l must map to trace base + l
                          // Scalar reference: one self-contained synthesis per index.
            let mut scalar_cpu = template.clone();
            let mut recorder = PowerRecorder::new(synth.weights().clone());
            let mut scratch = SynthScratch::new();
            let mut want: Vec<(Vec<f32>, Vec<u8>)> = Vec::new();
            for index in base..base + lanes {
                let mut trace = Vec::new();
                let input = synth
                    .synth_into(
                        &mut scalar_cpu,
                        &mut recorder,
                        &mut scratch,
                        &mut trace,
                        entry,
                        index,
                        SampleWindow::ALL,
                        &generate,
                        &stage,
                        &post,
                    )
                    .expect("scalar synthesis runs");
                want.push((trace, input));
            }

            // Lockstep: all lanes in one pipeline walk.
            let mut block = CpuBlock::from_template(&template, lanes);
            let mut block_recorder = PowerRecorder::with_lanes(synth.weights().clone(), lanes);
            let mut scratches = vec![SynthScratch::new(); lanes];
            let mut traces = vec![Vec::new(); lanes];
            let inputs = synth
                .synth_block_into(
                    &mut block,
                    &mut block_recorder,
                    &mut scratches,
                    &mut traces,
                    entry,
                    base,
                    lanes,
                    SampleWindow::ALL,
                    &generate,
                    &stage,
                    &post,
                )
                .unwrap_or_else(|| {
                    panic!("[{}] lanes {lanes}: unexpected divergence", target.name())
                });

            for l in 0..lanes {
                assert_eq!(
                    inputs[l],
                    want[l].1,
                    "[{}] lanes {lanes} lane {l}: input",
                    target.name()
                );
                assert_eq!(
                    traces[l].len(),
                    want[l].0.len(),
                    "[{}] lanes {lanes} lane {l}: trace length",
                    target.name()
                );
                for (s, (a, b)) in traces[l].iter().zip(&want[l].0).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "[{}] lanes {lanes} lane {l} sample {s}",
                        target.name()
                    );
                }
            }
        }
    }
}

/// A sink that materializes every (input, windowed trace) it absorbs,
/// in index order — the campaign-level fingerprint.
#[derive(Debug, Default)]
struct CollectSink {
    inputs: Vec<Vec<u8>>,
    flat: Vec<f32>,
}

impl Mergeable for CollectSink {
    fn merge(&mut self, other: CollectSink) {
        self.inputs.extend(other.inputs);
        self.flat.extend(other.flat);
    }
}

impl superscalar_sca::campaign::CampaignSink for CollectSink {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], _samples: usize) {
        self.inputs.extend(inputs.iter().cloned());
        self.flat.extend_from_slice(traces);
    }
}

/// End-to-end through the campaign engine: every trace the engine
/// delivers to its sinks is bit-identical at every lane count — across
/// group-boundary remainders (traces % lanes ≠ 0), batch chunking and
/// the clipped-window path, for a representative target.
#[test]
fn campaign_results_are_lane_count_invariant() {
    let targets = portfolio();
    let target = targets
        .iter()
        .find(|t| t.name() == "speck64128")
        .expect("portfolio registers speck64128")
        .as_ref();
    let uarch = UarchConfig::cortex_a7();
    let template = target.build(&uarch).expect("target builds");
    let entry = target.program().entry();

    let run = |lanes: usize| -> CollectSink {
        let campaign = Campaign::new(
            LeakageWeights::cortex_a7(),
            CampaignConfig {
                traces: 21, // deliberately not a multiple of any lane count
                executions_per_trace: 2,
                sampling: SamplingConfig::picoscope_500msps_120mhz(),
                noise: GaussianNoise::bare_metal(),
                seed: 0xb10c,
                threads: 2,
                batch: 6,
            },
        )
        .with_lanes(lanes)
        .with_window(2, 40);
        campaign
            .run(
                &template,
                entry,
                |rng: &mut StdRng, index| target.generate(rng, index),
                |cpu: &mut Lane, input: &[u8]| target.stage(cpu, input),
                |_| CollectSink::default(),
            )
            .expect("campaign runs")
    };

    let reference = run(1);
    assert_eq!(reference.inputs.len(), 21);
    for lanes in [2, 5, 8] {
        let got = run(lanes);
        assert_eq!(got.inputs, reference.inputs, "lanes {lanes}: inputs");
        assert_eq!(got.flat.len(), reference.flat.len(), "lanes {lanes}: size");
        for (i, (a, b)) in got.flat.iter().zip(&reference.flat).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "lanes {lanes} flat sample {i}");
        }
    }
}

/// The per-component characterization rides the same lockstep block
/// (`ComponentArena` + a multi-lane `ComponentPowerRecorder`): every
/// `(model, component)` peak correlation must be bit-identical at every
/// lane count, for every portfolio target — including the trailing
/// partial group (traces % lanes != 0) and the threaded shard split.
#[test]
fn characterization_is_lane_count_invariant() {
    let uarch = UarchConfig::cortex_a7();
    for target in &portfolio() {
        let target = target.as_ref();
        let template = target.build(&uarch).expect("target builds");
        let models = target.models();

        let run = |lanes: usize| {
            let config = TargetCampaignConfig {
                traces: 19, // not a multiple of any lane count
                executions_per_trace: 2,
                seed: 0xc4a7_2e11,
                threads: 2,
                batch: 6,
                lanes,
                noise: GaussianNoise::bare_metal(),
            };
            characterize_target(target, &template, &models, &config, 0.995)
                .expect("characterization runs")
        };

        let reference = run(1);
        for lanes in [2, 5, 8] {
            let got = run(lanes);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.model, r.model);
                for (gc, rc) in g.cells.iter().zip(&r.cells) {
                    assert_eq!(
                        gc.peak_corr.to_bits(),
                        rc.peak_corr.to_bits(),
                        "[{}] lanes {lanes} model {} component {:?}",
                        target.name(),
                        g.model,
                        gc.component
                    );
                    assert_eq!(gc.significant, rc.significant);
                }
            }
        }
    }
}

/// Table 2 runs through the same per-component worker: all seven rows'
/// cells — peak correlation, its sample and the verdict — must be
/// bit-identical at every lane count, including the trailing partial
/// group and the threaded shard split.
#[test]
fn table2_rows_are_lane_count_invariant() {
    let uarch = UarchConfig::cortex_a7();
    let config = CharacterizationConfig {
        traces: 19, // not a multiple of any lane count
        executions_per_trace: 2,
        threads: 2,
        batch: 6,
        ..CharacterizationConfig::default()
    };
    for benchmark in &table2_benchmarks() {
        let reference = run_benchmark_at_lanes(benchmark, &uarch, &config, 1).expect("row runs");
        for lanes in [2, 5, 8] {
            let got = run_benchmark_at_lanes(benchmark, &uarch, &config, lanes).expect("row runs");
            assert_eq!(got.traces, reference.traces);
            assert_eq!(got.dual_issued, reference.dual_issued);
            for (g, r) in got.cells.iter().zip(&reference.cells) {
                let cell = format!("row {} lanes {lanes} {}", benchmark.row, r.expr);
                assert_eq!(g.peak_corr.to_bits(), r.peak_corr.to_bits(), "{cell}");
                assert_eq!(g.peak_sample, r.peak_sample, "{cell}");
                assert_eq!(g.significant, r.significant, "{cell}");
            }
        }
    }
}

/// A kernel whose control flow depends on the input's low bit: lanes
/// staged with different parities disagree on the branch, so every
/// lockstep group of mixed parity diverges.
fn branching_kernel() -> (Cpu, u32) {
    let program = assemble(
        "
        trig #1
        ldr r1, [r10]
        nop
        nop
        nop
        ands r2, r1, #1
        beq skip
        add r3, r1, r1
        eor r4, r3, r1
skip:   nop
        nop
        nop
        trig #0
        halt
    ",
    )
    .expect("kernel assembles");
    let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
    cpu.load(&program).expect("kernel loads");
    cpu.set_reg(Reg::R10, 0x800);
    (cpu, program.entry())
}

fn stage_word(cpu: &mut Lane, input: &[u8]) {
    let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
    cpu.mem_mut().write_u32(0x800, word).expect("staging write");
}

fn random_word(rng: &mut StdRng, _: usize) -> Vec<u8> {
    use rand::Rng;
    rng.gen::<u32>().to_le_bytes().to_vec()
}

/// Every `(input, channels)` a per-component worker hands out, in
/// index order.
#[derive(Debug, Default)]
struct ChannelLog(Vec<(Vec<u8>, Vec<Vec<f32>>)>);

impl Mergeable for ChannelLog {
    fn merge(&mut self, other: ChannelLog) {
        self.0.extend(other.0);
    }
}

/// The divergence path: on the branching kernel the lockstep block
/// diverges, is dropped, and the group is re-run scalar — the result
/// must equal the one-lane run bit for bit, for the per-component
/// worker and for the trace campaign engine alike.
#[test]
fn diverged_groups_rerun_scalar_bit_identically() {
    let (template, entry) = branching_kernel();

    // The kernel really diverges: one even and one odd input in one
    // lockstep walk.
    let mut block = CpuBlock::from_template(&template, 2);
    block.restart_lanes(entry, &[1, 2]);
    stage_word(block.lane_mut(0), &[0, 0, 0, 0]);
    stage_word(block.lane_mut(1), &[1, 0, 0, 0]);
    let mut recorder = PowerRecorder::with_lanes(LeakageWeights::cortex_a7(), 2);
    assert!(
        block.run(&mut recorder).is_err(),
        "mixed-parity lanes must diverge"
    );

    let traces = 21;
    let synth = ComponentSynthesizer::new(
        LeakageWeights::cortex_a7(),
        &NodeKind::ALL,
        (0, 24),
        2,
        GaussianNoise::bare_metal(),
        0xd1e5,
    );
    let components = |lanes: usize| {
        run_sharded(
            &ShardPlan::new(traces).with_threads(2).with_batch(6),
            || ComponentArena::new(&synth, &template, lanes),
            ChannelLog::default,
            |arena, log, range| {
                arena.run(
                    &synth,
                    entry,
                    range,
                    &random_word,
                    &stage_word,
                    |input, channels| log.0.push((input.to_vec(), channels.to_vec())),
                )
            },
        )
        .expect("characterization runs")
    };
    let reference = components(1);
    assert_eq!(reference.0.len(), traces);
    for lanes in [2, 5, 8] {
        let got = components(lanes);
        assert_eq!(got.0.len(), traces, "lanes {lanes}");
        for (i, (g, r)) in got.0.iter().zip(&reference.0).enumerate() {
            assert_eq!(g.0, r.0, "lanes {lanes} trace {i}: input");
            for (c, (gc, rc)) in g.1.iter().zip(&r.1).enumerate() {
                let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(gc), bits(rc), "lanes {lanes} trace {i} channel {c}");
            }
        }
    }

    let campaign = |lanes: usize| {
        Campaign::new(
            LeakageWeights::cortex_a7(),
            CampaignConfig {
                traces,
                executions_per_trace: 2,
                sampling: SamplingConfig::per_cycle(),
                noise: GaussianNoise::bare_metal(),
                seed: 0xd1e5,
                threads: 2,
                batch: 6,
            },
        )
        .with_lanes(lanes)
        .run(&template, entry, random_word, stage_word, |_| {
            CollectSink::default()
        })
        .expect("campaign runs")
    };
    let reference = campaign(1);
    for lanes in [2, 8] {
        let got = campaign(lanes);
        assert_eq!(got.inputs, reference.inputs, "lanes {lanes}: inputs");
        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.flat), bits(&reference.flat), "lanes {lanes}");
    }
}
