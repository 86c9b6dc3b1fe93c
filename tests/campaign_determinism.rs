//! The campaign engine's determinism contract, enforced at test scale:
//!
//! * a streaming campaign equals the materialize-then-correlate flow
//!   bit-for-bit when run on one shard;
//! * the batch size never changes results at all;
//! * the thread count only re-associates floating-point sums — verdicts
//!   are identical and correlations agree to 1e-12;
//! * merged shard accumulators reproduce the batch CPA attack (property
//!   test over random campaigns).

use proptest::prelude::*;

use superscalar_sca::analysis::{
    cpa_attack, hw8, CpaAccumulator, CpaConfig, CpaResult, FnSelection, SelectionFunction,
};
use superscalar_sca::campaign::{Campaign, CampaignConfig, CpaSink};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{
    AcquisitionConfig, GaussianNoise, LeakageWeights, PowerRecorder, SampleWindow, SamplingConfig,
    SynthScratch, TraceSynthesizer,
};
use superscalar_sca::prelude::TraceSet;
use superscalar_sca::uarch::{Cpu, Lane, UarchConfig};

/// A kernel that loads one staged random word inside a trigger window —
/// the smallest program whose traces carry an attackable leak (the MDR
/// transition to the loaded value).
fn fixture() -> (Cpu, u32) {
    let program = assemble(
        "
        trig #1
        ldr r1, [r10]
        nop
        nop
        nop
        nop
        trig #0
        halt
    ",
    )
    .expect("fixture assembles");
    let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
    cpu.load(&program).expect("fixture loads");
    cpu.set_reg(Reg::R10, 0x800);
    (cpu, program.entry())
}

fn generate(rng: &mut rand::rngs::StdRng, _index: usize) -> Vec<u8> {
    use rand::Rng;
    rng.gen::<u32>().to_le_bytes().to_vec()
}

fn stage(cpu: &mut Lane, input: &[u8]) {
    let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
    cpu.mem_mut()
        .write_u32(0x800, word)
        .expect("scratch mapped");
}

fn model() -> FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync> {
    FnSelection::new("hw(b0 ^ k)", |input: &[u8], k: u8| {
        f64::from(hw8(input[0] ^ k))
    })
}

fn campaign_config(threads: usize, batch: usize) -> CampaignConfig {
    CampaignConfig {
        traces: 60,
        executions_per_trace: 2,
        sampling: SamplingConfig::per_cycle(),
        noise: GaussianNoise {
            sd: 0.5,
            baseline: 1.0,
        },
        seed: 0xdac_2018,
        threads,
        batch,
    }
}

fn run_campaign(threads: usize, batch: usize) -> CpaResult {
    let (cpu, entry) = fixture();
    let config = campaign_config(threads, batch);
    let sink = Campaign::new(LeakageWeights::cortex_a7(), config)
        .run(&cpu, entry, generate, stage, |samples| {
            CpaSink::new(model(), 256, samples)
        })
        .expect("campaign runs");
    sink.finish()
}

#[test]
fn single_shard_streaming_is_bit_identical_to_materialized_attack() {
    let streamed = run_campaign(1, 64);
    let (cpu, entry) = fixture();
    let config = campaign_config(1, 64);
    let synth = TraceSynthesizer::new(
        LeakageWeights::cortex_a7(),
        AcquisitionConfig {
            traces: config.traces,
            executions_per_trace: config.executions_per_trace,
            sampling: config.sampling,
            noise: config.noise,
            seed: config.seed,
            threads: 1,
        },
    );
    let set = synth
        .acquire(&cpu, entry, generate, stage)
        .expect("acquires");
    let batch = cpa_attack(
        &set,
        &model(),
        &CpaConfig {
            guesses: 256,
            threads: 1,
        },
    );
    assert_eq!(streamed.traces_used(), batch.traces_used());
    for g in 0..256 {
        assert_eq!(streamed.series(g), batch.series(g), "guess {g}");
    }
}

#[test]
fn batch_size_never_changes_results() {
    let reference = run_campaign(3, 64);
    for batch in [1usize, 7, 1024] {
        let other = run_campaign(3, batch);
        for g in 0..256 {
            assert_eq!(
                reference.series(g),
                other.series(g),
                "batch {batch} guess {g}"
            );
        }
    }
}

/// Non-divisor batches — including a batch larger than the campaign
/// (`items + 1`) — must be bit-identical to the canonical batch size:
/// batches only bound how much transient trace data a worker buffers,
/// and shard boundaries are deliberately independent of them. The
/// property holds at every thread count, not just serially.
#[test]
fn non_divisor_batches_are_bit_identical() {
    let items = 60; // campaign_config's trace count
    for threads in [1usize, 3, 4] {
        let reference = run_campaign(threads, 64);
        for batch in [1usize, 7, 64, items + 1] {
            let other = run_campaign(threads, batch);
            assert_eq!(reference.best_guess(), other.best_guess());
            for g in 0..256 {
                assert_eq!(
                    reference.series(g),
                    other.series(g),
                    "threads {threads} batch {batch} guess {g}"
                );
            }
        }
    }
}

/// The arena fast path (one reused CPU, recorder, scratch and trace
/// buffer per worker, driven through `synth_into`) must produce
/// byte-identical traces to a fresh simulator state per trace: a trace
/// is a pure function of `(seed, index)`, no matter how many traces the
/// worker's buffers have already been through — and no matter in which
/// order the indices are visited.
#[test]
fn arena_reuse_is_byte_identical_to_fresh_simulators() {
    let (cpu, entry) = fixture();
    let config = campaign_config(1, 64);
    let synth = TraceSynthesizer::new(
        LeakageWeights::cortex_a7(),
        AcquisitionConfig {
            traces: config.traces,
            executions_per_trace: config.executions_per_trace,
            sampling: config.sampling,
            noise: config.noise,
            seed: config.seed,
            threads: 1,
        },
    );
    let post = |_: &mut rand::rngs::StdRng, _: &mut Vec<f64>| {};

    // One set of worker buffers, reused across every trace — including
    // a revisit of index 0 after the buffers are thoroughly warm.
    let mut worker_cpu = cpu.clone();
    let mut recorder = PowerRecorder::new(synth.weights().clone());
    let mut scratch = SynthScratch::new();
    let mut trace = Vec::new();
    let indices: Vec<usize> = (0..24).chain([0, 7, 23]).collect();
    for &index in &indices {
        let input = synth
            .synth_into(
                &mut worker_cpu,
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
            .expect("reused buffers synthesize");
        // Fresh per-trace state, exactly like the pre-arena engine.
        let mut fresh_cpu = cpu.clone();
        let (fresh_trace, fresh_input) = synth
            .synthesize_trace(&mut fresh_cpu, entry, index, &generate, &stage, &post)
            .expect("fresh synthesizes");
        assert_eq!(input, fresh_input, "index {index}");
        assert_eq!(trace, fresh_trace, "index {index}");
    }
}

/// An empty campaign (zero traces) returns the identity-merged sink —
/// no worker runs, nothing panics — at any thread count.
#[test]
fn empty_campaign_returns_the_empty_sink() {
    let (cpu, entry) = fixture();
    for threads in [1usize, 4] {
        let mut config = campaign_config(threads, 64);
        config.traces = 0;
        let sink = Campaign::new(LeakageWeights::cortex_a7(), config)
            .run(&cpu, entry, generate, stage, |samples| {
                CpaSink::new(model(), 256, samples)
            })
            .expect("empty campaign runs");
        assert!(sink.is_empty(), "threads {threads}");
        assert_eq!(sink.len(), 0);
    }
}

#[test]
fn thread_count_preserves_verdicts_and_correlations() {
    let serial = run_campaign(1, 16);
    for threads in [2usize, 4, 8] {
        let sharded = run_campaign(threads, 16);
        assert_eq!(
            serial.best_guess(),
            sharded.best_guess(),
            "threads {threads}"
        );
        assert_eq!(serial.ranking(), sharded.ranking(), "threads {threads}");
        let mut worst: f64 = 0.0;
        for g in 0..256 {
            for (a, b) in serial.series(g).iter().zip(sharded.series(g)) {
                worst = worst.max((a - b).abs());
            }
        }
        assert!(
            worst < 1e-12,
            "threads {threads}: worst correlation divergence {worst}"
        );
    }
}

/// Synthetic trace sets for the pure-statistics property: power at one
/// sample is HW(pt ^ key) plus deterministic wobble.
fn synthetic_set(seed: u64, traces: usize) -> TraceSet {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let key: u8 = rng.gen();
    let mut set = TraceSet::new(5);
    for _ in 0..traces {
        let pt: u8 = rng.gen();
        let leak = f64::from(hw8(pt ^ key));
        let mut trace = vec![0.0f32; 5];
        for (i, t) in trace.iter_mut().enumerate() {
            let noise: f64 = rng.gen_range(-1.0..1.0);
            *t = (noise + if i == 2 { leak } else { 0.0 }) as f32;
        }
        set.push(trace, vec![pt]);
    }
    set
}

proptest! {
    /// Merged streaming CPA equals the existing batch CPA within 1e-12,
    /// for any campaign size and any shard split.
    #[test]
    fn merged_streaming_cpa_matches_batch_cpa(
        seed in 0u64..1_000_000,
        traces in 8usize..120,
        shards in 1usize..7,
    ) {
        let set = synthetic_set(seed, traces);
        let model = model();
        let mut accs: Vec<CpaAccumulator> = (0..shards)
            .map(|_| CpaAccumulator::new(256, set.samples_per_trace()))
            .collect();
        let mut predictions = vec![0.0f64; 256];
        for (i, (input, trace)) in set.iter().enumerate() {
            for (g, p) in predictions.iter_mut().enumerate() {
                *p = model.predict(input, g as u8);
            }
            accs[i % shards].absorb(&predictions, trace);
        }
        let mut merged = accs.remove(0);
        for acc in &accs {
            merged.merge(acc);
        }
        let streamed = merged.finish();
        let batch = cpa_attack(&set, &model, &CpaConfig { guesses: 256, threads: 2 });
        prop_assert_eq!(streamed.traces_used(), batch.traces_used());
        prop_assert_eq!(streamed.best_guess(), batch.best_guess());
        for g in 0..256 {
            for (s, b) in streamed.series(g).iter().zip(batch.series(g)) {
                prop_assert!((s - b).abs() < 1e-12, "guess {}: {} vs {}", g, s, b);
            }
        }
    }
}
