//! Re-analysis of a stored corpus must not touch the simulator.
//!
//! `sca_power::simulator_runs` counts every pipeline execution in the
//! process. This file holds exactly ONE test: the counter is process
//! global, so a second test running concurrently in the same binary
//! would race it. One test per integration binary = one process = exact
//! counts. (The counter's unit-level behavior is pinned the same way in
//! `sca-power`'s own `sim_counter` test.)
//!
//! The single test walks the whole lifecycle in order: collect a stored
//! corpus (simulates), re-analyze it with the original model (zero
//! simulation), re-analyze it with a model the corpus was never
//! collected for (still zero — the inputs are stored, any input-keyed
//! model works), and fast-path-resume the complete store (zero again:
//! not even the window probe runs).

use std::time::Instant;

use superscalar_sca::analysis::{hw8, FnSelection};
use superscalar_sca::campaign::{reanalyze_store, Campaign, CampaignConfig, CpaSink, StoreOptions};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{simulator_runs, GaussianNoise, LeakageWeights, SamplingConfig};
use superscalar_sca::store::TraceStore;
use superscalar_sca::uarch::{Cpu, Lane, UarchConfig};

const TRACES: usize = 48;
const EXECUTIONS: usize = 2;

fn fixture() -> (Cpu, u32) {
    let program = assemble(
        "
        trig #1
        ldr r1, [r10]
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

fn byte_model(byte: usize) -> FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync> {
    FnSelection::new("hw(b ^ k)", move |input: &[u8], k: u8| {
        f64::from(hw8(input[byte] ^ k))
    })
}

#[test]
fn reanalysis_streams_with_zero_simulator_invocations() {
    assert_eq!(simulator_runs(), 0, "fresh process");
    let dir = std::env::temp_dir().join(format!("sca_reanalyze_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (cpu, entry) = fixture();
    let campaign = Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces: TRACES,
            executions_per_trace: EXECUTIONS,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 0.5,
                baseline: 1.0,
            },
            seed: 0xdac_2018,
            threads: 2,
            batch: 8,
        },
    );
    let opts = StoreOptions {
        checkpoint_every: 16,
        ..StoreOptions::new(&dir, "reanalyze-fixture", "hw-cpa")
    };

    // Phase 1 — collection simulates: one probe run plus
    // `executions_per_trace` runs per trace.
    let collect_started = Instant::now();
    let (sink, report) = campaign
        .run_stored(
            &cpu,
            entry,
            generate,
            stage,
            |samples| CpaSink::new(byte_model(0), 256, samples),
            &opts,
        )
        .expect("collection runs");
    let collect_elapsed = collect_started.elapsed();
    let stored = sink.finish();
    assert_eq!(report.simulated, TRACES as u64);
    let after_collection = simulator_runs();
    assert_eq!(
        after_collection,
        1 + (TRACES * EXECUTIONS) as u64,
        "collection cost: probe + per-execution runs"
    );

    // Phase 2 — re-analysis with the original model: same verdict,
    // zero additional simulator work, and measurably faster than the
    // collection that produced the corpus (streaming pages vs
    // simulating a pipeline; the gap is an order of magnitude, so the
    // comparison is safe even on noisy CI hosts).
    let store = TraceStore::open_any(&dir).expect("store opens");
    let reanalyze_started = Instant::now();
    let reanalyzed = reanalyze_store(&store, 8, CpaSink::new(byte_model(0), 256, report.samples))
        .expect("re-analysis streams")
        .finish();
    let reanalyze_elapsed = reanalyze_started.elapsed();
    assert_eq!(simulator_runs(), after_collection, "re-analysis simulated");
    assert_eq!(reanalyzed.best_guess(), stored.best_guess());
    assert_eq!(reanalyzed.ranking(), stored.ranking());
    assert!(
        reanalyze_elapsed < collect_elapsed,
        "re-analysis ({reanalyze_elapsed:?}) should beat resimulation ({collect_elapsed:?})"
    );

    // Phase 3 — model swap: attack input byte 2, which the corpus was
    // never collected for. Stored inputs make any input-keyed model
    // fair game, still without simulating.
    let swapped = reanalyze_store(&store, 8, CpaSink::new(byte_model(2), 256, report.samples))
        .expect("swapped-model re-analysis streams")
        .finish();
    assert_eq!(simulator_runs(), after_collection, "model swap simulated");
    assert_eq!(swapped.traces_used(), TRACES as u64);

    // Phase 4 — fast-path resume of the complete store: the sink comes
    // back from the final checkpoint; not even the window probe runs.
    let resume_opts = StoreOptions {
        checkpoint_every: 16,
        resume: true,
        ..StoreOptions::new(&dir, "reanalyze-fixture", "hw-cpa")
    };
    let (restored, fast) = campaign
        .run_stored(
            &cpu,
            entry,
            generate,
            stage,
            |samples| CpaSink::new(byte_model(0), 256, samples),
            &resume_opts,
        )
        .expect("fast-path resume");
    assert_eq!(fast.simulated, 0);
    assert_eq!(
        simulator_runs(),
        after_collection,
        "fast-path resume must not even probe"
    );
    assert_eq!(restored.finish().best_guess(), stored.best_guess());

    let _ = std::fs::remove_dir_all(&dir);
}
