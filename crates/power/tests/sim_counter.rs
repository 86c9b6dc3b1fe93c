//! Exact accounting for the process-global simulator-run counter.
//!
//! The counter backs the zero-resimulation assertion of the stored-
//! corpus re-analysis path, so its accounting must be exact: one run
//! per window probe, one per averaged execution. It is process-global,
//! which is why this lives in its own integration-test binary with a
//! single `#[test]` — nothing else in the process may race it.

use rand::rngs::StdRng;
use sca_isa::{assemble, Reg};
use sca_power::{
    simulator_runs, AcquisitionConfig, GaussianNoise, LeakageWeights, SamplingConfig,
    TraceSynthesizer,
};
use sca_uarch::{Cpu, Lane, UarchConfig};

fn fixture() -> (Cpu, u32) {
    let program = assemble(
        "
        trig #1
        ldr r1, [r10]
        nop
        nop
        trig #0
        halt
    ",
    )
    .unwrap();
    let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
    cpu.load(&program).unwrap();
    cpu.set_reg(Reg::R10, 0x800);
    (cpu, program.entry())
}

fn stage(cpu: &mut Lane, input: &[u8]) {
    let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
    cpu.mem_mut().write_u32(0x800, word).unwrap();
}

#[test]
fn counter_is_exact_and_input_derivation_is_free() {
    let (cpu, entry) = fixture();
    let config = AcquisitionConfig {
        traces: 3,
        executions_per_trace: 4,
        sampling: SamplingConfig::per_cycle(),
        noise: GaussianNoise::none(),
        seed: 5,
        threads: 1,
    };
    let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
    let gen = |rng: &mut StdRng, _| {
        use rand::Rng;
        rng.gen::<u32>().to_le_bytes().to_vec()
    };

    assert_eq!(simulator_runs(), 0, "nothing has simulated yet");
    let set = synth.acquire(&cpu, entry, gen, stage).unwrap();
    // One window probe plus traces × executions.
    assert_eq!(simulator_runs(), 1 + 3 * 4);

    // Re-deriving every input afterwards costs zero simulator runs.
    for i in 0..set.len() {
        assert_eq!(synth.input_for(i, &gen), set.input(i), "trace {i}");
    }
    assert_eq!(simulator_runs(), 1 + 3 * 4, "input_for must not simulate");

    // The probe alone is exactly one run.
    synth.probe_samples(&cpu, entry, &gen, &stage).unwrap();
    assert_eq!(simulator_runs(), 1 + 3 * 4 + 1);
}
