//! The telemetry determinism contract: *work counters* — traces
//! planned/simulated, simulator runs, per-level cache accesses and
//! misses, store slots and checkpoint bytes — are a pure function of
//! the campaign, independent of how the work was scheduled. Running
//! the same campaign with 1 or 4 threads and with scalar or 8-wide
//! lockstep simulation must move every one of them by exactly the
//! same amount.
//!
//! Observability counters (batch counts, lockstep/scalar split, page
//! pool statistics) deliberately *do* depend on scheduling and are
//! excluded here.
//!
//! Both tests read deltas of the process-global registry, so they
//! serialize on [`COUNTER_LOCK`]: two campaigns running concurrently
//! would blend their counter movements.

use std::sync::Mutex;

use proptest::prelude::*;

use superscalar_sca::analysis::{hw8, FnSelection};
use superscalar_sca::campaign::{Campaign, CampaignConfig, CpaSink, StoreOptions};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{GaussianNoise, LeakageWeights, SamplingConfig};
use superscalar_sca::telemetry::{self, Snapshot};
use superscalar_sca::uarch::{Cpu, Lane, UarchConfig};

/// Serializes global-counter delta measurements across tests.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// The work-counter allowlist: every name here must move identically
/// whatever the thread and lane counts. `campaign/batches`,
/// `campaign/lockstep_traces`, `campaign/scalar_traces`,
/// `campaign/blocks_poisoned` and the `store/page_*` family are
/// scheduling-dependent by design and absent deliberately.
const WORK_COUNTERS: &[&str] = &[
    "campaign/traces_planned",
    "campaign/traces_simulated",
    "power/simulator_runs",
    "uarch/l1i/accesses",
    "uarch/l1i/misses",
    "uarch/l1d/accesses",
    "uarch/l1d/misses",
    "uarch/l2/accesses",
    "uarch/l2/misses",
    "store/slots_written",
    "store/checkpoint_bytes",
];

/// The campaign-determinism kernel, but on the *real* memory hierarchy
/// (caches enabled) so the `uarch/*` counters move: one staged load in
/// a trigger window. The template is warmed with one execution first —
/// the paper's steady-state methodology — so every trace runs from the
/// same cache state whether it executes on the reused scalar CPU or on
/// a freshly seeded lockstep lane. (A cold template would charge the
/// compulsory misses once per scalar arena but once per lane per
/// block, which is scheduling, not work.)
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
    .expect("fixture assembles");
    let mut cpu = Cpu::new(UarchConfig::cortex_a7());
    cpu.load(&program).expect("fixture loads");
    cpu.set_reg(Reg::R10, 0x800);
    cpu.run(&mut superscalar_sca::uarch::NullObserver)
        .expect("warm-up run");
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

fn config(seed: u64, traces: usize, threads: usize) -> CampaignConfig {
    CampaignConfig {
        traces,
        executions_per_trace: 2,
        sampling: SamplingConfig::per_cycle(),
        noise: GaussianNoise {
            sd: 0.5,
            baseline: 1.0,
        },
        seed,
        threads,
        batch: 8,
    }
}

fn sink(samples: usize) -> CpaSink<FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync>> {
    CpaSink::new(
        FnSelection::new("hw(b0 ^ k)", |input: &[u8], k: u8| {
            f64::from(hw8(input[0] ^ k))
        }),
        256,
        samples,
    )
}

/// The allowlisted counter movements caused by `run`.
fn deltas(run: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before = telemetry::global().snapshot();
    run();
    let after: Snapshot = telemetry::global().snapshot();
    WORK_COUNTERS
        .iter()
        .map(|name| (*name, after.counter_delta(&before, name)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Property: for any seed and campaign size, the work-counter
    /// deltas of `--threads {1,4} x --lanes {1,8}` are element-wise
    /// identical, and the campaign actually did the work it planned.
    #[test]
    fn work_counters_are_thread_and_lane_invariant(
        seed in 0u64..1_000_000,
        traces in 24usize..64,
    ) {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (cpu, entry) = fixture();
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            for lanes in [1usize, 8] {
                let moved = deltas(|| {
                    Campaign::new(LeakageWeights::cortex_a7(), config(seed, traces, threads))
                        .with_lanes(lanes)
                        .run(&cpu, entry, generate, stage, sink)
                        .expect("campaign runs");
                });
                runs.push((threads, lanes, moved));
            }
        }
        let (_, _, reference) = &runs[0];
        // The campaign did what it planned: all traces simulated, the
        // probe plus two executions per trace through the simulator,
        // and the load kernel touched the data cache.
        let get = |name: &str| {
            reference.iter().find(|(n, _)| *n == name).expect("allowlisted").1
        };
        prop_assert_eq!(get("campaign/traces_planned"), traces as u64);
        prop_assert_eq!(get("campaign/traces_simulated"), traces as u64);
        prop_assert_eq!(get("power/simulator_runs"), 1 + 2 * traces as u64);
        prop_assert!(get("uarch/l1d/accesses") > 0, "load kernel must hit L1D");
        prop_assert!(get("uarch/l1i/accesses") > 0, "fetch must hit L1I");
        for (threads, lanes, moved) in &runs[1..] {
            prop_assert_eq!(
                reference, moved,
                "threads {} lanes {} moved different work counters", threads, lanes
            );
        }
    }
}

/// The same invariance through the persistent-store path: a stored
/// campaign writes the same slots and checkpoint bytes no matter how
/// it was scheduled. (Fsync and page-pool counts are scheduling- and
/// cache-pressure-dependent, so they stay off the allowlist.)
#[test]
fn stored_campaigns_write_identical_work_counters() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (cpu, entry) = fixture();
    let base = std::env::temp_dir().join(format!("sca_telemetry_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut reference: Option<Vec<(&'static str, u64)>> = None;
    for (threads, lanes) in [(1usize, 1usize), (4, 8)] {
        let dir = base.join(format!("t{threads}l{lanes}"));
        let opts = StoreOptions {
            checkpoint_every: 16,
            ..StoreOptions::new(&dir, "telemetry-fixture", "hw-cpa")
        };
        let moved = deltas(|| {
            Campaign::new(LeakageWeights::cortex_a7(), config(7, 48, threads))
                .with_lanes(lanes)
                .run_stored(&cpu, entry, generate, stage, sink, &opts)
                .expect("stored campaign runs");
        });
        let slots = moved
            .iter()
            .find(|(n, _)| *n == "store/slots_written")
            .expect("allowlisted")
            .1;
        assert_eq!(
            slots, 48,
            "threads {threads} lanes {lanes}: one slot per trace"
        );
        match &reference {
            None => reference = Some(moved),
            Some(reference) => assert_eq!(
                reference, &moved,
                "threads {threads} lanes {lanes} moved different work counters"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
