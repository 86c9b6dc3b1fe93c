//! Lockstep node audit vs the one-execution-at-a-time reference.
//!
//! `audit_program` runs its executions in lockstep groups through a
//! `CpuBlock` and gathers activity in a dense per-key recorder;
//! `audit_program_reference` keeps the original body (one scalar run
//! per execution under a `RecordingObserver`, activity in a `BTreeMap`).
//! Reports must agree exactly — node, cycle, model, correlation bits,
//! source line and order — for every portfolio target, at several lane
//! counts, and on a kernel whose data-dependent branch makes the block
//! diverge, so the scalar fallback runs.

use superscalar_sca::core::{
    audit_cipher_target_with, audit_program_at_lanes, audit_program_reference, AuditConfig,
    AuditReport, SecretModel,
};
use superscalar_sca::isa::{assemble, Program, Reg};
use superscalar_sca::target::portfolio;
use superscalar_sca::uarch::{BlockObserver, Cpu, CpuBlock, NullObserver, UarchConfig, MAX_LANES};

/// A block observer that ignores everything.
struct Quiet;

impl BlockObserver for Quiet {}

/// A report as comparable rows, the correlation as raw bits.
fn rows(report: &AuditReport) -> Vec<(String, u64, String, u64, Option<usize>)> {
    report
        .findings
        .iter()
        .map(|f| {
            (
                f.node.to_string(),
                f.cycle,
                f.model.clone(),
                f.corr.to_bits(),
                f.source_line,
            )
        })
        .collect()
}

#[test]
fn portfolio_audits_match_the_reference_at_every_lane_count() {
    let uarchs = [
        UarchConfig::cortex_a7(),
        UarchConfig::cortex_a7().with_ideal_memory(),
    ];
    for target in &portfolio() {
        let target = target.as_ref();
        for uarch in &uarchs {
            for executions in [13, 48] {
                let config = AuditConfig {
                    executions,
                    ..AuditConfig::default()
                };
                let want = audit_cipher_target_with(target, uarch, &config, |u, p, n, s, m, c| {
                    audit_program_reference(u, p, n, s, m, c)
                })
                .expect("reference audit runs");
                assert_eq!(want.executions, executions);
                for lanes in [1, 3, MAX_LANES] {
                    let got =
                        audit_cipher_target_with(target, uarch, &config, |u, p, n, s, m, c| {
                            audit_program_at_lanes(u, p, n, s, m, c, lanes)
                        })
                        .expect("lockstep audit runs");
                    assert_eq!(got.executions, executions);
                    assert_eq!(
                        rows(&got),
                        rows(&want),
                        "[{}] executions {executions} lanes {lanes}",
                        target.name()
                    );
                }
            }
        }
    }
}

/// Branches on the low bit of the secret word: lanes of mixed parity
/// stop agreeing on control flow.
fn branching_kernel() -> Program {
    assemble(
        "
        nop
        ands r2, r0, #1
        beq skip
        add r3, r0, r0
        eor r4, r3, r1
skip:   mov r5, r0
        eor r6, r0, r1
        nop
        nop
        halt
    ",
    )
    .expect("kernel assembles")
}

fn stage_words(cpu: &mut Cpu, input: &[u8]) {
    let word = |i: usize| u32::from_le_bytes([input[i], input[i + 1], input[i + 2], input[i + 3]]);
    cpu.set_reg(Reg::R0, word(0));
    cpu.set_reg(Reg::R1, word(4));
}

fn models() -> Vec<SecretModel> {
    let word = |i: &[u8], at: usize| u32::from_le_bytes([i[at], i[at + 1], i[at + 2], i[at + 3]]);
    vec![
        SecretModel::new("HW(secret)", move |i: &[u8]| {
            f64::from(word(i, 0).count_ones())
        }),
        SecretModel::new("HD(secret, mask)", move |i: &[u8]| {
            f64::from((word(i, 0) ^ word(i, 4)).count_ones())
        }),
    ]
}

#[test]
fn diverging_groups_fall_back_to_the_scalar_cpu_bit_identically() {
    let uarch = UarchConfig::cortex_a7().with_ideal_memory();
    let program = branching_kernel();

    // The kernel really diverges on mixed-parity lanes.
    let mut cpu = Cpu::new(uarch.clone());
    cpu.load(&program).expect("kernel loads");
    cpu.run(&mut NullObserver).expect("warm-up runs");
    let mut block = CpuBlock::from_template(&cpu, 2);
    block.restart_seeded(program.entry(), &[1, 2]);
    stage_words(block.lane_mut(0), &[0; 8]);
    stage_words(block.lane_mut(1), &[1, 0, 0, 0, 0, 0, 0, 0]);
    assert!(
        block.run(&mut Quiet).is_err(),
        "mixed-parity lanes must diverge"
    );

    for executions in [13, 150] {
        for window in [None, Some((2, 9))] {
            let config = AuditConfig {
                executions,
                window,
                ..AuditConfig::default()
            };
            let want =
                audit_program_reference(&uarch, &program, 8, stage_words, &models(), &config)
                    .expect("reference audit runs");
            if executions == 150 && window.is_none() {
                assert!(!want.is_clean(), "the kernel leaks its secret");
            }
            for lanes in [1, 2, 5, MAX_LANES] {
                let got = audit_program_at_lanes(
                    &uarch,
                    &program,
                    8,
                    stage_words,
                    &models(),
                    &config,
                    lanes,
                )
                .expect("lockstep audit runs");
                assert_eq!(
                    rows(&got),
                    rows(&want),
                    "executions {executions} window {window:?} lanes {lanes}"
                );
            }
        }
    }
}
