//! Integration tests for the Section 4.2 findings: the four causes of
//! cross-instruction value combination, exercised through the audit tool
//! and through microarchitecture ablations.

use superscalar_sca::analysis::input_word;
use superscalar_sca::core::{
    audit_program, run_benchmark, table2_benchmarks, AuditConfig, CharacterizationConfig,
    SecretModel,
};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::GaussianNoise;
use superscalar_sca::uarch::{Lane, Node, NodeKind, UarchConfig};

fn share_models() -> [SecretModel; 1] {
    [SecretModel::new("HD(share0, share1)", |input: &[u8]| {
        f64::from((input_word(input, 0) ^ input_word(input, 1)).count_ones())
    })]
}

fn stage(cpu: &mut Lane, input: &[u8]) {
    cpu.set_reg(Reg::R0, input_word(input, 0));
    cpu.set_reg(Reg::R1, input_word(input, 1));
    cpu.set_reg(Reg::R4, 0x0f0f_0f0f);
    cpu.set_reg(Reg::R5, 0x3c3c_3c3c);
}

fn bus_findings(report: &superscalar_sca::core::AuditReport) -> usize {
    report
        .findings
        .iter()
        .filter(|f| matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. }))
        .count()
}

fn audit(src: &str, executions: usize) -> superscalar_sca::core::AuditReport {
    let program = assemble(src).expect("assembles");
    audit_program(
        &UarchConfig::cortex_a7().with_ideal_memory(),
        &program,
        8,
        stage,
        &share_models(),
        &AuditConfig {
            executions,
            ..AuditConfig::default()
        },
    )
    .expect("audits")
}

#[test]
fn cause_i_and_ii_scheduling_order_and_operand_position() {
    // Same position, adjacent issue: leaks.
    let adjacent = audit("eor r2, r0, r4\neor r3, r1, r5\nhalt\n", 300);
    assert!(bus_findings(&adjacent) > 0);
    // Different positions: clean (cause ii).
    let swapped = audit("eor r2, r0, r4\neor r3, r5, r1\nhalt\n", 300);
    assert_eq!(bus_findings(&swapped), 0);
    // Scheduling distance: clean (cause i).
    let spaced = audit(
        "eor r2, r0, r4\nmov r6, r7\nmov r6, r7\neor r3, r1, r5\nhalt\n",
        300,
    );
    assert_eq!(bus_findings(&spaced), 0);
}

#[test]
fn cause_iii_dual_issue_changes_leakage() {
    // The dual-issue ablation: the same kernel leaks its result HD only
    // on a scalar pipeline.
    let config = CharacterizationConfig {
        traces: 400,
        executions_per_trace: 1,
        noise: GaussianNoise {
            sd: 1.5,
            baseline: 5.0,
        },
        threads: 4,
        ..CharacterizationConfig::default()
    };
    let row3 = &table2_benchmarks()[2];
    let dual =
        run_benchmark(row3, &UarchConfig::cortex_a7().with_ideal_memory(), &config).expect("runs");
    let scalar =
        run_benchmark(row3, &UarchConfig::scalar().with_ideal_memory(), &config).expect("runs");
    let cell = |row: &superscalar_sca::core::RowResult| {
        row.cells
            .iter()
            .find(|c| c.component == NodeKind::ExWbBuffer && c.expr == "rA ^ rD")
            .expect("cell present")
            .significant
    };
    assert!(!cell(&dual), "dual-issued results must not combine");
    assert!(cell(&scalar), "scalar execution must combine them");
}

#[test]
fn cause_iv_data_remanence_needs_align_buffer() {
    let config = CharacterizationConfig {
        traces: 400,
        executions_per_trace: 1,
        noise: GaussianNoise {
            sd: 1.5,
            baseline: 5.0,
        },
        threads: 4,
        ..CharacterizationConfig::default()
    };
    let row7 = &table2_benchmarks()[6];
    let with_buffer =
        run_benchmark(row7, &UarchConfig::cortex_a7().with_ideal_memory(), &config).expect("runs");
    let mut no_buffer_config = UarchConfig::cortex_a7().with_ideal_memory();
    no_buffer_config.align_buffer = false;
    let without_buffer = run_benchmark(row7, &no_buffer_config, &config).expect("runs");
    let remanence = |row: &superscalar_sca::core::RowResult| {
        row.cells
            .iter()
            .find(|c| c.component == NodeKind::AlignBuffer && c.expr == "rC ^ rG")
            .expect("cell present")
            .significant
    };
    assert!(remanence(&with_buffer));
    assert!(!remanence(&without_buffer));
}

#[test]
fn nop_is_not_security_neutral() {
    let config = CharacterizationConfig {
        traces: 400,
        executions_per_trace: 1,
        noise: GaussianNoise {
            sd: 1.5,
            baseline: 5.0,
        },
        threads: 4,
        ..CharacterizationConfig::default()
    };
    let row1 = &table2_benchmarks()[0];
    let normal =
        run_benchmark(row1, &UarchConfig::cortex_a7().with_ideal_memory(), &config).expect("runs");
    let mut neutral_nops = UarchConfig::cortex_a7().with_ideal_memory();
    neutral_nops.nop_zeroes_wb = false;
    neutral_nops.nop_drives_operand_buses = false;
    let neutered = run_benchmark(row1, &neutral_nops, &config).expect("runs");
    let hw_leaks = |row: &superscalar_sca::core::RowResult| {
        row.cells
            .iter()
            .filter(|c| c.expr == "rB" || c.expr == "rB (†)")
            .filter(|c| c.significant)
            .count()
    };
    assert!(hw_leaks(&normal) >= 2, "A7-style nops create HW leakage");
    assert_eq!(hw_leaks(&neutered), 0, "security-neutral nops would not");
}
