//! Smoke coverage for the experiment surface: runs the `table1` and
//! `table2` binaries' underlying logic in-process, at reduced scale, so
//! tier-1 (`cargo test -q`) guards the paper-artifact pipelines without
//! paying for full campaigns. The full-scale runs live in the `sca-bench`
//! binaries (see `EXPERIMENTS.md`).

use superscalar_sca::analysis::input_word;
use superscalar_sca::core::{
    audit_program, run_benchmark, table2_benchmarks, AuditConfig, CharacterizationConfig,
    DualIssueMap, SecretModel,
};
use superscalar_sca::isa::{assemble, InsnClass, Reg};
use superscalar_sca::uarch::{DualIssuePolicy, Lane, UarchConfig};

/// Table 1 logic: the measured dual-issue matrix is complete, CPI values
/// are sane, and the matrix reproduces the modeled pairing policy.
#[test]
fn table1_logic_produces_the_papers_matrix() {
    let config = UarchConfig::cortex_a7();
    let map = DualIssueMap::measure(&config).expect("measures");
    let policy = DualIssuePolicy::cortex_a7();
    for (i, older) in InsnClass::TABLE1.into_iter().enumerate() {
        for (j, younger) in InsnClass::TABLE1.into_iter().enumerate() {
            let cpi = map.cpi[i][j];
            assert!(cpi.is_finite(), "CPI({older}, {younger}) = {cpi}");
            assert!(
                (0.4..=8.0).contains(&cpi),
                "CPI({older}, {younger}) = {cpi} outside plausible range"
            );
            assert_eq!(
                map.dual_issued(older, younger),
                policy.allows(older, younger),
                "measured pairing disagrees with policy at ({older}, {younger})"
            );
        }
    }
    // The rendered table is what the binary prints; it must mention every
    // class label.
    let rendered = map.render();
    for class in InsnClass::TABLE1 {
        assert!(
            rendered.contains(&class.to_string()),
            "render missing {class}"
        );
    }
}

/// Table 2 logic: each characterization row produces finite, bounded
/// correlations with peaks inside the sampled window, for every modeled
/// component cell.
#[test]
fn table2_logic_is_finite_and_shaped() {
    let benchmarks = table2_benchmarks();
    assert_eq!(benchmarks.len(), 7, "the paper's Table 2 has seven rows");

    // Reduced-scale campaign: enough to exercise the full pipeline
    // (synthesis, per-component models, significance tests) in debug
    // builds, not enough to resolve the weakest leaks — so this test
    // checks shape, not verdicts.
    let config = CharacterizationConfig {
        traces: 250,
        executions_per_trace: 2,
        ..CharacterizationConfig::default()
    };
    let uarch = UarchConfig::cortex_a7();
    for benchmark in &benchmarks[..2] {
        let row = run_benchmark(benchmark, &uarch, &config).expect("runs");
        assert_eq!(row.row, benchmark.row);
        assert_eq!(row.traces, config.traces);
        assert!(!row.cells.is_empty(), "row {} has no cells", row.row);
        for cell in &row.cells {
            assert!(
                cell.peak_corr.is_finite() && cell.peak_corr.abs() <= 1.0,
                "row {} {} peak corr {} out of range",
                row.row,
                cell.expr,
                cell.peak_corr
            );
        }
    }
}

/// The audit API behind `table2`/`ablation`: flags a straight-line
/// recombination of two secret shares and stays clean on a version that
/// keeps them apart, with finite correlations throughout.
#[test]
fn audit_api_flags_share_recombination() {
    // The paper's row-1 kernel: the nop between the two movs keeps them
    // from dual-issuing, so both shares cross the same pipe-0 buffers.
    let leaky = assemble(
        "
        nop
        mov r2, r0
        nop
        mov r3, r1
        nop
        halt
    ",
    )
    .expect("assembles");
    let models = [SecretModel::new("HD(share0, share1)", |input: &[u8]| {
        f64::from((input_word(input, 0) ^ input_word(input, 1)).count_ones())
    })];
    let stage = |cpu: &mut Lane, input: &[u8]| {
        cpu.set_reg(Reg::R0, input_word(input, 0));
        cpu.set_reg(Reg::R1, input_word(input, 1));
    };
    let config = AuditConfig {
        executions: 300,
        ..AuditConfig::default()
    };
    let uarch = UarchConfig::cortex_a7().with_ideal_memory();
    let report = audit_program(&uarch, &leaky, 8, stage, &models, &config).expect("audits");
    assert_eq!(report.executions, config.executions);
    assert!(
        !report.is_clean(),
        "back-to-back shares must recombine somewhere"
    );
    for finding in &report.findings {
        assert!(finding.corr.is_finite(), "finding corr {}", finding.corr);
        assert!(
            finding.corr.abs() <= 1.0,
            "corr {} out of range",
            finding.corr
        );
    }
}
