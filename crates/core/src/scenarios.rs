//! The masking-audit scenarios: one shared code path for the
//! `masking_audit` example, the integration tests that enforce its
//! findings, and the docs.
//!
//! A first-order Boolean masking splits a secret `s` into shares
//! `s0 = s ^ m` and `s1 = m`. ISA-level reasoning says the two shares
//! are never combined; the pipeline disagrees: if two instructions
//! reading the shares issue back-to-back with the shares in the same
//! operand position, the shares meet on the shared operand bus and
//! their Hamming distance — which equals `HW(s)` — leaks. The scenarios
//! below audit a vulnerable schedule and the paper's Section 4.2
//! countermeasures, both hand-written and as produced automatically by
//! the `sca-sched` rewriters.

use sca_isa::{assemble, Program, Reg};
use sca_sched::{harden_program, pin_lanes, HardenConfig, SharePolicy};
use sca_uarch::{Lane, Node, UarchConfig, UarchError};

use crate::{audit_program, AuditConfig, AuditReport, SecretModel};

/// One masked-code schedule under audit, with its expected verdict.
#[derive(Debug)]
pub struct MaskingScenario {
    /// Short name for reports.
    pub name: &'static str,
    /// What the schedule demonstrates.
    pub description: &'static str,
    /// The program to audit.
    pub program: Program,
    /// Whether the audit must find share recombination on the operand
    /// path (operand buses / IS-EX buffers).
    pub expect_operand_path_leak: bool,
}

/// The secret expression every scenario audits: the Hamming distance
/// between the two shares, i.e. the Hamming weight of the secret.
pub fn share_models() -> [SecretModel; 1] {
    use sca_analysis::input_word;
    [SecretModel::new(
        "HD(share0, share1) = HW(secret)",
        |input: &[u8]| f64::from((input_word(input, 0) ^ input_word(input, 1)).count_ones()),
    )]
}

/// Stages the two shares and the public constants the schedules use.
pub fn stage_shares(cpu: &mut Lane, input: &[u8]) {
    use sca_analysis::input_word;
    cpu.set_reg(Reg::R0, input_word(input, 0)); // share 0 = s ^ m
    cpu.set_reg(Reg::R1, input_word(input, 1)); // share 1 = m
    cpu.set_reg(Reg::R4, 0x0f0f_0f0f); // public round constant
    cpu.set_reg(Reg::R5, 0x3c3c_3c3c); // another public constant
    cpu.set_reg(Reg::R7, 0x5555_aaaa); // unrelated public value
    cpu.set_reg(Reg::R6, 0); // sca-sched scrub value
    cpu.set_reg(Reg::R10, 0x800); // sca-sched scrub cell
}

/// Operand-path findings (operand buses / IS-EX buffers) in a report.
pub fn operand_path_leaks(report: &AuditReport) -> usize {
    report
        .findings
        .iter()
        .filter(|f| matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. }))
        .count()
}

/// Builds the masking-audit scenarios: the vulnerable schedule, the two
/// hand-written Section 4.2 countermeasures, and the same two produced
/// automatically by the `sca-sched` rewriters from the vulnerable
/// program.
///
/// # Panics
///
/// Panics only on embedded-source assembler or rewriter errors (a
/// packaging bug).
pub fn masking_scenarios() -> Vec<MaskingScenario> {
    // Vulnerable: both share-processing instructions place their share
    // in the same source-operand position. Two reg-reg ALU ops never
    // dual-issue on the A7 (Table 1), so they execute back-to-back on
    // the same pipe and the shares meet on operand bus 0: the bus
    // transition is HD(s0, s1) = HW(secret).
    let vulnerable = assemble(
        "
        nop
        eor r2, r0, r4     ; share 0 in position 0
        eor r3, r1, r5     ; share 1 in position 0 -> same bus!
        nop
        halt
    ",
    )
    .expect("embedded scenario assembles");

    // Hardening 1: unrelated public-value work separates the two shares
    // in time, scrubbing the shared buses between them — the
    // instruction-scheduling countermeasure of Section 4.2.
    let spaced = assemble(
        "
        nop
        eor r2, r0, r4     ; share 0
        mov r6, r7         ; public spacer rewrites bus 0
        mov r6, r7
        eor r3, r1, r5     ; share 1 — bus no longer holds share 0
        nop
        halt
    ",
    )
    .expect("embedded scenario assembles");

    // Hardening 2: swap the (commutative) operands of the second eor so
    // the shares sit in different positions — the flip side of the
    // paper's operand-swap warning: a swap can create *or* remove
    // leakage, and nothing at the ISA level tells you which.
    let swapped = assemble(
        "
        nop
        eor r2, r0, r4     ; share 0 in position 0
        eor r3, r5, r1     ; share 1 moved to position 1
        nop
        halt
    ",
    )
    .expect("embedded scenario assembles");

    // The same two fixes, derived automatically from the vulnerable
    // schedule by the sca-sched rewriters.
    let policy = SharePolicy::new().with_secret_regs([Reg::R0, Reg::R1]);
    let scheduled = harden_program(
        &vulnerable,
        &policy,
        &HardenConfig {
            min_distance: 2,
            ..HardenConfig::default()
        },
    )
    .expect("vulnerable schedule hardens")
    .program;
    let (pinned, swaps) = pin_lanes(&vulnerable, &policy).expect("vulnerable schedule pins");
    assert!(swaps > 0, "the lane pinner must act on the vulnerable pair");

    vec![
        MaskingScenario {
            name: "vulnerable",
            description: "shares in the same operand position, back to back",
            program: vulnerable,
            expect_operand_path_leak: true,
        },
        MaskingScenario {
            name: "spaced (hand)",
            description: "public spacer instructions between the shares",
            program: spaced,
            expect_operand_path_leak: false,
        },
        MaskingScenario {
            name: "swapped (hand)",
            description: "commutative operand swap moves share 1 to bus 1",
            program: swapped,
            expect_operand_path_leak: false,
        },
        MaskingScenario {
            name: "sca-sched harden",
            description: "share-distance scheduler inserts bus scrubs",
            program: scheduled,
            expect_operand_path_leak: false,
        },
        MaskingScenario {
            name: "sca-sched pin-lanes",
            description: "lane pinner swaps the second eor automatically",
            program: pinned,
            expect_operand_path_leak: false,
        },
    ]
}

/// Audits one scenario with the shared models and staging.
///
/// # Errors
///
/// Propagates simulator faults.
pub fn audit_scenario(
    scenario: &MaskingScenario,
    uarch: &UarchConfig,
    config: &AuditConfig,
) -> Result<AuditReport, UarchError> {
    audit_program(
        uarch,
        &scenario.program,
        8,
        stage_shares,
        &share_models(),
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_cover_both_verdicts() {
        let scenarios = masking_scenarios();
        assert_eq!(scenarios.len(), 5);
        assert!(scenarios[0].expect_operand_path_leak);
        assert!(scenarios[1..].iter().all(|s| !s.expect_operand_path_leak));
    }
}
