//! Target-generic leakage audits: the [`audit_program`] machinery wired
//! to the `sca-target` cipher portfolio.
//!
//! A [`sca_target::CipherTarget`] already carries everything the audit
//! needs — the program image, the memory-contract staging, leakage
//! models with the true key, and a symbol-level analysis window — so
//! auditing a cipher reduces to adapting the trait: the target's
//! models (evaluated at the true key) become the audit's secret
//! expressions, and its primary window is resolved into absolute
//! cycles by one probe run. No cipher is named anywhere.

use sca_isa::Program;
use sca_target::{resolve_window, CipherTarget, TargetError};
use sca_uarch::{Cpu, Node, UarchConfig, UarchError};

use crate::{audit_program, AuditConfig, AuditReport, SecretModel};

/// Audits a cipher target's models against every microarchitectural
/// node inside the target's primary window.
///
/// The audit constructs its own bare CPU, so each execution stages the
/// full memory contract ([`CipherTarget::stage_constants`]) before the
/// per-execution input — unlike campaigns, which reuse a warmed
/// template.
///
/// # Errors
///
/// Propagates simulator faults; a misconfigured target window surfaces
/// as [`TargetError::Window`] naming the target instead of a panic.
pub fn audit_cipher_target(
    target: &dyn CipherTarget,
    uarch: &UarchConfig,
    config: &AuditConfig,
) -> Result<AuditReport, TargetError> {
    audit_cipher_target_with(
        target,
        uarch,
        config,
        |uarch, program, len, stage, models, config| {
            audit_program(uarch, program, len, stage, models, config)
        },
    )
}

/// [`audit_cipher_target`] through an explicit audit engine with
/// [`audit_program`]'s signature, for the conformance tests that pin
/// the lockstep audit against the scalar reference.
///
/// # Errors
///
/// As [`audit_cipher_target`].
#[doc(hidden)]
pub fn audit_cipher_target_with<A>(
    target: &dyn CipherTarget,
    uarch: &UarchConfig,
    config: &AuditConfig,
    audit: A,
) -> Result<AuditReport, TargetError>
where
    A: FnOnce(
        &UarchConfig,
        &Program,
        usize,
        &dyn Fn(&mut Cpu, &[u8]),
        &[SecretModel],
        &AuditConfig,
    ) -> Result<AuditReport, UarchError>,
{
    let cpu = target.build(uarch)?;
    let window = resolve_window(target, &cpu, &target.primary_window())?;
    // The audit draws raw random input bytes itself, bypassing the
    // target's `generate`/`finish_input` path — canonicalize before
    // both prediction and staging so derived suffixes (e.g. SPECK's
    // appended ciphertext) are recomputed from the plaintext prefix
    // instead of being read as garbage.
    let canon = target.input_canonicalizer();
    let models: Vec<SecretModel> = target
        .models()
        .into_iter()
        .map(|model| {
            let canon = canon.clone();
            SecretModel::new(model.name.clone(), move |input: &[u8]| {
                model.predict_true(&canon(input))
            })
        })
        .collect();
    Ok(audit(
        uarch,
        target.program(),
        target.input_len(),
        &|cpu: &mut Cpu, input: &[u8]| {
            target
                .stage_constants(cpu)
                .expect("target memory contract is mapped");
            target.stage(cpu, &canon(input));
        },
        &models,
        &AuditConfig {
            window: Some(window.absolute),
            ..config.clone()
        },
    )?)
}

/// Counts a report's findings on the operand path (operand buses,
/// IS/EX buffers) and the memory data path (MDR, align buffer) — the
/// two node families the paper's Section 4.2 argument tracks.
pub fn leak_paths(report: &AuditReport) -> (usize, usize) {
    let operand = report
        .findings
        .iter()
        .filter(|f| matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. }))
        .count();
    let memory = report
        .findings
        .iter()
        .filter(|f| matches!(f.node, Node::Mdr | Node::AlignBuf))
        .count();
    (operand, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_target::AesTarget;

    /// The unprotected AES target must audit dirty (its S-box outputs
    /// cross the pipeline in the clear) — through the fully generic
    /// trait path.
    #[test]
    fn unprotected_aes_audits_dirty_through_the_trait() {
        let target = AesTarget::default();
        let report = audit_cipher_target(
            &target,
            &UarchConfig::cortex_a7().with_ideal_memory(),
            &AuditConfig {
                executions: 150,
                ..AuditConfig::default()
            },
        )
        .expect("audit runs");
        assert!(!report.is_clean(), "unprotected AES must leak");
        let (operand, memory) = leak_paths(&report);
        assert!(
            operand + memory > 0,
            "expected operand/memory-path findings, got {:?}",
            report.findings
        );
    }
}
