//! The AES-128 targets of the portfolio: the existing `sca-aes`
//! implementations (unprotected and first-order masked) wrapped behind
//! the [`CipherTarget`] trait, so the paper's baseline cipher runs
//! through exactly the same generic drivers as the new families.

use rand::rngs::StdRng;
use rand::Rng;

use sca_aes::{
    aes128_masked_program, aes128_program, encrypt_block, expand_key, AesSim, MaskedAesSim,
    SubBytesHw, SubBytesStoreHd, MASKED_INPUT_LEN, MASKS_ADDR, MASK_BYTES, RK_ADDR, SBOX,
    SBOX_ADDR, STATE_ADDR,
};
use sca_isa::Program;
use sca_lint::{LintRegion, LintSpec, RegionKind, ReleaseSpan};
use sca_uarch::{Cpu, Lane, UarchConfig, UarchError};

use crate::{CipherTarget, ModelKind, TargetModel, WindowHint};

/// The portfolio's AES key (the FIPS-197 example key, as in the other
/// experiments).
pub const PORTFOLIO_AES_KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// The round-1 window of the value-level HW model (trigger to the start
/// of round 2, where Figure 3's strongest leaks live).
fn aes_hw_window() -> WindowHint {
    WindowHint::from_trigger("round", 1, 16)
}

/// The SubBytes store window of the consecutive-store HD model.
fn aes_hd_window() -> WindowHint {
    WindowHint::span("subbytes", 0, 4, "shiftrows", 0, 12)
}

/// The canonical plaintext of the static lint staging (the FIPS-197
/// example block): varied bytes, so consecutive stores make non-trivial
/// concrete transitions for the linter's pair rules.
const LINT_PT: [u8; 16] = [
    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
];

/// The canonical mask draw of the masked target's lint staging:
/// pairwise-distinct nonzero bytes, so no masked transition degenerates
/// to the trivial HD = 0 the linter skips.
const LINT_MASKS: [u8; MASK_BYTES] = [0x3d, 0x6b, 0xa5, 0x17, 0xc2, 0x59];

/// The shared (unprotected/masked) part of the AES lint spec: memory
/// contract staging plus the key/plaintext labelling.
fn aes_lint_spec(key: &[u8; 16]) -> LintSpec {
    LintSpec {
        mem_init: vec![
            (SBOX_ADDR, SBOX.to_vec()),
            (RK_ADDR, expand_key(key).to_vec()),
            (STATE_ADDR, LINT_PT.to_vec()),
        ],
        regions: vec![
            LintRegion {
                name: "K".into(),
                addr: RK_ADDR,
                len: 176,
                kind: RegionKind::Secret,
            },
            LintRegion {
                name: "PT".into(),
                addr: STATE_ADDR,
                len: 16,
                kind: RegionKind::Input,
            },
        ],
        ..LintSpec::default()
    }
}

fn aes_models(key: &[u8; 16], byte: usize) -> Vec<TargetModel> {
    vec![
        TargetModel::new(
            ModelKind::ValueHw,
            key[byte],
            aes_hw_window(),
            SubBytesHw { byte },
        ),
        TargetModel::new(
            ModelKind::TransitionHd,
            key[byte],
            aes_hd_window(),
            SubBytesStoreHd {
                byte,
                prev_key: key[byte - 1],
            },
        ),
    ]
}

/// The unprotected AES-128 implementation as a portfolio target.
#[derive(Clone, Debug)]
pub struct AesTarget {
    key: [u8; 16],
    target_byte: usize,
    program: Program,
}

impl AesTarget {
    /// Creates the target for a key, attacking state byte
    /// `target_byte` (must be in `1..16`: the HD model needs the
    /// preceding store).
    pub fn new(key: [u8; 16], target_byte: usize) -> AesTarget {
        assert!((1..16).contains(&target_byte));
        AesTarget {
            key,
            target_byte,
            program: aes128_program().expect("embedded AES source assembles"),
        }
    }
}

impl Default for AesTarget {
    fn default() -> AesTarget {
        AesTarget::new(PORTFOLIO_AES_KEY, 1)
    }
}

impl CipherTarget for AesTarget {
    fn name(&self) -> &str {
        "aes128"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn build(&self, uarch: &UarchConfig) -> Result<Cpu, UarchError> {
        Ok(AesSim::new(uarch.clone(), &self.key)?.cpu().clone())
    }

    fn plaintext_len(&self) -> usize {
        16
    }

    fn input_len(&self) -> usize {
        16
    }

    fn stage(&self, cpu: &mut Lane, input: &[u8]) {
        AesSim::stage_plaintext(cpu, input);
    }

    fn stage_constants(&self, cpu: &mut Lane) -> Result<(), UarchError> {
        cpu.mem_mut().write_bytes(SBOX_ADDR, &SBOX)?;
        cpu.mem_mut().write_bytes(RK_ADDR, &expand_key(&self.key))
    }

    fn reference(&self, input: &[u8]) -> Vec<u8> {
        let mut pt = [0u8; 16];
        pt.copy_from_slice(&input[..16]);
        encrypt_block(&self.key, &pt).to_vec()
    }

    fn output(&self, cpu: &Cpu) -> Result<Vec<u8>, UarchError> {
        Ok(cpu.mem().read_bytes(STATE_ADDR, 16)?.to_vec())
    }

    fn models(&self) -> Vec<TargetModel> {
        aes_models(&self.key, self.target_byte)
    }

    fn primary_window(&self) -> WindowHint {
        aes_hd_window()
    }

    fn lint_spec(&self) -> LintSpec {
        aes_lint_spec(&self.key)
    }
}

/// The first-order masked AES-128 implementation as a portfolio target.
///
/// Campaign inputs are `plaintext ‖ masks` ([`MASKED_INPUT_LEN`]
/// bytes); the models only ever read the plaintext, exactly like a real
/// attacker who sees plaintexts but not the victim's mask RNG.
#[derive(Clone, Debug)]
pub struct MaskedAesTarget {
    key: [u8; 16],
    target_byte: usize,
    program: Program,
}

impl MaskedAesTarget {
    /// Creates the masked target for a key and attacked state byte.
    pub fn new(key: [u8; 16], target_byte: usize) -> MaskedAesTarget {
        assert!((1..16).contains(&target_byte));
        MaskedAesTarget {
            key,
            target_byte,
            program: aes128_masked_program().expect("embedded masked AES source assembles"),
        }
    }
}

impl Default for MaskedAesTarget {
    fn default() -> MaskedAesTarget {
        MaskedAesTarget::new(PORTFOLIO_AES_KEY, 1)
    }
}

impl CipherTarget for MaskedAesTarget {
    fn name(&self) -> &str {
        "aes128-masked"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn build(&self, uarch: &UarchConfig) -> Result<Cpu, UarchError> {
        Ok(MaskedAesSim::new(uarch.clone(), &self.key)?.cpu().clone())
    }

    fn plaintext_len(&self) -> usize {
        16
    }

    fn input_len(&self) -> usize {
        MASKED_INPUT_LEN
    }

    fn finish_input(&self, mut plaintext: Vec<u8>, rng: &mut StdRng) -> Vec<u8> {
        let mut masks = [0u8; MASK_BYTES];
        rng.fill(&mut masks[..]);
        plaintext.extend_from_slice(&masks);
        plaintext
    }

    fn stage(&self, cpu: &mut Lane, input: &[u8]) {
        MaskedAesSim::stage_input(cpu, input);
    }

    fn stage_constants(&self, cpu: &mut Lane) -> Result<(), UarchError> {
        cpu.mem_mut().write_bytes(SBOX_ADDR, &SBOX)?;
        cpu.mem_mut().write_bytes(RK_ADDR, &expand_key(&self.key))
    }

    fn reference(&self, input: &[u8]) -> Vec<u8> {
        // Masking is output-transparent: whatever masks ride along, the
        // ciphertext equals plain AES-128.
        let mut pt = [0u8; 16];
        pt.copy_from_slice(&input[..16]);
        encrypt_block(&self.key, &pt).to_vec()
    }

    fn output(&self, cpu: &Cpu) -> Result<Vec<u8>, UarchError> {
        Ok(cpu.mem().read_bytes(STATE_ADDR, 16)?.to_vec())
    }

    fn models(&self) -> Vec<TargetModel> {
        aes_models(&self.key, self.target_byte)
    }

    fn primary_window(&self) -> WindowHint {
        aes_hd_window()
    }

    fn lint_spec(&self) -> LintSpec {
        let mut spec = aes_lint_spec(&self.key);
        spec.mem_init.push((MASKS_ADDR, LINT_MASKS.to_vec()));
        spec.regions.push(LintRegion {
            name: "M".into(),
            addr: MASKS_ADDR,
            len: MASK_BYTES as u32,
            kind: RegionKind::Mask,
        });
        // The final unmask intentionally de-blinds the ciphertext: a
        // public output by definition, released rather than laundered
        // (taint still propagates through the span).
        spec.release.push(ReleaseSpan {
            start: "unmask".into(),
            end: "premc".into(),
        });
        spec
    }
}
