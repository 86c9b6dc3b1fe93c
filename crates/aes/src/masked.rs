//! Running the first-order masked AES-128 on the simulated CPU.
//!
//! The assembly (`asm/aes128_masked.s`) implements table-recomputation
//! Boolean masking: six fresh mask bytes per encryption (`min`, `mout`
//! for the masked S-box table, `m0..m3` for the per-row MixColumns
//! masks), a re-computed masked table, and a share refresh between
//! rounds. Masking is *output-transparent*: whatever masks are staged,
//! the ciphertext equals plain AES-128 — the correctness tests and a
//! proptest pin that share-randomization invariance.
//!
//! The harness treats a campaign input as `plaintext ‖ masks`
//! ([`MASKED_INPUT_LEN`] bytes): the attack models only ever read the
//! first 16 bytes, exactly like a real attacker who sees plaintexts but
//! not the victim's mask RNG.

use sca_isa::Program;
use sca_uarch::{Cpu, Lane, NullObserver, PipelineObserver, UarchConfig, UarchError};

use crate::{expand_key, RK_ADDR, SBOX, SBOX_ADDR, STATE_ADDR};

/// Address of the six staged mask bytes (`min, mout, m0..m3`).
pub const MASKS_ADDR: u32 = 0x1300;
/// Address of the public scrub cell the `sca-sched` hardening passes
/// store to (the program keeps `r10` pointed here).
pub const SCRUB_ADDR: u32 = 0x3000;
/// Address of the re-computed masked S-box table.
pub const MTAB_ADDR: u32 = 0x1400;
/// Mask bytes drawn per encryption.
pub const MASK_BYTES: usize = 6;
/// Campaign input length: 16 plaintext bytes followed by the masks.
pub const MASKED_INPUT_LEN: usize = 16 + MASK_BYTES;

/// The embedded assembly source of the masked implementation.
pub const AES128_MASKED_ASM: &str = include_str!("../asm/aes128_masked.s");

/// Assembles the masked AES-128 program (memoized: assembled once per
/// process, then cloned).
///
/// # Errors
///
/// Propagates assembler errors (which would indicate a packaging bug, as
/// the source is embedded).
pub fn aes128_masked_program() -> Result<Program, sca_isa::IsaError> {
    static CACHE: std::sync::OnceLock<Program> = std::sync::OnceLock::new();
    sca_isa::assemble_cached(AES128_MASKED_ASM, &CACHE)
}

/// A masked AES-128 instance running on the simulated superscalar CPU.
///
/// ```
/// use sca_aes::{encrypt_block, MaskedAesSim};
/// use sca_uarch::UarchConfig;
///
/// let key = *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c";
/// let mut sim = MaskedAesSim::new(UarchConfig::cortex_a7(), &key)?;
/// let pt = [0u8; 16];
/// let ct = sim.encrypt_masked(&pt, &[0x5a, 0xc3, 0x11, 0x22, 0x33, 0x44])?;
/// assert_eq!(ct, encrypt_block(&key, &pt)); // masks never change the output
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct MaskedAesSim {
    cpu: Cpu,
    entry: u32,
}

impl MaskedAesSim {
    /// Builds a CPU running the embedded masked implementation.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from loading or the warm-up run.
    pub fn new(config: UarchConfig, key: &[u8; 16]) -> Result<MaskedAesSim, UarchError> {
        let program = aes128_masked_program().expect("embedded masked AES source assembles");
        MaskedAesSim::from_program(config, key, &program)
    }

    /// Builds a CPU running an explicit program image — the hook the
    /// countermeasure experiments use to run a `sca-sched`-hardened
    /// rewrite of the masked implementation under the same harness.
    ///
    /// The program must honour the memory contract of
    /// `asm/aes128_masked.s` (STATE/RK/SBOX/MASKS addresses).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from loading or the warm-up run.
    pub fn from_program(
        config: UarchConfig,
        key: &[u8; 16],
        program: &Program,
    ) -> Result<MaskedAesSim, UarchError> {
        let mut cpu = Cpu::new(config);
        cpu.load(program)?;
        cpu.mem_mut().write_bytes(SBOX_ADDR, &SBOX)?;
        let rk = expand_key(key);
        cpu.mem_mut().write_bytes(RK_ADDR, &rk)?;
        let mut sim = MaskedAesSim {
            cpu,
            entry: program.entry(),
        };
        // Warm-up run (non-trivial masks so the masked-table and delta
        // paths are all exercised and every touched line is cached).
        sim.encrypt_masked(&[0u8; 16], &[0xa5, 0x3c, 0x81, 0x42, 0x24, 0x18])?;
        Ok(sim)
    }

    /// Replaces the key by staging new round keys.
    ///
    /// # Errors
    ///
    /// Propagates memory faults (cannot happen with the fixed layout).
    pub fn set_key(&mut self, key: &[u8; 16]) -> Result<(), UarchError> {
        let rk = expand_key(key);
        self.cpu.mem_mut().write_bytes(RK_ADDR, &rk)
    }

    /// Encrypts one block with explicit masks (no observer).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn encrypt_masked(
        &mut self,
        plaintext: &[u8; 16],
        masks: &[u8; MASK_BYTES],
    ) -> Result<[u8; 16], UarchError> {
        let mut input = [0u8; MASKED_INPUT_LEN];
        input[..16].copy_from_slice(plaintext);
        input[16..].copy_from_slice(masks);
        self.encrypt_observed(&input, &mut NullObserver)
    }

    /// Encrypts one staged `plaintext ‖ masks` input while streaming
    /// pipeline activity to an observer (e.g. a power recorder).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn encrypt_observed(
        &mut self,
        input: &[u8],
        observer: &mut dyn PipelineObserver,
    ) -> Result<[u8; 16], UarchError> {
        self.cpu.restart(self.entry);
        Self::stage_input(&mut self.cpu, input);
        self.cpu.run(observer)?;
        let mut ct = [0u8; 16];
        ct.copy_from_slice(self.cpu.mem().read_bytes(STATE_ADDR, 16)?);
        Ok(ct)
    }

    /// The underlying CPU (e.g. as a template for trace acquisition).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Program entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Stages a `plaintext ‖ masks` input into a (cloned) CPU — the
    /// `stage` closure used with the `sca-campaign` engine.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than [`MASKED_INPUT_LEN`]
    /// (acquisition inputs always carry the full block plus masks).
    pub fn stage_input(cpu: &mut Lane, input: &[u8]) {
        cpu.mem_mut()
            .write_bytes(STATE_ADDR, &input[..16])
            .expect("state buffer is mapped");
        cpu.mem_mut()
            .write_bytes(MASKS_ADDR, &input[16..MASKED_INPUT_LEN])
            .expect("mask buffer is mapped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypt_block;
    use sca_uarch::RecordingObserver;

    fn key() -> [u8; 16] {
        *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c"
    }

    #[test]
    fn matches_golden_model_fips_vector_for_mask_corner_cases() {
        let mut sim =
            MaskedAesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key()).unwrap();
        let pt = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
        let expected = *b"\x39\x25\x84\x1d\x02\xdc\x09\xfb\xdc\x11\x85\x97\x19\x6a\x0b\x32";
        for masks in [
            [0u8; 6],
            [0xff; 6],
            [0x01, 0x02, 0x04, 0x08, 0x10, 0x20],
            [0xde, 0xad, 0xbe, 0xef, 0x55, 0xaa],
        ] {
            assert_eq!(
                sim.encrypt_masked(&pt, &masks).unwrap(),
                expected,
                "masks {masks:02x?}"
            );
        }
    }

    #[test]
    fn mask_rekeying_never_changes_ciphertext() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6a5c);
        let mut sim =
            MaskedAesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key()).unwrap();
        for _ in 0..8 {
            let mut pt = [0u8; 16];
            rng.fill(&mut pt);
            let reference = encrypt_block(&key(), &pt);
            let mut masks = [0u8; MASK_BYTES];
            rng.fill(&mut masks);
            assert_eq!(sim.encrypt_masked(&pt, &masks).unwrap(), reference);
            rng.fill(&mut masks);
            assert_eq!(
                sim.encrypt_masked(&pt, &masks).unwrap(),
                reference,
                "re-drawing the masks flipped a ciphertext bit (pt {pt:02x?})"
            );
        }
    }

    #[test]
    fn rekeying_works() {
        let mut sim =
            MaskedAesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key()).unwrap();
        let other = [0x5au8; 16];
        sim.set_key(&other).unwrap();
        let pt = [7u8; 16];
        assert_eq!(
            sim.encrypt_masked(&pt, &[0x31; 6]).unwrap(),
            encrypt_block(&other, &pt)
        );
    }

    #[test]
    fn timing_is_mask_and_input_independent() {
        // The masked implementation must stay constant-time: loops have
        // fixed trip counts and all tables are warm after construction.
        let mut sim = MaskedAesSim::new(UarchConfig::cortex_a7(), &key()).unwrap();
        let mut cycles = Vec::new();
        for (pt, masks) in [
            ([0u8; 16], [0u8; 6]),
            ([0xff; 16], [0x77; 6]),
            ([0x5a; 16], [0xd1, 0x0e, 0x99, 0x42, 0x07, 0xee]),
        ] {
            let mut input = [0u8; MASKED_INPUT_LEN];
            input[..16].copy_from_slice(&pt);
            input[16..].copy_from_slice(&masks);
            let mut obs = RecordingObserver::new();
            sim.encrypt_observed(&input, &mut obs).unwrap();
            assert_eq!(obs.triggers.len(), 2);
            cycles.push(obs.triggers[1].0 - obs.triggers[0].0);
        }
        assert_eq!(cycles[0], cycles[1]);
        assert_eq!(cycles[1], cycles[2]);
    }

    #[test]
    fn warm_caches_after_construction() {
        let sim = MaskedAesSim::new(UarchConfig::cortex_a7(), &key()).unwrap();
        let mut sim2 = sim.clone();
        let mut obs = RecordingObserver::new();
        let mut input = [0u8; MASKED_INPUT_LEN];
        input[..16].copy_from_slice(&[1u8; 16]);
        input[16..].copy_from_slice(&[0x9c, 0x3f, 0x08, 0x71, 0xaa, 0x02]);
        sim2.encrypt_observed(&input, &mut obs).unwrap();
        assert_eq!(sim2.cpu().stats().dcache_misses, 0, "D-cache warm");
        assert_eq!(sim2.cpu().stats().icache_misses, 0, "I-cache warm");
    }
}
