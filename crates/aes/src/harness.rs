//! Running the assembly AES-128 on the simulated CPU.

use sca_isa::Program;
use sca_uarch::{Cpu, Lane, NullObserver, PipelineObserver, UarchConfig, UarchError};

use crate::{expand_key, ROUND_KEY_BYTES, SBOX};

/// Address of the 16-byte state block in simulator memory.
pub const STATE_ADDR: u32 = 0x1000;
/// Address of the expanded round keys.
pub const RK_ADDR: u32 = 0x1100;
/// Address of the in-memory S-box table.
pub const SBOX_ADDR: u32 = 0x1200;

/// The embedded assembly source of the AES-128 implementation.
pub const AES128_ASM: &str = include_str!("../asm/aes128.s");

/// Assembles the AES-128 program (memoized: the embedded source is
/// assembled once per process, then cloned — campaign workers and
/// repeated target builds stage the image without re-running the
/// assembler).
///
/// # Errors
///
/// Propagates assembler errors (which would indicate a packaging bug, as
/// the source is embedded).
pub fn aes128_program() -> Result<Program, sca_isa::IsaError> {
    static CACHE: std::sync::OnceLock<Program> = std::sync::OnceLock::new();
    sca_isa::assemble_cached(AES128_ASM, &CACHE)
}

/// An AES-128 instance running on the simulated superscalar CPU.
///
/// ```
/// use sca_aes::{encrypt_block, AesSim};
/// use sca_uarch::UarchConfig;
///
/// let key = *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c";
/// let mut sim = AesSim::new(UarchConfig::cortex_a7(), &key)?;
/// let pt = [0u8; 16];
/// let ct = sim.encrypt(&pt)?;
/// assert_eq!(ct, encrypt_block(&key, &pt));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct AesSim {
    cpu: Cpu,
    entry: u32,
}

impl AesSim {
    /// Builds a CPU, loads the AES program, stages the S-box and the
    /// expanded `key`, and runs one warm-up encryption so the caches are
    /// hot (the paper measures "the executions following the first one").
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from loading or the warm-up run.
    pub fn new(config: UarchConfig, key: &[u8; 16]) -> Result<AesSim, UarchError> {
        let program = aes128_program().expect("embedded AES source assembles");
        let mut cpu = Cpu::new(config);
        cpu.load(&program)?;
        cpu.mem_mut().write_bytes(SBOX_ADDR, &SBOX)?;
        let rk = expand_key(key);
        cpu.mem_mut().write_bytes(RK_ADDR, &rk)?;
        let mut sim = AesSim {
            cpu,
            entry: program.entry(),
        };
        // Warm-up run.
        sim.encrypt(&[0u8; 16])?;
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

    /// Raw round keys currently staged.
    ///
    /// # Errors
    ///
    /// Propagates memory faults (cannot happen with the fixed layout).
    pub fn round_keys(&self) -> Result<[u8; ROUND_KEY_BYTES], UarchError> {
        let bytes = self.cpu.mem().read_bytes(RK_ADDR, ROUND_KEY_BYTES as u32)?;
        let mut rk = [0u8; ROUND_KEY_BYTES];
        rk.copy_from_slice(bytes);
        Ok(rk)
    }

    /// Encrypts one block on the simulator (no observer).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn encrypt(&mut self, plaintext: &[u8; 16]) -> Result<[u8; 16], UarchError> {
        self.encrypt_observed(plaintext, &mut NullObserver)
    }

    /// Encrypts one block while streaming pipeline activity to an
    /// observer (e.g. a power recorder).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn encrypt_observed(
        &mut self,
        plaintext: &[u8; 16],
        observer: &mut dyn PipelineObserver,
    ) -> Result<[u8; 16], UarchError> {
        self.cpu.restart(self.entry);
        self.cpu.mem_mut().write_bytes(STATE_ADDR, plaintext)?;
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

    /// Stages a plaintext into a (cloned) CPU — the `stage` closure used
    /// with `sca_power::TraceSynthesizer`.
    ///
    /// # Panics
    ///
    /// Panics if `plaintext` is shorter than 16 bytes (acquisition inputs
    /// are always full blocks).
    pub fn stage_plaintext(cpu: &mut Lane, plaintext: &[u8]) {
        cpu.mem_mut()
            .write_bytes(STATE_ADDR, &plaintext[..16])
            .expect("state buffer is mapped");
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
    fn matches_golden_model_fips_vector() {
        let mut sim = AesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key()).unwrap();
        let pt = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
        let ct = sim.encrypt(&pt).unwrap();
        assert_eq!(
            ct,
            *b"\x39\x25\x84\x1d\x02\xdc\x09\xfb\xdc\x11\x85\x97\x19\x6a\x0b\x32"
        );
    }

    #[test]
    fn matches_golden_model_on_random_blocks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        let mut sim = AesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key()).unwrap();
        for _ in 0..12 {
            let mut pt = [0u8; 16];
            rng.fill(&mut pt);
            assert_eq!(
                sim.encrypt(&pt).unwrap(),
                encrypt_block(&key(), &pt),
                "pt {pt:02x?}"
            );
        }
    }

    #[test]
    fn rekeying_works() {
        let mut sim = AesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key()).unwrap();
        let other = [0x5au8; 16];
        sim.set_key(&other).unwrap();
        let pt = [7u8; 16];
        assert_eq!(sim.encrypt(&pt).unwrap(), encrypt_block(&other, &pt));
    }

    #[test]
    fn encryption_runs_inside_trigger_window() {
        let mut sim = AesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key()).unwrap();
        let mut obs = RecordingObserver::new();
        sim.encrypt_observed(&[0u8; 16], &mut obs).unwrap();
        assert_eq!(obs.triggers.len(), 2);
        let window = obs.triggers[1].0 - obs.triggers[0].0;
        // One full AES-128: a few thousand cycles on this core.
        assert!(window > 1000, "window {window} cycles");
        assert!(window < 20_000, "window {window} cycles");
    }

    #[test]
    fn timing_is_input_independent() {
        // Table lookups hit warm caches: the implementation should be
        // constant-time in this model (no timing channel confound).
        let mut sim = AesSim::new(UarchConfig::cortex_a7(), &key()).unwrap();
        let mut cycles = Vec::new();
        for pt in [[0u8; 16], [0xff; 16], [0x5a; 16]] {
            let mut obs = RecordingObserver::new();
            sim.encrypt_observed(&pt, &mut obs).unwrap();
            cycles.push(obs.triggers[1].0 - obs.triggers[0].0);
        }
        assert_eq!(cycles[0], cycles[1]);
        assert_eq!(cycles[1], cycles[2]);
    }

    #[test]
    fn warm_caches_after_construction() {
        let sim = AesSim::new(UarchConfig::cortex_a7(), &key()).unwrap();
        let mut sim2 = sim.clone();
        let mut obs = RecordingObserver::new();
        sim2.encrypt_observed(&[1u8; 16], &mut obs).unwrap();
        assert_eq!(sim2.cpu().stats().dcache_misses, 0, "D-cache warm");
        assert_eq!(sim2.cpu().stats().icache_misses, 0, "I-cache warm");
    }
}
