//! SPECK64/128 — the ARX member of the cipher portfolio.
//!
//! SPECK's round function is *add–rotate–xor*: it exercises exactly the
//! pipeline paths AES never touches — the barrel shifter (both rotates
//! of every round go through it) and the ALU adder's carry chain. The
//! attack surface is correspondingly different: there is no S-box to
//! make a key guess nonlinear, so the portfolio attacks the *last*
//! round from the ciphertext side, where the modular subtraction's
//! borrow chain supplies the nonlinearity (see [`SpeckStoreHd`]).
//!
//! Three pieces, mirroring `sca-aes`:
//!
//! * a host-side golden model ([`speck_encrypt`], [`speck_round_keys`])
//!   verified against the designers' published test vector;
//! * an assembly implementation for the simulated CPU ([`SpeckSim`],
//!   [`SPECK64128_ASM`]) with a byte-granular state commit per round —
//!   the consecutive-store sequence the HD model targets;
//! * the two attack models ([`SpeckLastRoundHw`], [`SpeckStoreHd`]).

use sca_isa::Program;
use sca_lint::{LintRegion, LintSpec, RegionKind};
use sca_uarch::{Cpu, Lane, NullObserver, PipelineObserver, UarchConfig, UarchError};

use sca_analysis::SelectionFunction;

/// Rounds of SPECK64/128.
pub const SPECK_ROUNDS: usize = 27;

/// Address of the 8-byte state block (x word, then y word, LE).
pub const SPECK_STATE_ADDR: u32 = 0x1000;
/// Address of the 27 staged round-key words.
pub const SPECK_RK_ADDR: u32 = 0x1100;

/// The embedded assembly source of the SPECK64/128 implementation.
pub const SPECK64128_ASM: &str = include_str!("../asm/speck64128.s");

/// One SPECK64 round: `x = (x ⋙ 8) + y ^ k`, `y = (y ⋘ 3) ^ x`.
#[inline]
pub fn speck_round(x: &mut u32, y: &mut u32, k: u32) {
    *x = x.rotate_right(8).wrapping_add(*y) ^ k;
    *y = y.rotate_left(3) ^ *x;
}

/// Expands a 128-bit key (words `k0, l0, l1, l2`, little-endian bytes)
/// into the 27 round keys. The schedule reuses the round function over
/// the `l` words with the round index as "key".
pub fn speck_round_keys(key: &[u8; 16]) -> [u32; SPECK_ROUNDS] {
    let word =
        |i: usize| u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    let mut k = word(0);
    let mut l = [word(1), word(2), word(3)];
    let mut rk = [0u32; SPECK_ROUNDS];
    for (i, slot) in rk.iter_mut().enumerate() {
        *slot = k;
        let mut li = l[i % 3];
        let mut ki = k;
        speck_round(&mut li, &mut ki, i as u32);
        l[i % 3] = li;
        k = ki;
    }
    rk
}

/// Encrypts one `(x, y)` word pair with pre-expanded round keys.
pub fn speck_encrypt_words(rk: &[u32; SPECK_ROUNDS], mut x: u32, mut y: u32) -> (u32, u32) {
    for &k in rk {
        speck_round(&mut x, &mut y, k);
    }
    (x, y)
}

/// Encrypts one 8-byte block (x word at `[0..4]`, y word at `[4..8]`,
/// little-endian — the memory layout of the assembly implementation).
pub fn speck_encrypt(key: &[u8; 16], block: &[u8; 8]) -> [u8; 8] {
    let rk = speck_round_keys(key);
    let x = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
    let y = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
    let (x, y) = speck_encrypt_words(&rk, x, y);
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&x.to_le_bytes());
    out[4..].copy_from_slice(&y.to_le_bytes());
    out
}

/// The next-to-last-round state word `x₂₆` recovered from a ciphertext
/// under a last-round-key guess — the attacked intermediate.
///
/// Inverting the final round: `y₂₆ = (y₂₇ ^ x₂₇) ⋙ 3` is public, and
/// `x₂₆ = ((x₂₇ ^ k₂₆) − y₂₆) ⋘ 8`. The 32-bit subtraction's borrow
/// chain makes every byte of `x₂₆` a *nonlinear* function of the key
/// bytes below it — the ARX stand-in for AES's S-box.
#[inline]
pub fn speck_invert_last_round(ct_x: u32, ct_y: u32, last_key: u32) -> u32 {
    let y26 = (ct_y ^ ct_x).rotate_right(3);
    (ct_x ^ last_key).wrapping_sub(y26).rotate_left(8)
}

/// `HW(w₀)` where `w = (x₂₇ ^ k₂₆) − y₂₆` — the value-level model.
///
/// `w₀` is byte 1 of the stored `x₂₆` (the commit loop stores bytes in
/// little-endian order and `x₂₆ = w ⋘ 8`), so its Hamming weight rides
/// the ALU/shifter results, the MDR and the align buffer like any
/// stored byte. The guess is byte 0 of the last round key; no borrow
/// enters byte 0, so the model needs no other key material.
#[derive(Clone, Copy, Debug)]
pub struct SpeckLastRoundHw;

/// Byte `i` of `u − v (mod 2³²)` plus the borrow out of byte `i`.
#[inline]
fn sub_byte(u: u32, v: u32, byte: usize, borrow_in: u32) -> (u8, u32) {
    let ub = (u >> (8 * byte)) & 0xff;
    let vb = (v >> (8 * byte)) & 0xff;
    let d = ub.wrapping_sub(vb).wrapping_sub(borrow_in);
    ((d & 0xff) as u8, (d >> 31) & 1)
}

/// Ciphertext words from a campaign input (`pt[0..8] ‖ ct[8..16]`).
#[inline]
fn ct_words(input: &[u8]) -> (u32, u32) {
    let x = u32::from_le_bytes([input[8], input[9], input[10], input[11]]);
    let y = u32::from_le_bytes([input[12], input[13], input[14], input[15]]);
    (x, y)
}

impl SelectionFunction for SpeckLastRoundHw {
    fn predict(&self, input: &[u8], guess: u8) -> f64 {
        let (ct_x, ct_y) = ct_words(input);
        let v = (ct_y ^ ct_x).rotate_right(3);
        let u = ct_x ^ u32::from(guess);
        let (w0, _) = sub_byte(u, v, 0, 0);
        f64::from(w0.count_ones())
    }

    fn name(&self) -> String {
        "HW(x26 commit byte 1)".to_owned()
    }
}

/// `HD(w₀, w₁)` — the microarchitecture-aware consecutive-store model.
///
/// The round-25 commit stores the bytes of `x₂₆` back to back, so the
/// LSU store-data path (MDR, align buffer) holds the transition between
/// adjacent bytes. Bytes 1 and 2 of `x₂₆` are bytes 0 and 1 of
/// `w = (x₂₇ ^ k₂₆) − y₂₆`; predicting byte 1 needs the borrow out of
/// byte 0, i.e. the previously recovered key byte — the same sequential
/// chain as the AES Figure 4 model.
#[derive(Clone, Copy, Debug)]
pub struct SpeckStoreHd {
    /// Already-recovered byte 0 of the last round key.
    pub prev_key: u8,
}

impl SelectionFunction for SpeckStoreHd {
    fn predict(&self, input: &[u8], guess: u8) -> f64 {
        let (ct_x, ct_y) = ct_words(input);
        let v = (ct_y ^ ct_x).rotate_right(3);
        let u0 = ct_x ^ u32::from(self.prev_key);
        let (w0, borrow) = sub_byte(u0, v, 0, 0);
        let u1 = ct_x ^ (u32::from(guess) << 8);
        let (w1, _) = sub_byte(u1, v, 1, borrow);
        f64::from((w0 ^ w1).count_ones())
    }

    fn name(&self) -> String {
        "HD(x26 commit bytes 1 -> 2)".to_owned()
    }
}

/// Assembles the SPECK64/128 program (memoized: assembled once per
/// process, then cloned).
///
/// # Errors
///
/// Propagates assembler errors (which would indicate a packaging bug, as
/// the source is embedded).
pub fn speck64128_program() -> Result<Program, sca_isa::IsaError> {
    static CACHE: std::sync::OnceLock<Program> = std::sync::OnceLock::new();
    sca_isa::assemble_cached(SPECK64128_ASM, &CACHE)
}

/// A SPECK64/128 instance running on the simulated superscalar CPU.
///
/// ```
/// use sca_target::{speck_encrypt, SpeckSim};
/// use sca_uarch::UarchConfig;
///
/// let key = *b"\x00\x01\x02\x03\x08\x09\x0a\x0b\x10\x11\x12\x13\x18\x19\x1a\x1b";
/// let mut sim = SpeckSim::new(UarchConfig::cortex_a7(), &key)?;
/// let pt = [0u8; 8];
/// assert_eq!(sim.encrypt(&pt)?, speck_encrypt(&key, &pt));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SpeckSim {
    cpu: Cpu,
    entry: u32,
}

impl SpeckSim {
    /// Builds a CPU, loads the SPECK program, stages the round keys and
    /// runs one warm-up encryption so the caches are hot.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from loading or the warm-up run.
    pub fn new(config: UarchConfig, key: &[u8; 16]) -> Result<SpeckSim, UarchError> {
        let program = speck64128_program().expect("embedded SPECK source assembles");
        let mut cpu = Cpu::new(config);
        cpu.load(&program)?;
        Self::stage_round_keys(&mut cpu, key)?;
        let mut sim = SpeckSim {
            cpu,
            entry: program.entry(),
        };
        sim.encrypt(&[0u8; 8])?;
        Ok(sim)
    }

    /// Writes the expanded round keys into simulator memory.
    ///
    /// # Errors
    ///
    /// Propagates memory faults (cannot happen with the fixed layout).
    pub fn stage_round_keys(cpu: &mut Lane, key: &[u8; 16]) -> Result<(), UarchError> {
        let mut bytes = [0u8; SPECK_ROUNDS * 4];
        for (i, rk) in speck_round_keys(key).iter().enumerate() {
            bytes[4 * i..4 * i + 4].copy_from_slice(&rk.to_le_bytes());
        }
        cpu.mem_mut().write_bytes(SPECK_RK_ADDR, &bytes)
    }

    /// Encrypts one block on the simulator (no observer).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn encrypt(&mut self, plaintext: &[u8; 8]) -> Result<[u8; 8], UarchError> {
        self.encrypt_observed(plaintext, &mut NullObserver)
    }

    /// Encrypts one block while streaming pipeline activity to an
    /// observer.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn encrypt_observed(
        &mut self,
        plaintext: &[u8; 8],
        observer: &mut dyn PipelineObserver,
    ) -> Result<[u8; 8], UarchError> {
        self.cpu.restart(self.entry);
        self.cpu
            .mem_mut()
            .write_bytes(SPECK_STATE_ADDR, plaintext)?;
        self.cpu.run(observer)?;
        let mut ct = [0u8; 8];
        ct.copy_from_slice(self.cpu.mem().read_bytes(SPECK_STATE_ADDR, 8)?);
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

    /// Stages a plaintext into a (cloned) CPU — the campaign staging
    /// hook. Only the first 8 input bytes are the plaintext; anything
    /// beyond (the attacker-visible ciphertext the models read) never
    /// enters the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than 8 bytes.
    pub fn stage_plaintext(cpu: &mut Lane, input: &[u8]) {
        cpu.mem_mut()
            .write_bytes(SPECK_STATE_ADDR, &input[..8])
            .expect("state buffer is mapped");
    }
}

/// SPECK64/128 as a portfolio target.
///
/// Campaign inputs are `plaintext ‖ ciphertext` (8 + 8 bytes): the
/// ciphertext is computed by the golden model at generation time and
/// is what the last-round models read — public data for the
/// known-ciphertext attacker the portfolio assumes, never staged into
/// the simulator.
#[derive(Clone, Debug)]
pub struct SpeckTarget {
    key: [u8; 16],
    last_key: u32,
    program: Program,
}

impl SpeckTarget {
    /// Creates the target for a 128-bit key.
    pub fn new(key: [u8; 16]) -> SpeckTarget {
        SpeckTarget {
            key,
            last_key: speck_round_keys(&key)[SPECK_ROUNDS - 1],
            program: speck64128_program().expect("embedded SPECK source assembles"),
        }
    }
}

impl Default for SpeckTarget {
    /// The designers' test-vector key.
    fn default() -> SpeckTarget {
        SpeckTarget::new(*b"\x00\x01\x02\x03\x08\x09\x0a\x0b\x10\x11\x12\x13\x18\x19\x1a\x1b")
    }
}

/// The round-25 byte-granular commit of `x₂₆` — where both last-round
/// models leak (`commit` is visited once per round; the next-to-last
/// round's visit is index 25).
fn speck_window() -> crate::WindowHint {
    crate::WindowHint::span("commit", SPECK_ROUNDS - 2, 4, "commit", SPECK_ROUNDS - 1, 0)
}

impl crate::CipherTarget for SpeckTarget {
    fn name(&self) -> &str {
        "speck64128"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn build(&self, uarch: &UarchConfig) -> Result<Cpu, UarchError> {
        Ok(SpeckSim::new(uarch.clone(), &self.key)?.cpu().clone())
    }

    fn plaintext_len(&self) -> usize {
        8
    }

    fn input_len(&self) -> usize {
        16
    }

    fn finish_input(&self, mut plaintext: Vec<u8>, _rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        let mut pt = [0u8; 8];
        pt.copy_from_slice(&plaintext[..8]);
        plaintext.extend_from_slice(&speck_encrypt(&self.key, &pt));
        plaintext
    }

    fn input_canonicalizer(&self) -> crate::InputCanonicalizer {
        // The suffix is the *derived* ciphertext, not free randomness:
        // recompute it from the plaintext prefix.
        let key = self.key;
        std::sync::Arc::new(move |raw: &[u8]| {
            let mut pt = [0u8; 8];
            pt.copy_from_slice(&raw[..8]);
            let mut input = pt.to_vec();
            input.extend_from_slice(&speck_encrypt(&key, &pt));
            input
        })
    }

    fn stage(&self, cpu: &mut Lane, input: &[u8]) {
        SpeckSim::stage_plaintext(cpu, input);
    }

    fn stage_constants(&self, cpu: &mut Lane) -> Result<(), UarchError> {
        SpeckSim::stage_round_keys(cpu, &self.key)
    }

    fn reference(&self, input: &[u8]) -> Vec<u8> {
        let mut pt = [0u8; 8];
        pt.copy_from_slice(&input[..8]);
        speck_encrypt(&self.key, &pt).to_vec()
    }

    fn output(&self, cpu: &Cpu) -> Result<Vec<u8>, UarchError> {
        Ok(cpu.mem().read_bytes(SPECK_STATE_ADDR, 8)?.to_vec())
    }

    fn models(&self) -> Vec<crate::TargetModel> {
        vec![
            crate::TargetModel::new(
                crate::ModelKind::ValueHw,
                (self.last_key & 0xff) as u8,
                speck_window(),
                SpeckLastRoundHw,
            ),
            crate::TargetModel::new(
                crate::ModelKind::TransitionHd,
                ((self.last_key >> 8) & 0xff) as u8,
                speck_window(),
                SpeckStoreHd {
                    prev_key: (self.last_key & 0xff) as u8,
                },
            ),
        ]
    }

    fn primary_window(&self) -> crate::WindowHint {
        speck_window()
    }

    fn lint_spec(&self) -> LintSpec {
        let mut rk_bytes = Vec::with_capacity(SPECK_ROUNDS * 4);
        for rk in speck_round_keys(&self.key) {
            rk_bytes.extend_from_slice(&rk.to_le_bytes());
        }
        // The designers' test-vector plaintext: varied bytes, so the
        // concrete pair rules see non-trivial transitions.
        let pt = *b"\x74\x65\x72\x3b\x2d\x43\x75\x74";
        LintSpec {
            mem_init: vec![(SPECK_RK_ADDR, rk_bytes), (SPECK_STATE_ADDR, pt.to_vec())],
            regions: vec![
                LintRegion {
                    name: "K".into(),
                    addr: SPECK_RK_ADDR,
                    len: (SPECK_ROUNDS * 4) as u32,
                    kind: RegionKind::Secret,
                },
                LintRegion {
                    name: "PT".into(),
                    addr: SPECK_STATE_ADDR,
                    len: 8,
                    kind: RegionKind::Input,
                },
            ],
            ..LintSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The designers' Speck64/128 test vector (Beaulieu et al., "The
    /// SIMON and SPECK Families of Lightweight Block Ciphers"):
    /// key (k0, l0, l1, l2) = 03020100 0b0a0908 13121110 1b1a1918,
    /// pt (x, y) = 3b726574 7475432d, ct (x, y) = 8c6fa548 454e028b.
    const TV_KEY: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x08, 0x09, 0x0a, 0x0b, 0x10, 0x11, 0x12, 0x13, 0x18, 0x19, 0x1a,
        0x1b,
    ];

    #[test]
    fn golden_matches_published_vector() {
        let rk = speck_round_keys(&TV_KEY);
        assert_eq!(rk[0], 0x03020100);
        let (x, y) = speck_encrypt_words(&rk, 0x3b726574, 0x7475432d);
        assert_eq!((x, y), (0x8c6fa548, 0x454e028b));
    }

    #[test]
    fn byte_interface_matches_word_interface() {
        let mut block = [0u8; 8];
        block[..4].copy_from_slice(&0x3b726574u32.to_le_bytes());
        block[4..].copy_from_slice(&0x7475432du32.to_le_bytes());
        let ct = speck_encrypt(&TV_KEY, &block);
        assert_eq!(&ct[..4], &0x8c6fa548u32.to_le_bytes());
        assert_eq!(&ct[4..], &0x454e028bu32.to_le_bytes());
    }

    #[test]
    fn last_round_inversion_recovers_x26() {
        let rk = speck_round_keys(&TV_KEY);
        let (mut x, mut y) = (0x3b726574, 0x7475432d);
        for &k in &rk[..SPECK_ROUNDS - 1] {
            speck_round(&mut x, &mut y, k);
        }
        let x26 = x;
        speck_round(&mut x, &mut y, rk[SPECK_ROUNDS - 1]);
        assert_eq!(speck_invert_last_round(x, y, rk[SPECK_ROUNDS - 1]), x26);
    }

    #[test]
    fn canonicalizer_rederives_the_ciphertext_suffix() {
        use crate::CipherTarget;
        let target = SpeckTarget::default();
        let raw = [0x11u8; 16]; // suffix bytes are garbage
        let canon = target.input_canonicalizer()(&raw);
        assert_eq!(&canon[..8], &raw[..8]);
        assert_eq!(&canon[8..], &speck_encrypt(&TV_KEY, &[0x11u8; 8]));
    }

    #[test]
    fn sim_matches_golden_on_random_blocks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2026);
        let mut sim = SpeckSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &TV_KEY).unwrap();
        for _ in 0..8 {
            let mut pt = [0u8; 8];
            rng.fill(&mut pt);
            assert_eq!(
                sim.encrypt(&pt).unwrap(),
                speck_encrypt(&TV_KEY, &pt),
                "pt {pt:02x?}"
            );
        }
    }

    #[test]
    fn sim_timing_is_input_independent() {
        use sca_uarch::RecordingObserver;
        let mut sim = SpeckSim::new(UarchConfig::cortex_a7(), &TV_KEY).unwrap();
        let mut cycles = Vec::new();
        for pt in [[0u8; 8], [0xff; 8], [0x5a; 8]] {
            let mut obs = RecordingObserver::new();
            sim.encrypt_observed(&pt, &mut obs).unwrap();
            cycles.push(obs.triggers[1].0 - obs.triggers[0].0);
        }
        assert_eq!(cycles[0], cycles[1]);
        assert_eq!(cycles[1], cycles[2]);
    }

    #[test]
    fn models_predict_the_true_intermediate_bytes() {
        let rk = speck_round_keys(&TV_KEY);
        let last = rk[SPECK_ROUNDS - 1];
        let pt = [0x21u8, 0x43, 0x65, 0x87, 0xa9, 0xcb, 0xed, 0x0f];
        let ct = speck_encrypt(&TV_KEY, &pt);
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&pt);
        input[8..].copy_from_slice(&ct);
        let ct_x = u32::from_le_bytes([ct[0], ct[1], ct[2], ct[3]]);
        let ct_y = u32::from_le_bytes([ct[4], ct[5], ct[6], ct[7]]);
        let x26 = speck_invert_last_round(ct_x, ct_y, last);
        // x26 = w <<< 8: commit bytes 1 and 2 of x26 are w bytes 0 and 1.
        let w0 = ((x26 >> 8) & 0xff) as u8;
        let w1 = ((x26 >> 16) & 0xff) as u8;
        let hw = SpeckLastRoundHw.predict(&input, (last & 0xff) as u8);
        assert_eq!(hw, f64::from(w0.count_ones()));
        let hd = SpeckStoreHd {
            prev_key: (last & 0xff) as u8,
        }
        .predict(&input, ((last >> 8) & 0xff) as u8);
        assert_eq!(hd, f64::from((w0 ^ w1).count_ones()));
    }
}
