//! Co-resident workload power profiles.
//!
//! The Figure 4 environment runs Apache at 1000 requests/s on the second
//! Cortex-A7 core while the victim encrypts on the first. Both cores
//! share the power rail the probe measures, so the second core's
//! switching activity is additive noise from the attacker's viewpoint.
//!
//! Rather than co-simulating a second CPU inside every acquisition (which
//! would double the cost of every trace), a [`WorkloadProfile`] *runs the
//! workload once* on its own simulated core, records the resulting power
//! series, and then serves randomly-positioned windows of it per
//! execution. The spectrum and amplitude are those of real pipeline
//! activity; only the phase is randomized, which matches the asynchrony
//! between the cores.

use rand::rngs::StdRng;
use rand::Rng;

use sca_isa::assemble;
use sca_power::{LeakageWeights, PowerRecorder, SamplingConfig};
use sca_uarch::{Cpu, UarchConfig, UarchError};

/// A request-serving loop: reads a buffer, computes a rolling checksum,
/// writes a response — the memory/ALU mix of a small HTTP server hot
/// path.
const APACHE_LIKE_ASM: &str = "
        .equ REQBUF, 0x2000
        .equ RSPBUF, 0x2400

start:  mov   r10, #REQBUF
        mov   r11, #RSPBUF
        mov   r9, #64          ; requests to serve
serve:  mov   r0, #0           ; checksum
        mov   r1, #0           ; offset
        mov   r2, #32          ; words per request
copy:   ldr   r3, [r10, r1]
        add   r0, r0, r3
        eor   r0, r0, r0, lsl #3
        str   r3, [r11, r1]
        add   r1, r1, #4
        subs  r2, r2, #1
        bne   copy
        str   r0, [r11, #128]
        subs  r9, r9, #1
        bne   serve
        halt
";

/// An idle/GUI-ish background loop: sparse activity, mostly ALU.
const IDLE_LIKE_ASM: &str = "
start:  mov   r9, #200
tick:   mov   r0, r0
        nop
        nop
        nop
        add   r1, r1, #1
        nop
        nop
        subs  r9, r9, #1
        bne   tick
        halt
";

/// A recorded power profile of a co-resident workload.
#[derive(Clone, Debug)]
pub struct WorkloadProfile {
    samples: Vec<f64>,
    /// Scale factor applied when mixing into victim traces.
    gain: f64,
}

impl WorkloadProfile {
    /// Runs `source` (assembly) on a fresh simulated core and records its
    /// power at the given sampling rate.
    ///
    /// # Errors
    ///
    /// Propagates assembler or simulator failures.
    pub fn from_asm(
        source: &str,
        config: UarchConfig,
        sampling: &SamplingConfig,
    ) -> Result<WorkloadProfile, UarchError> {
        let program = assemble(source).map_err(|e| {
            // An invalid embedded workload is a packaging bug; surface it
            // as a bad-instruction style error with the line number lost.
            let _ = e;
            UarchError::BadInstruction {
                addr: 0,
                word: None,
            }
        })?;
        let mut cpu = Cpu::new(config);
        cpu.load(&program)?;
        // Seed the request buffer with non-trivial data so loads/stores
        // actually switch bits.
        for i in 0..128u32 {
            cpu.mem_mut()
                .write_u8(0x2000 + i, (i.wrapping_mul(37) ^ 0x5c) as u8)?;
        }
        let mut recorder = PowerRecorder::new(LeakageWeights::cortex_a7());
        cpu.run(&mut recorder)?;
        // The workload has no trigger, so its window is the whole run.
        let samples = sampling.expand(recorder.windowed_power());
        Ok(WorkloadProfile { samples, gain: 1.0 })
    }

    /// The Apache-like request-serving profile.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (none expected for the embedded
    /// source).
    pub fn apache_like(sampling: &SamplingConfig) -> Result<WorkloadProfile, UarchError> {
        WorkloadProfile::from_asm(APACHE_LIKE_ASM, UarchConfig::cortex_a7(), sampling)
    }

    /// The idle/GUI background profile.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (none expected for the embedded
    /// source).
    pub fn idle_like(sampling: &SamplingConfig) -> Result<WorkloadProfile, UarchError> {
        WorkloadProfile::from_asm(IDLE_LIKE_ASM, UarchConfig::cortex_a7(), sampling)
    }

    /// Profile length in samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sets the mixing gain (relative activity level of the second core).
    #[must_use]
    pub fn with_gain(mut self, gain: f64) -> WorkloadProfile {
        self.gain = gain;
        self
    }

    /// Mean power of the profile (after gain).
    pub fn mean_power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.gain * self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Adds a randomly-phased window of the profile onto `out`.
    pub fn add_window(&self, rng: &mut StdRng, out: &mut [f64]) {
        if self.samples.is_empty() {
            return;
        }
        let start: usize = rng.gen_range(0..self.samples.len());
        for (i, o) in out.iter_mut().enumerate() {
            *o += self.gain * self.samples[(start + i) % self.samples.len()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn apache_profile_has_activity() {
        let profile = WorkloadProfile::apache_like(&SamplingConfig::per_cycle()).unwrap();
        assert!(profile.len() > 1000, "profile length {}", profile.len());
        assert!(
            profile.mean_power() > 1.0,
            "mean power {}",
            profile.mean_power()
        );
    }

    #[test]
    fn idle_profile_is_quieter_than_apache() {
        let sampling = SamplingConfig::per_cycle();
        let apache = WorkloadProfile::apache_like(&sampling).unwrap();
        let idle = WorkloadProfile::idle_like(&sampling).unwrap();
        assert!(
            idle.mean_power() < apache.mean_power(),
            "idle {} vs apache {}",
            idle.mean_power(),
            apache.mean_power()
        );
    }

    #[test]
    fn windows_wrap_and_accumulate() {
        let profile = WorkloadProfile {
            samples: vec![1.0, 2.0, 3.0],
            gain: 2.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = vec![0.0; 7];
        profile.add_window(&mut rng, &mut out);
        // Every value must be one of the gained profile values.
        for &v in &out {
            assert!([2.0, 4.0, 6.0].contains(&v), "{v}");
        }
    }

    #[test]
    fn gain_scales_mean() {
        let sampling = SamplingConfig::per_cycle();
        let profile = WorkloadProfile::idle_like(&sampling).unwrap();
        let doubled = profile.clone().with_gain(2.0);
        assert!((doubled.mean_power() - 2.0 * profile.mean_power()).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_is_harmless() {
        let profile = WorkloadProfile {
            samples: vec![],
            gain: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = vec![1.0; 3];
        profile.add_window(&mut rng, &mut out);
        assert_eq!(out, vec![1.0; 3]);
    }
}
