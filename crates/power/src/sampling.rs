//! Oscilloscope sampling model.
//!
//! The paper samples a 120 MHz core with a Picoscope 5203 at 500 MS/s —
//! about 4.17 samples per clock cycle. Each cycle's switching activity is
//! a current pulse that the probe chain low-pass filters; this module
//! expands a per-cycle power series into a sample series by convolving
//! with a decaying pulse kernel.

use serde::{Deserialize, Serialize};

/// Sampling-chain configuration.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Oscilloscope samples per core clock cycle.
    pub samples_per_cycle: f64,
    /// Pulse shape: relative amplitude at successive samples after the
    /// cycle's switching instant. Normalized internally.
    pub kernel: Vec<f64>,
}

impl SamplingConfig {
    /// 500 MS/s against a 120 MHz clock, with an empirically-shaped
    /// current pulse decaying over roughly one cycle.
    pub fn picoscope_500msps_120mhz() -> SamplingConfig {
        SamplingConfig {
            samples_per_cycle: 500.0 / 120.0,
            kernel: vec![1.0, 0.75, 0.45, 0.2, 0.08],
        }
    }

    /// One sample per cycle, identity kernel — keeps sample indices equal
    /// to cycle indices (convenient in unit tests and audits).
    pub fn per_cycle() -> SamplingConfig {
        SamplingConfig {
            samples_per_cycle: 1.0,
            kernel: vec![1.0],
        }
    }

    /// Number of samples produced for a given cycle count.
    pub fn sample_count(&self, cycles: usize) -> usize {
        // The epsilon keeps exact ratios (500/120 × 120) from rounding up.
        (cycles as f64 * self.samples_per_cycle - 1e-9)
            .ceil()
            .max(0.0) as usize
    }

    /// Expands per-cycle power into a sample series.
    ///
    /// Sample `s` receives contributions from every cycle `c` whose pulse
    /// (starting at sample `c * samples_per_cycle`) covers `s`.
    pub fn expand(&self, cycle_power: &[f64]) -> Vec<f64> {
        let mut samples = Vec::new();
        self.expand_into(cycle_power, &mut samples);
        samples
    }

    /// Allocation-free variant of [`SamplingConfig::expand`]: clears
    /// `out` and fills it with the expanded sample series, reusing its
    /// capacity. This is the per-execution path of the trace-generation
    /// arena — bit-identical to `expand` (same accumulation order).
    pub fn expand_into(&self, cycle_power: &[f64], out: &mut Vec<f64>) {
        self.expand_into_clipped(cycle_power, 0, cycle_power.len(), out, (0, usize::MAX));
    }

    /// Window-only expansion: clears `out` and fills it with samples
    /// `[keep.0, keep.1)` of the expansion of a `cycles`-long per-cycle
    /// series (cut at its [`SamplingConfig::sample_count`] samples), so
    /// `out[i]` is sample `keep.0 + i`.
    ///
    /// Only cycles `offset..offset + rows.len()` are supplied, in `rows`;
    /// the others count as silent. Every kept sample is bit-identical to
    /// the full expansion as long as the rows cover
    /// [`SamplingConfig::cycle_gate`]`(keep)`: each sample receives the
    /// same per-cycle contributions in the same order. `keep = (0,
    /// usize::MAX)` with all rows is the full expansion.
    pub fn expand_into_clipped(
        &self,
        rows: &[f64],
        offset: usize,
        cycles: usize,
        out: &mut Vec<f64>,
        keep: (usize, usize),
    ) {
        let n = self.sample_count(cycles);
        let end = keep.1.min(n);
        out.clear();
        out.resize(end.saturating_sub(keep.0), 0.0);
        let norm: f64 = self.kernel.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        for (c, &p) in (offset..).zip(rows) {
            if p == 0.0 {
                continue;
            }
            let start = c as f64 * self.samples_per_cycle;
            let first = start.floor() as usize;
            // A cycle's pulse covers samples [first, first + kernel_len];
            // skip cycles that cannot touch the kept window.
            if first >= end || first + self.kernel.len() < keep.0 {
                continue;
            }
            // Linear placement: fractional starting position splits the
            // kernel between adjacent samples.
            let frac = start - start.floor();
            for (k, &amp) in self.kernel.iter().enumerate() {
                let contribution = p * amp / norm;
                let idx = first + k;
                if idx >= keep.0 && idx < end {
                    out[idx - keep.0] += contribution * (1.0 - frac);
                }
                if idx + 1 >= keep.0 && idx + 1 < end {
                    out[idx + 1 - keep.0] += contribution * frac;
                }
            }
        }
    }

    /// The cycle range `[start, end)` whose pulses can reach samples
    /// `[keep.0, keep.1)`, widened by the kernel length (and one cycle
    /// either side, against float rounding): the cycles a recorder must
    /// keep for [`SamplingConfig::expand_into_clipped`] to produce the
    /// kept samples exactly. An open-ended `keep.1 == usize::MAX` gives
    /// an open-ended range.
    pub fn cycle_gate(&self, keep: (usize, usize)) -> (usize, usize) {
        if self.samples_per_cycle.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return (0, usize::MAX);
        }
        // Cycle `c` starts its pulse at sample `floor(c * spc)` and
        // reaches `kernel.len()` samples past it.
        let low = keep.0.saturating_sub(self.kernel.len()) as f64 / self.samples_per_cycle;
        let start = (low.floor() as usize).saturating_sub(1);
        let end = if keep.1 == usize::MAX {
            usize::MAX
        } else {
            ((keep.1 as f64 / self.samples_per_cycle).ceil() as usize).saturating_add(1)
        };
        (start, end.max(start))
    }

    /// Maps a cycle offset (within a window) to its nominal sample index.
    pub fn sample_of_cycle(&self, cycle: usize) -> usize {
        (cycle as f64 * self.samples_per_cycle).floor() as usize
    }

    /// Converts a `(start, len)` cycle window into the `(start, len)`
    /// sample window that covers it: end-exclusive rounding via
    /// [`cycle_window_to_samples`], so fractional sampling rates keep
    /// the tail sample instead of truncating it.
    pub fn window_to_samples(&self, start_cycle: u64, len_cycles: u64) -> (usize, usize) {
        cycle_window_to_samples(self.samples_per_cycle, start_cycle, len_cycles)
    }
}

/// Converts a `(start, len)` cycle window into an end-exclusive sample
/// window at `samples_per_cycle` samples per cycle: the start rounds
/// *down* and the end (`start + len`, exclusive) rounds *up*, so every
/// sample touched by the window's cycles is covered. Truncating
/// `len * samples_per_cycle` instead — the historical bug — silently
/// dropped the final sample whenever the rate is fractional, and read a
/// window *end* as if it were a length.
///
/// The epsilons mirror [`SamplingConfig::sample_count`]: exact products
/// (e.g. 120 cycles × 500/120) stay exact instead of picking up a
/// spurious extra sample.
///
/// ```
/// use sca_power::cycle_window_to_samples;
///
/// // Integer rate: cycle windows map 1:1.
/// assert_eq!(cycle_window_to_samples(1.0, 3, 4), (3, 4));
/// // Fractional rate: the window [1, 2) in cycles covers samples 4..9.
/// let (start, len) = cycle_window_to_samples(500.0 / 120.0, 1, 1);
/// assert_eq!((start, len), (4, 5));
/// ```
pub fn cycle_window_to_samples(
    samples_per_cycle: f64,
    start_cycle: u64,
    len_cycles: u64,
) -> (usize, usize) {
    let start = (start_cycle as f64 * samples_per_cycle + 1e-9)
        .floor()
        .max(0.0) as usize;
    let end_cycle = start_cycle + len_cycles;
    let end = (end_cycle as f64 * samples_per_cycle - 1e-9)
        .ceil()
        .max(0.0) as usize;
    (start, end.saturating_sub(start))
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig::picoscope_500msps_120mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cycle_is_identity() {
        let cfg = SamplingConfig::per_cycle();
        let out = cfg.expand(&[1.0, 2.0, 3.0]);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn energy_is_preserved_up_to_truncation() {
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        let cycles = vec![4.0; 50];
        let out = cfg.expand(&cycles);
        let in_energy: f64 = cycles.iter().sum();
        let out_energy: f64 = out.iter().sum();
        // The tail of the last kernel may be truncated; allow 5%.
        assert!(
            (out_energy - in_energy).abs() / in_energy < 0.05,
            "in {in_energy} out {out_energy}"
        );
    }

    #[test]
    fn sample_count_scales() {
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        assert_eq!(cfg.sample_count(120), 500);
        assert_eq!(cfg.sample_of_cycle(120), 500);
    }

    #[test]
    fn expand_into_matches_expand_and_reuses_capacity() {
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        let cycles: Vec<f64> = (0..40).map(|c| (c % 7) as f64).collect();
        let reference = cfg.expand(&cycles);
        let mut out = vec![0.0; 1000]; // stale, oversized
        cfg.expand_into(&cycles, &mut out);
        assert_eq!(out, reference);
        let capacity = out.capacity();
        cfg.expand_into(&cycles, &mut out);
        assert_eq!(out.capacity(), capacity, "no reallocation on reuse");
    }

    /// Window-only expansion from the gated cycles equals the crop of
    /// the whole expansion, bit for bit, at integer and fractional
    /// rates and for windows at, across and past the series edges.
    #[test]
    fn window_only_expansion_equals_the_cropped_full_expansion() {
        let configs = [
            SamplingConfig::picoscope_500msps_120mhz(),
            SamplingConfig::per_cycle(),
            SamplingConfig {
                samples_per_cycle: 2.5,
                kernel: vec![1.0, 0.6, 0.3],
            },
        ];
        let series: Vec<f64> = (0..60)
            .map(|c| {
                if c % 5 == 3 {
                    0.0
                } else {
                    ((c * 37) % 11) as f64 * 0.37
                }
            })
            .collect();
        for cfg in &configs {
            // The whole trace needs every cycle: the default gate.
            assert_eq!(cfg.cycle_gate((0, usize::MAX)), (0, usize::MAX));
            let full = cfg.expand(&series);
            let n = full.len();
            for keep in [
                (0, 1),
                (0, 40),
                (3, 17),
                (100, 180),
                (n - 5, n + 20),
                (n + 3, n + 9),
            ] {
                let gate = cfg.cycle_gate(keep);
                let lo = gate.0.min(series.len());
                let rows = &series[lo..gate.1.min(series.len())];
                let mut out = vec![9.0; 3]; // stale
                cfg.expand_into_clipped(rows, lo, series.len(), &mut out, keep);
                let want = &full[keep.0.min(n)..keep.1.min(n)];
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&out),
                    bits(want),
                    "spc {} keep {keep:?}",
                    cfg.samples_per_cycle
                );
            }
        }
    }

    /// Regression for the sample-window truncation bug: at a fractional
    /// rate, truncating `len * samples_per_cycle` dropped the tail
    /// sample of the window. End-exclusive rounding must cover every
    /// sample the window's cycles touch.
    #[test]
    fn fractional_rate_windows_keep_the_tail_sample() {
        let spc = 500.0 / 120.0; // ≈ 4.1667 samples per cycle
        for start_cycle in 0u64..30 {
            for len_cycles in 1u64..30 {
                let (start, len) = cycle_window_to_samples(spc, start_cycle, len_cycles);
                let end_exact = (start_cycle + len_cycles) as f64 * spc;
                assert!(
                    (start + len) as f64 >= end_exact - 1e-6,
                    "window ({start_cycle}, {len_cycles}) truncated: \
                     samples ({start}, {len}) vs exact end {end_exact}"
                );
                assert!(start as f64 <= start_cycle as f64 * spc + 1e-6);
                // The old truncating conversion loses the tail at
                // non-integer products.
                let old_len = (len_cycles as f64 * spc) as usize;
                assert!(len >= old_len, "end-exclusive rounding never shrinks");
            }
        }
        // The concrete case from the issue: one mid-stream cycle.
        assert_eq!(cycle_window_to_samples(spc, 1, 1), (4, 5));
        assert_eq!((1.0 * spc) as usize, 4, "old truncation gave 4 samples");
    }

    #[test]
    fn integer_rate_windows_are_identity() {
        for start in 0u64..10 {
            for len in 0u64..10 {
                assert_eq!(
                    cycle_window_to_samples(1.0, start, len),
                    (start as usize, len as usize)
                );
            }
        }
        // Exact products stay exact at the paper's fractional rate.
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        assert_eq!(cfg.window_to_samples(0, 120), (0, 500));
    }

    #[test]
    fn pulse_spreads_forward_only() {
        let cfg = SamplingConfig {
            samples_per_cycle: 4.0,
            kernel: vec![1.0, 0.5],
        };
        let out = cfg.expand(&[0.0, 3.0, 0.0]);
        // Cycle 1 starts at sample 4.
        assert_eq!(out[0], 0.0);
        assert!(out[4] > 0.0);
        assert!(out[5] > 0.0);
        assert_eq!(out[2], 0.0);
        let total: f64 = out.iter().sum();
        assert!((total - 3.0).abs() < 1e-9);
    }
}
