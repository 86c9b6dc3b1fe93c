//! Per-component trace acquisition: one averaged power sub-trace per
//! pipeline component, for Table 2 and the portfolio's characterization.
//! A trace is a pure function of `(seed, index)` at every lane count:
//! scalar and lockstep groups run through one body.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_uarch::{Core, Lane, LaneCount, NodeKind};

use crate::{ComponentPowerRecorder, GaussianNoise, LeakageWeights, NoiseSource};

/// Reusable per-lane buffers of the per-component synthesis path.
#[derive(Clone, Debug, Default)]
pub struct ComponentScratch {
    /// Execution-summed power, one `f64` series per channel.
    accum: Vec<Vec<f64>>,
    /// One component's windowed series of the current execution.
    samples: Vec<f64>,
    /// The averaged `f32` channels of the last synthesized trace.
    channels: Vec<Vec<f32>>,
}

impl ComponentScratch {
    /// The averaged channels of the last trace synthesized into this
    /// scratch, in the synthesizer's channel order.
    pub fn channels(&self) -> &[Vec<f32>] {
        &self.channels
    }
}

/// Synthesizes per-component traces: per execution, each recorded
/// component's windowed series is cropped to the analysis window and
/// noised (noise drawn component by component, in channel order), then
/// accumulated; the average is narrowed to `f32` once per trace.
#[derive(Clone, Debug)]
pub struct ComponentSynthesizer {
    weights: LeakageWeights,
    channels: Vec<NodeKind>,
    window: (usize, usize),
    executions: usize,
    noise: GaussianNoise,
    seed: u64,
}

impl ComponentSynthesizer {
    /// Creates a synthesizer recording `channels` (noise is drawn in
    /// this order) over the `len` cycles starting `start` cycles into
    /// the trigger window, averaging `executions` noisy executions per
    /// trace. Series shorter than the window are zero-padded.
    pub fn new(
        weights: LeakageWeights,
        channels: &[NodeKind],
        (start, len): (usize, usize),
        executions: usize,
        noise: GaussianNoise,
        seed: u64,
    ) -> ComponentSynthesizer {
        ComponentSynthesizer {
            weights,
            channels: channels.to_vec(),
            window: (start, len),
            executions: executions.max(1),
            noise,
            seed,
        }
    }

    /// The leakage weights recorders must be built with.
    pub fn weights(&self) -> &LeakageWeights {
        &self.weights
    }

    /// Synthesizes traces `base..base + scratches.len()` on `core`,
    /// trace `base + l` on lane `l` into `scratches[l]`, and returns
    /// their inputs. A lockstep block that diverges returns its
    /// [`sca_uarch::Divergence`], and the caller re-runs the group one
    /// lane at a time; the result is bit-identical either way.
    ///
    /// # Errors
    ///
    /// The error the core stopped with: a simulator fault of a one-lane
    /// run, or a block's divergence.
    ///
    /// # Panics
    ///
    /// Panics if there are no scratches or more scratches than lanes.
    #[allow(clippy::too_many_arguments)]
    pub fn synth_group<const N: usize, G, S>(
        &self,
        core: &mut Core<N>,
        recorder: &mut ComponentPowerRecorder,
        scratches: &mut [ComponentScratch],
        entry: u32,
        base: usize,
        generate: &G,
        stage: &S,
    ) -> Result<Vec<Vec<u8>>, <Core<N> as LaneCount>::Error>
    where
        Core<N>: LaneCount,
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
    {
        let count = scratches.len();
        assert!(count >= 1 && count <= core.max_lanes(), "bad lane count");
        let (start, len) = self.window;
        let mut rngs: Vec<StdRng> = (0..count)
            .map(|l| {
                StdRng::seed_from_u64(
                    self.seed
                        .wrapping_add(((base + l) as u64).wrapping_mul(0x9e37)),
                )
            })
            .collect();
        let inputs: Vec<Vec<u8>> = rngs
            .iter_mut()
            .enumerate()
            .map(|(l, rng)| generate(rng, base + l))
            .collect();
        for scratch in scratches.iter_mut() {
            scratch.accum.resize_with(self.channels.len(), Vec::new);
            for channel in &mut scratch.accum {
                channel.clear();
                channel.resize(len, 0.0);
            }
        }
        let mut noise = self.noise;
        let mut seeds = [0u64; sca_uarch::MAX_LANES];
        for execution in 0..self.executions {
            for (l, seed) in seeds[..count].iter_mut().enumerate() {
                *seed = self.seed ^ (((base + l) as u64) << 8 | execution as u64);
            }
            core.restart_lanes(entry, &seeds[..count]);
            for (l, input) in inputs.iter().enumerate() {
                stage(core.lane_mut(l), input);
            }
            recorder.reset();
            core.run(recorder)?;
            for (l, (scratch, rng)) in scratches.iter_mut().zip(&mut rngs).enumerate() {
                for (&kind, accum) in self.channels.iter().zip(&mut scratch.accum) {
                    recorder.windowed_power_into(l, kind, &mut scratch.samples);
                    scratch.samples.resize(start + len, 0.0);
                    let cropped = &mut scratch.samples[start..];
                    noise.add_to(rng, cropped);
                    crate::vecops::add_assign(accum, cropped);
                }
            }
        }
        let inv = 1.0 / self.executions as f64;
        for scratch in scratches.iter_mut() {
            scratch.channels.resize_with(self.channels.len(), Vec::new);
            for (channel, accum) in scratch.channels.iter_mut().zip(&scratch.accum) {
                channel.clear();
                crate::vecops::scaled_narrow_extend(channel, accum, inv);
            }
        }
        Ok(inputs)
    }
}
