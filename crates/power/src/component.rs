//! Per-component trace acquisition: one averaged power sub-trace per
//! pipeline component, for Table 2 and the portfolio's characterization.
//! A trace is a pure function of `(seed, index)` at every lane count:
//! scalar and lockstep groups run through one body.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_uarch::{Cpu, CpuBlock, NodeKind, UarchError};

use crate::lanes::Lanes;
use crate::{ComponentPowerRecorder, GaussianNoise, LeakageWeights, NoiseSource};

/// The simulator a group of traces runs on.
#[derive(Debug)]
pub enum LaneSim<'a> {
    /// A scalar CPU, running one trace.
    Scalar(&'a mut Cpu),
    /// A lockstep block, running one trace per lane.
    Block(&'a mut CpuBlock),
}

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

    /// Synthesizes traces `base..base + scratches.len()` on `sim`, trace
    /// `base + l` into `scratches[l]`, and returns their inputs — or
    /// `None` on lockstep divergence, in which case the caller re-runs
    /// the group on a scalar CPU. The result is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults of a scalar run.
    ///
    /// # Panics
    ///
    /// Panics if a scalar CPU gets other than one scratch, or a block
    /// more scratches than lanes.
    #[allow(clippy::too_many_arguments)]
    pub fn synth_group<G, S>(
        &self,
        sim: LaneSim<'_>,
        recorder: &mut ComponentPowerRecorder,
        scratches: &mut [ComponentScratch],
        entry: u32,
        base: usize,
        generate: &G,
        stage: &S,
    ) -> Result<Option<Vec<Vec<u8>>>, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
    {
        let count = scratches.len();
        match sim {
            LaneSim::Scalar(cpu) => {
                assert_eq!(count, 1, "a scalar CPU runs one trace");
                self.synth_lanes(cpu, recorder, scratches, entry, base, generate, stage)
            }
            LaneSim::Block(block) => {
                assert!(count >= 1 && count <= block.max_lanes(), "bad lane count");
                self.synth_lanes(block, recorder, scratches, entry, base, generate, stage)
            }
        }
    }

    /// The per-component per-execution body, over either simulator.
    #[allow(clippy::too_many_arguments)]
    fn synth_lanes<L, G, S>(
        &self,
        lanes: &mut L,
        recorder: &mut ComponentPowerRecorder,
        scratches: &mut [ComponentScratch],
        entry: u32,
        base: usize,
        generate: &G,
        stage: &S,
    ) -> Result<Option<Vec<Vec<u8>>>, UarchError>
    where
        L: Lanes<ComponentPowerRecorder>,
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
    {
        let count = scratches.len();
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
            lanes.restart(entry, &seeds[..count]);
            for (l, input) in inputs.iter().enumerate() {
                stage(lanes.lane_mut(l), input);
            }
            recorder.reset();
            if !lanes.execute(recorder)? {
                return Ok(None);
            }
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
        Ok(Some(inputs))
    }
}
