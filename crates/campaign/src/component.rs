//! The per-component campaign worker: the trace campaigns' `SimArena`
//! counterpart for [`ComponentSynthesizer`] acquisitions, shared by
//! Table 2 (`sca-core`) and the portfolio characterization
//! (`sca-target`). It publishes no telemetry counters.

use std::ops::Range;

use rand::rngs::StdRng;

use sca_power::{ComponentPowerRecorder, ComponentScratch, ComponentSynthesizer, LaneSim};
use sca_uarch::{Cpu, CpuBlock, UarchError};

use crate::lanes::LaneGroup;

#[derive(Clone, Debug)]
struct ScalarSim {
    cpu: Cpu,
    recorder: ComponentPowerRecorder,
    scratch: ComponentScratch,
}

#[derive(Clone, Debug)]
struct BlockSim {
    block: CpuBlock,
    recorder: ComponentPowerRecorder,
    scratches: Vec<ComponentScratch>,
}

/// One characterization worker's reusable simulation state, created
/// once per shard and reused across its whole index range.
#[derive(Clone, Debug)]
pub struct ComponentArena {
    lanes: LaneGroup<ScalarSim, BlockSim>,
}

impl ComponentArena {
    /// Creates a worker for `synth` from the warmed `template`, with a
    /// `lanes`-wide lockstep block when `lanes > 1` (clamped to
    /// `1..=`[`sca_uarch::MAX_LANES`]). Results are bit-identical at
    /// every lane count.
    pub fn new(synth: &ComponentSynthesizer, template: &Cpu, lanes: usize) -> ComponentArena {
        let lanes = lanes.clamp(1, sca_uarch::MAX_LANES);
        ComponentArena {
            lanes: LaneGroup {
                scalar: ScalarSim {
                    cpu: template.clone(),
                    recorder: ComponentPowerRecorder::new(synth.weights().clone()),
                    scratch: ComponentScratch::default(),
                },
                block: (lanes > 1).then(|| BlockSim {
                    block: CpuBlock::from_template(template, lanes),
                    recorder: ComponentPowerRecorder::with_lanes(synth.weights().clone(), lanes),
                    scratches: vec![ComponentScratch::default(); lanes],
                }),
            },
        }
    }

    /// Synthesizes the traces of `range`, in groups as wide as the
    /// lockstep block, and hands each one's input and averaged channels
    /// to `absorb` in index order.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn run<G, S, A>(
        &mut self,
        synth: &ComponentSynthesizer,
        entry: u32,
        range: Range<usize>,
        generate: &G,
        stage: &S,
        mut absorb: A,
    ) -> Result<(), UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        A: FnMut(&[u8], &[Vec<f32>]),
    {
        let mut base = range.start;
        while base < range.end {
            let width = self.lanes.block.as_ref().map_or(1, |b| b.block.max_lanes());
            let count = width.min(range.end - base);
            self.lanes.run(
                &mut absorb,
                count,
                |block, absorb| {
                    let Ok(Some(inputs)) = synth.synth_group(
                        LaneSim::Block(&mut block.block),
                        &mut block.recorder,
                        &mut block.scratches[..count],
                        entry,
                        base,
                        generate,
                        stage,
                    ) else {
                        return false;
                    };
                    for (input, scratch) in inputs.iter().zip(&block.scratches) {
                        absorb(input, scratch.channels());
                    }
                    true
                },
                |sim, absorb, offset| {
                    let inputs = synth
                        .synth_group(
                            LaneSim::Scalar(&mut sim.cpu),
                            &mut sim.recorder,
                            std::slice::from_mut(&mut sim.scratch),
                            entry,
                            base + offset,
                            generate,
                            stage,
                        )?
                        .expect("a scalar CPU never diverges");
                    absorb(&inputs[0], sim.scratch.channels());
                    Ok(())
                },
            )?;
            base += count;
        }
        Ok(())
    }
}
