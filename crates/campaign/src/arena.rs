//! The per-worker simulator arena of the trace-generation fast path.
//!
//! Synthesizing one trace needs a staged simulator, a power recorder,
//! an f64 accumulation buffer, an expanded-sample buffer, an f32 trace
//! buffer and — at the engine layer — a batch of inputs and a flat
//! windowed-trace matrix for the sink. Before the arena existed, most
//! of these were allocated per trace (or per execution); a `--full`
//! campaign churned through millions of short-lived vectors. A
//! [`SimArena`] bundles all of them as worker-owned state: the sharded
//! engine creates one arena per worker (cloning the warmed template CPU
//! exactly once) and reuses it across the worker's entire index range,
//! so the steady-state hot loop performs no heap allocation at all.
//!
//! Reuse never changes results: the simulator is re-pointed at the
//! program with [`Cpu::restart_seeded`] (the cheap architectural reset —
//! pipeline, node and trigger state are overwritten in place, while
//! registers, memory and caches persist exactly as they do across
//! executions on silicon), and every buffer is cleared before refill.
//! Traces remain a pure function of `(seed, index)`; the differential
//! tests in `tests/campaign_determinism.rs` pin arena-vs-fresh
//! byte-identity.

use rand::rngs::StdRng;

use sca_power::{PowerRecorder, SampleWindow, SynthScratch, TraceSynthesizer};
use sca_uarch::{CacheCounts, Cpu, CpuBlock, UarchError};

use crate::lanes::LaneGroup;

/// The scalar lane of an arena: the staged CPU, its recorder, and the
/// synthesis scratch of [`TraceSynthesizer::synth_into`].
#[derive(Clone, Debug)]
struct ScalarSim {
    cpu: Cpu,
    recorder: PowerRecorder,
    scratch: SynthScratch,
    /// The current trace's analysis window.
    trace: Vec<f32>,
}

/// The lockstep half of an arena: a [`CpuBlock`] stepping several traces
/// through one pipeline walk, with per-lane recorder/scratch buffers.
/// Present only when the campaign runs with more than one lane, and
/// dropped for good the moment a group diverges.
#[derive(Clone, Debug)]
struct BlockSim {
    block: CpuBlock,
    recorder: PowerRecorder,
    scratches: Vec<SynthScratch>,
    traces: Vec<Vec<f32>>,
}

/// Work counts a worker accumulates locally (plain integers, no atomics
/// on the hot path) and publishes to the global telemetry registry at
/// batch boundaries via [`SimArena::publish_metrics`].
#[derive(Clone, Copy, Debug, Default)]
struct WorkerTally {
    /// Cache work attributable to committed traces (warm-up counts the
    /// template clones inherited are drained and discarded up front;
    /// a diverged block's work is dropped with the block).
    cache: CacheCounts,
    /// Traces synthesized through the lockstep block.
    lockstep_traces: u64,
    /// Traces synthesized on the scalar path.
    scalar_traces: u64,
    /// Lockstep blocks retired by divergence.
    blocks_poisoned: u64,
}

/// A worker's output between sink updates: the batch and its tally.
#[derive(Clone, Debug, Default)]
struct Batch {
    /// The batch's inputs, in index order.
    inputs: Vec<Vec<u8>>,
    /// The batch's windowed traces, trace-major `inputs.len() × samples`
    /// — handed to [`crate::CampaignSink::absorb_batch`] directly.
    flat: Vec<f32>,
    /// Locally-buffered telemetry, published at batch boundaries.
    tally: WorkerTally,
}

/// One campaign worker's reusable simulation state: a staged CPU cloned
/// once from the warmed template, a [`PowerRecorder`], and the scratch
/// buffers of the allocation-free synthesis path
/// ([`TraceSynthesizer::synth_into`]), plus an optional lockstep block.
#[derive(Clone, Debug)]
pub(crate) struct SimArena {
    lanes: LaneGroup<ScalarSim, BlockSim>,
    batch: Batch,
}

impl SimArena {
    /// Creates a worker arena for `synth`, cloning the warmed template
    /// once, with a `lanes`-wide lockstep [`CpuBlock`] when `lanes > 1`
    /// (clamped to `1..=`[`sca_uarch::MAX_LANES`]). The recorders are
    /// built with the synthesizer's leakage weights, so arena traces are
    /// bit-identical to the materializing path's.
    pub(crate) fn with_lanes(synth: &TraceSynthesizer, template: &Cpu, lanes: usize) -> SimArena {
        let lanes = lanes.clamp(1, sca_uarch::MAX_LANES);
        let weights = synth.weights();
        let mut cpu = template.clone();
        // The clones inherit the template's warm-up hit/miss counts;
        // discard them so the tally attributes cache work to traces only.
        let _ = cpu.drain_cache_counts();
        let block = (lanes > 1).then(|| {
            let mut block = CpuBlock::from_template(template, lanes);
            let _ = block.drain_cache_counts(lanes);
            BlockSim {
                block,
                recorder: PowerRecorder::with_lanes(weights.clone(), lanes),
                scratches: vec![SynthScratch::new(); lanes],
                traces: vec![Vec::new(); lanes],
            }
        });
        SimArena {
            lanes: LaneGroup {
                scalar: ScalarSim {
                    cpu,
                    recorder: PowerRecorder::new(weights.clone()),
                    scratch: SynthScratch::new(),
                    trace: Vec::new(),
                },
                block,
            },
            batch: Batch::default(),
        }
    }

    /// Starts a new sink batch: clears the input and flat-trace buffers
    /// (keeping their capacity).
    pub(crate) fn begin_batch(&mut self) {
        self.batch.inputs.clear();
        self.batch.flat.clear();
    }

    /// Synthesizes the `count` consecutive traces starting at
    /// `base_index` and appends their `[start, start + samples)` sample
    /// windows (zero-padded where an execution ends early) and inputs to
    /// the current batch in index order. When `gated` is true synthesis
    /// is gated to the window (legal only when the post hook is a no-op
    /// — out-of-window samples are then never produced); otherwise each
    /// execution is processed whole and cut to the window as it is
    /// averaged.
    ///
    /// The group runs through the lockstep block when the arena has one
    /// (see [`LaneGroup::run`] for the divergence policy); the results
    /// are bit-identical either way.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_windowed_group<G, S, P>(
        &mut self,
        synth: &TraceSynthesizer,
        entry: u32,
        base_index: usize,
        count: usize,
        (start, samples): (usize, usize),
        gated: bool,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<(), UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let window = SampleWindow {
            start,
            end: start + samples,
            gated,
        };
        let push = |batch: &mut Batch, trace: &[f32], input: Vec<u8>| {
            batch.flat.extend_from_slice(trace);
            batch
                .flat
                .resize(batch.flat.len() + samples - trace.len(), 0.0);
            batch.inputs.push(input);
        };
        let poisoned = self.lanes.run(
            &mut self.batch,
            count,
            |block, batch| {
                let Some(inputs) = synth.synth_block_into(
                    &mut block.block,
                    &mut block.recorder,
                    &mut block.scratches,
                    &mut block.traces,
                    entry,
                    base_index,
                    count,
                    window,
                    generate,
                    stage,
                    post,
                ) else {
                    return false;
                };
                let counts = block.block.drain_cache_counts(count);
                batch.tally.cache.accumulate(&counts);
                batch.tally.lockstep_traces += count as u64;
                for (trace, input) in block.traces.iter().zip(inputs) {
                    push(batch, trace, input);
                }
                true
            },
            |sim, batch, offset| {
                let input = synth.synth_into(
                    &mut sim.cpu,
                    &mut sim.recorder,
                    &mut sim.scratch,
                    &mut sim.trace,
                    entry,
                    base_index + offset,
                    window,
                    generate,
                    stage,
                    post,
                )?;
                push(batch, &sim.trace, input);
                batch.tally.scalar_traces += 1;
                Ok(())
            },
        )?;
        self.batch.tally.blocks_poisoned += u64::from(poisoned);
        Ok(())
    }

    /// The current batch, `(inputs, flat windowed traces)`.
    pub(crate) fn batch(&self) -> (&[Vec<u8>], &[f32]) {
        (&self.batch.inputs, &self.batch.flat)
    }

    /// Publishes the worker's locally-buffered tally to the global
    /// telemetry registry and resets it. Called at batch boundaries so
    /// the hot loop itself never touches shared atomics.
    pub(crate) fn publish_metrics(&mut self) {
        // Attribute the scalar CPU's cache work accumulated this batch.
        let scalar = self.lanes.scalar.cpu.drain_cache_counts();
        self.batch.tally.cache.accumulate(&scalar);
        let tally = std::mem::take(&mut self.batch.tally);
        let cache = tally.cache;
        if !cache.is_zero() {
            sca_telemetry::counter!("uarch/l1i/accesses").add(cache.l1i_hits + cache.l1i_misses);
            sca_telemetry::counter!("uarch/l1i/misses").add(cache.l1i_misses);
            sca_telemetry::counter!("uarch/l1d/accesses").add(cache.l1d_hits + cache.l1d_misses);
            sca_telemetry::counter!("uarch/l1d/misses").add(cache.l1d_misses);
            sca_telemetry::counter!("uarch/l2/accesses").add(cache.l2_hits + cache.l2_misses);
            sca_telemetry::counter!("uarch/l2/misses").add(cache.l2_misses);
        }
        if tally.lockstep_traces > 0 {
            sca_telemetry::counter!("campaign/lockstep_traces").add(tally.lockstep_traces);
        }
        if tally.scalar_traces > 0 {
            sca_telemetry::counter!("campaign/scalar_traces").add(tally.scalar_traces);
        }
        if tally.blocks_poisoned > 0 {
            sca_telemetry::counter!("campaign/blocks_poisoned").add(tally.blocks_poisoned);
        }
    }
}
