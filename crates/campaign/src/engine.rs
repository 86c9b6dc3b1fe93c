//! The campaign engine: deterministic acquisition fanned across workers,
//! streamed into mergeable sinks.

use rand::rngs::StdRng;

use sca_power::{
    AcquisitionConfig, GaussianNoise, LeakageWeights, SamplingConfig, TraceSynthesizer,
};
use sca_uarch::{Cpu, Lane, UarchError};

use crate::{run_sharded, CampaignSink, ShardPlan, SimArena, DEFAULT_BATCH};

/// Default lockstep lane width: the widest block the simulator
/// supports ([`sca_uarch::MAX_LANES`]). Campaigns synthesize traces in
/// groups of this many through one [`sca_uarch::CpuBlock`] pipeline
/// walk; results are bit-identical at every lane count (1 disables the
/// block entirely), so the only trade-off is throughput.
pub const DEFAULT_LANES: usize = sca_uarch::MAX_LANES;

/// Campaign parameters: the acquisition knobs of
/// [`AcquisitionConfig`] plus the sharding batch size.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of averaged traces to acquire.
    pub traces: usize,
    /// Executions averaged into each trace (the paper uses 16).
    pub executions_per_trace: usize,
    /// Sampling chain model.
    pub sampling: SamplingConfig,
    /// Per-execution measurement noise.
    pub noise: GaussianNoise,
    /// Master seed; every trace's RNG stream derives from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between sink updates (`--batch`).
    pub batch: usize,
}

impl CampaignConfig {
    /// A quick default campaign of `traces` averaged traces.
    pub fn new(traces: usize) -> CampaignConfig {
        CampaignConfig {
            traces,
            executions_per_trace: 16,
            sampling: SamplingConfig::default(),
            noise: GaussianNoise::bare_metal(),
            seed: 0x5ca_1ab1e,
            threads: 1,
            batch: DEFAULT_BATCH,
        }
    }
}

/// A streaming trace-acquisition campaign over a simulated CPU.
///
/// Wraps a [`TraceSynthesizer`] (so every trace is bit-identical to what
/// the materializing [`TraceSynthesizer::acquire`] path would record)
/// and drives it through the sharded engine: workers synthesize batches
/// of traces and fold them straight into per-worker [`CampaignSink`]s,
/// which merge in worker order at the end. Peak memory is the sink's
/// accumulator plus one batch of traces per worker — never the full
/// `traces × samples` matrix.
#[derive(Clone, Debug)]
pub struct Campaign {
    pub(crate) synth: TraceSynthesizer,
    pub(crate) threads: usize,
    pub(crate) batch: usize,
    pub(crate) lanes: usize,
    pub(crate) window: Option<(usize, usize)>,
}

impl Campaign {
    /// Creates a campaign engine.
    pub fn new(weights: LeakageWeights, config: CampaignConfig) -> Campaign {
        let threads = config.threads.max(1);
        let batch = config.batch.max(1);
        let acquisition = AcquisitionConfig {
            traces: config.traces,
            executions_per_trace: config.executions_per_trace,
            sampling: config.sampling,
            noise: config.noise,
            seed: config.seed,
            threads,
        };
        Campaign {
            synth: TraceSynthesizer::new(weights, acquisition),
            threads,
            batch,
            lanes: DEFAULT_LANES,
            window: None,
        }
    }

    /// Sets the lockstep lane width (builder style): consecutive traces
    /// are synthesized `lanes` at a time through one
    /// [`sca_uarch::CpuBlock`]. Clamped to
    /// `1..=`[`sca_uarch::MAX_LANES`]; 1 disables lockstep entirely.
    /// Results are bit-identical at every setting — the differential
    /// tests in `tests/lockstep_conformance.rs` pin this.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Campaign {
        self.lanes = lanes.clamp(1, sca_uarch::MAX_LANES);
        self
    }

    /// Restricts the analysis to `samples` points starting at `start`
    /// (builder style). Traces are cropped *before* they reach the
    /// sinks, so accumulators only pay for the window — this is how
    /// `figure3` keeps to round 1 and `figure4` to the SubBytes stores.
    #[must_use]
    pub fn with_window(mut self, start: usize, samples: usize) -> Campaign {
        self.window = Some((start, samples));
        self
    }

    /// The underlying acquisition configuration.
    pub fn config(&self) -> &AcquisitionConfig {
        self.synth.config()
    }

    /// The sharding plan this campaign will run with.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan {
            items: self.synth.config().traces,
            threads: self.threads,
            batch: self.batch,
        }
    }

    /// Runs the campaign, returning the merged sink.
    ///
    /// * `cpu` — loaded (and ideally warmed) template CPU;
    /// * `entry` — program entry point;
    /// * `generate` / `stage` — as in [`TraceSynthesizer::acquire`];
    /// * `sink` — builds one worker's empty sink, given the (windowed)
    ///   samples per trace.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any worker.
    pub fn run<G, S, K>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        sink: impl Fn(usize) -> K + Sync,
    ) -> Result<K, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
        K: CampaignSink,
    {
        // No post hook ⇒ everything outside the analysis window is
        // discarded unseen, so synthesis is gated to the window
        // (in-window samples stay bit-identical; see `SampleWindow`).
        self.run_inner(cpu, entry, generate, stage, |_, _| {}, sink, true)
    }

    /// Like [`Campaign::run`], with a post-processing hook applied to
    /// each raw execution's samples (the OS-noise environments inject
    /// co-resident workload power and jitter through it, exactly as in
    /// [`TraceSynthesizer::acquire_with`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any worker.
    pub fn run_with<G, S, P, K>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        post: P,
        sink: impl Fn(usize) -> K + Sync,
    ) -> Result<K, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
        K: CampaignSink,
    {
        // A post hook sees (and may shift) the whole trace — e.g. the
        // OS-noise jitter moves samples into the window — so synthesis
        // processes whole executions here.
        self.run_inner(cpu, entry, generate, stage, post, sink, false)
    }

    /// Probes the full trace length and resolves the analysis window
    /// inside it: `(start, samples)`.
    pub(crate) fn probe_window<G, S>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: &G,
        stage: &S,
    ) -> Result<(usize, usize), UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
    {
        let full = {
            let _span = sca_telemetry::span!("probe");
            self.synth.probe_samples(cpu, entry, generate, stage)?
        };
        let (start, len) = self.window.unwrap_or((0, full));
        let start = start.min(full);
        Ok((start, len.min(full - start)))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner<G, S, P, K>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        post: P,
        sink: impl Fn(usize) -> K + Sync,
        gated: bool,
    ) -> Result<K, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
        K: CampaignSink,
    {
        let (start, samples) = self.probe_window(cpu, entry, &generate, &stage)?;
        let plan = self.plan();
        sca_telemetry::counter!("campaign/traces_planned").add(plan.items as u64);
        // Worker threads have empty span stacks; graft their phase spans
        // under the caller's current span so the tree stays hierarchical.
        let parent = sca_telemetry::current_span_path();
        run_sharded(
            &plan,
            || SimArena::with_lanes(&self.synth, cpu, self.lanes),
            || sink(samples),
            |arena, acc, range| {
                {
                    let _span =
                        sca_telemetry::span_at(sca_telemetry::child_path(&parent, "simulate"));
                    arena.begin_batch();
                    let mut index = range.start;
                    while index < range.end {
                        let group = self.lanes.min(range.end - index);
                        arena.push_windowed_group(
                            &self.synth,
                            entry,
                            index,
                            group,
                            (start, samples),
                            gated,
                            &generate,
                            &stage,
                            &post,
                        )?;
                        index += group;
                    }
                }
                {
                    let _span =
                        sca_telemetry::span_at(sca_telemetry::child_path(&parent, "absorb"));
                    let (inputs, flat) = arena.batch();
                    acc.absorb_batch(inputs, flat, samples);
                }
                sca_telemetry::counter!("campaign/traces_simulated").add(range.len() as u64);
                sca_telemetry::counter!("campaign/batches").inc();
                arena.publish_metrics();
                Ok(())
            },
        )
    }
}
