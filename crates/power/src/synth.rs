//! Trace acquisition: run a program many times with random inputs and
//! synthesize the oscilloscope traces an attacker would capture.
//!
//! The protocol mirrors the paper's Section 4 setup:
//!
//! 1. the caller warms a [`Cpu`] (run the benchmark once so both cache
//!    levels are hot);
//! 2. for each trace, an input is drawn from a seeded RNG and staged into
//!    registers/memory;
//! 3. the benchmark runs `executions_per_trace` times (16 in the paper)
//!    with the *same* input; each execution's windowed per-cycle power is
//!    expanded to samples and gets fresh Gaussian noise;
//! 4. the executions are averaged into one stored trace.
//!
//! Acquisition is deterministic given the seed, independent of the thread
//! count: every trace derives its own RNG stream.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_uarch::{Cpu, CpuBlock, UarchError};

use crate::lanes::Lanes;
use crate::{GaussianNoise, LeakageWeights, PowerRecorder, SamplingConfig, TraceSet};

/// Acquisition campaign parameters.
#[derive(Clone, Debug)]
pub struct AcquisitionConfig {
    /// Number of traces to record.
    pub traces: usize,
    /// Executions averaged into each trace (the paper uses 16).
    pub executions_per_trace: usize,
    /// Sampling chain model.
    pub sampling: SamplingConfig,
    /// Per-execution measurement noise.
    pub noise: GaussianNoise,
    /// Master seed; all randomness (inputs and noise) derives from it.
    pub seed: u64,
    /// Worker threads (1 = serial). Results are identical regardless.
    pub threads: usize,
}

impl AcquisitionConfig {
    /// A quick default: 1000 averaged traces, paper-like sampling.
    pub fn new(traces: usize) -> AcquisitionConfig {
        AcquisitionConfig {
            traces,
            executions_per_trace: 16,
            sampling: SamplingConfig::default(),
            noise: GaussianNoise::bare_metal(),
            seed: 0x5ca_1ab1e,
            threads: 1,
        }
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> AcquisitionConfig {
        self.seed = seed;
        self
    }

    /// Sets the thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> AcquisitionConfig {
        self.threads = threads.max(1);
        self
    }
}

/// The `power/simulator_runs` telemetry counter: simulator executions
/// completed by trace synthesis (every lane of every run in
/// [`TraceSynthesizer::synth_into`], [`TraceSynthesizer::synth_block_into`]
/// and [`TraceSynthesizer::probe_samples`], across all threads).
///
/// Re-analysis paths that replay a stored corpus assert this counter
/// does not move — stored traces must never trigger resimulation. The
/// count is pure work, never wall clock, so it is byte-identical across
/// thread and lane counts (a diverged lockstep group counts nothing;
/// its scalar rerun counts once per trace, like every other trace).
fn simulator_runs_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("power/simulator_runs")
}

/// How many simulator executions trace synthesis has completed in this
/// process so far. Monotonic; sample it before and after an operation
/// to count the runs it caused.
///
/// A thin shim over the `power/simulator_runs` counter in
/// [`sca_telemetry::global`] — kept so the exact-delta assertions
/// written against the old process-global counter stay valid verbatim.
pub fn simulator_runs() -> u64 {
    simulator_runs_counter().get()
}

/// Derives a statistically-independent child seed (SplitMix64 step).
fn child_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reusable per-worker scratch for the allocation-free synthesis path
/// ([`TraceSynthesizer::synth_into`]): the f64 accumulation buffer the
/// averaged executions sum into and the per-execution expanded-sample
/// buffer. A campaign worker owns one of these (inside its `SimArena`)
/// for its entire index range.
#[derive(Clone, Debug, Default)]
pub struct SynthScratch {
    /// Execution-averaged power, in f64 (converted to f32 only at the
    /// end, exactly like the materializing path).
    accum: Vec<f64>,
    /// One execution's expanded (and noised) sample series.
    samples: Vec<f64>,
    /// Gather buffer for one lane's windowed per-cycle series.
    windowed: Vec<f64>,
}

impl SynthScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> SynthScratch {
        SynthScratch::default()
    }
}

/// Synthesizes trace sets from a CPU, a leakage model and an acquisition
/// configuration.
#[derive(Clone, Debug)]
pub struct TraceSynthesizer {
    weights: LeakageWeights,
    config: AcquisitionConfig,
}

impl TraceSynthesizer {
    /// Creates a synthesizer.
    pub fn new(weights: LeakageWeights, config: AcquisitionConfig) -> TraceSynthesizer {
        TraceSynthesizer { weights, config }
    }

    /// The acquisition configuration.
    pub fn config(&self) -> &AcquisitionConfig {
        &self.config
    }

    /// The leakage weights (what a reusable [`PowerRecorder`] must be
    /// built with to reproduce this synthesizer's traces).
    pub fn weights(&self) -> &LeakageWeights {
        &self.weights
    }

    /// Acquires a trace set.
    ///
    /// * `cpu` — a loaded (and ideally warmed) CPU used as the template
    ///   for every execution.
    /// * `entry` — program entry point for each (re-)run.
    /// * `generate` — draws one input (opaque bytes) per trace.
    /// * `stage` — writes an input into CPU registers/memory; called
    ///   before *every* execution, so it must fully re-initialize any
    ///   memory the program mutates.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any execution.
    pub fn acquire<G, S>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
    ) -> Result<TraceSet, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
    {
        self.acquire_with(cpu, entry, generate, stage, |_, _| {})
    }

    /// Like [`TraceSynthesizer::acquire`], with a post-processing hook
    /// applied to each raw execution's samples (after leakage expansion
    /// and Gaussian noise). The OS-noise models in `sca-osnoise` inject
    /// co-resident workload power and trace jitter through this hook.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any execution.
    pub fn acquire_with<G, S, P>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        post: P,
    ) -> Result<TraceSet, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let samples_per_trace = self.probe_samples(cpu, entry, &generate, &stage)?;
        let traces = self.config.traces;
        let synth_range = |range: std::ops::Range<usize>| {
            let mut set = TraceSet::new(samples_per_trace);
            let mut worker_cpu = cpu.clone();
            for t in range {
                let (trace, input) =
                    self.synthesize_trace(&mut worker_cpu, entry, t, &generate, &stage, &post)?;
                set.push(trace, input);
            }
            Ok::<TraceSet, UarchError>(set)
        };
        let threads = self.config.threads.max(1).min(traces.max(1));
        if threads <= 1 {
            return synth_range(0..traces);
        }

        // Contiguous chunks per thread; merged in order afterwards.
        let chunk = traces.div_ceil(threads);
        let synth_range = &synth_range;
        let partials: Vec<Result<TraceSet, UarchError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| w * chunk..((w + 1) * chunk).min(traces))
                .filter(|range| !range.is_empty())
                .map(|range| scope.spawn(move || synth_range(range)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("worker panicked"))
                .collect()
        });
        let mut set = TraceSet::new(samples_per_trace);
        for partial in partials {
            set.merge(partial?);
        }
        Ok(set)
    }

    /// Draws trace `index`'s input without running the simulator.
    ///
    /// Replays the same RNG stream prefix [`TraceSynthesizer::synth_into`]
    /// uses (the input is drawn *before* any execution), so the returned
    /// bytes are bit-identical to the input the full synthesis would
    /// stage. Persistent trace stores use this to learn the input width
    /// — and to re-derive inputs — with zero simulator work.
    pub fn input_for<G>(&self, index: usize, generate: &G) -> Vec<u8>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
    {
        let mut rng = StdRng::seed_from_u64(child_seed(self.config.seed, index as u64));
        generate(&mut rng, index)
    }

    /// Probe run: determines the trace window length in samples by
    /// executing once with a throwaway input (index `usize::MAX`, so the
    /// probe's RNG stream never collides with a real trace's).
    ///
    /// Campaign engines call this up front so streaming sinks can size
    /// their accumulators before the first real trace exists.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn probe_samples<G, S>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: &G,
        stage: &S,
    ) -> Result<usize, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
    {
        let mut probe_cpu = cpu.clone();
        let mut rng = StdRng::seed_from_u64(child_seed(self.config.seed, u64::MAX));
        let input = generate(&mut rng, usize::MAX);
        probe_cpu.restart_seeded(entry, 0);
        stage(&mut probe_cpu, &input);
        let mut recorder = PowerRecorder::new(self.weights.clone());
        probe_cpu.run(&mut recorder)?;
        simulator_runs_counter().inc();
        Ok(self
            .config
            .sampling
            .sample_count(recorder.windowed_power().len()))
    }

    /// Synthesizes the single trace at `index`: draws the input from the
    /// trace's own seeded RNG stream, runs `executions_per_trace`
    /// executions, and averages them (noise and `post` applied per
    /// execution).
    ///
    /// A trace depends only on `(config.seed, index)` — never on the
    /// thread that produced it — which is the determinism contract the
    /// sharded campaign engine in `sca-campaign` is built on. `cpu` is a
    /// worker-local clone of the loaded template CPU.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn synthesize_trace<G, S, P>(
        &self,
        cpu: &mut Cpu,
        entry: u32,
        index: usize,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<(Vec<f32>, Vec<u8>), UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let mut recorder = PowerRecorder::new(self.weights.clone());
        let mut scratch = SynthScratch::new();
        let mut trace = Vec::new();
        let input = self.synth_into(
            cpu,
            &mut recorder,
            &mut scratch,
            &mut trace,
            entry,
            index,
            None,
            generate,
            stage,
            post,
        )?;
        Ok((trace, input))
    }

    /// The allocation-free synthesis path: like
    /// [`TraceSynthesizer::synthesize_trace`], but every buffer — the
    /// simulator, the power recorder, the f64 accumulation scratch and
    /// the output f32 trace — is caller-owned and reused across calls.
    /// `recorder` must have been built with this synthesizer's
    /// [`TraceSynthesizer::weights`]; `trace` is cleared and filled with
    /// the averaged trace.
    ///
    /// Bit-for-bit identical to `synthesize_trace` (same RNG streams,
    /// same f64 accumulation order, same f32 conversion): the trace
    /// remains a pure function of `(config.seed, index)` no matter how
    /// many traces the buffers have already produced — the differential
    /// tests in `tests/campaign_determinism.rs` pin this.
    ///
    /// `clip`, when `Some((start, end))`, restricts sample synthesis to
    /// that end-exclusive window: out-of-window samples stay at zero
    /// (expansion skipped) and receive no noise (the noise RNG is still
    /// advanced identically, so in-window samples are bit-identical to
    /// the unclipped trace). Only pass a clip when everything past the
    /// window is discarded unseen — i.e. the campaign crops to exactly
    /// this window *and* `post` ignores the samples (the windowed
    /// engine passes a no-op post on the clipped path; OS-noise jitter,
    /// which shifts samples into the window, must run unclipped).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    #[allow(clippy::too_many_arguments)]
    pub fn synth_into<G, S, P>(
        &self,
        cpu: &mut Cpu,
        recorder: &mut PowerRecorder,
        scratch: &mut SynthScratch,
        trace: &mut Vec<f32>,
        entry: u32,
        index: usize,
        clip: Option<(usize, usize)>,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<Vec<u8>, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let mut inputs = self
            .synth_lanes(
                cpu,
                recorder,
                std::slice::from_mut(scratch),
                std::slice::from_mut(trace),
                entry,
                index,
                1,
                clip,
                (generate, stage, post),
            )?
            .expect("a scalar CPU never diverges");
        Ok(inputs.pop().expect("one lane, one input"))
    }

    /// Lockstep multi-trace synthesis: like `count` consecutive
    /// [`TraceSynthesizer::synth_into`] calls for indices
    /// `base_index..base_index + count`, but every execution steps all
    /// traces through one [`CpuBlock`] in a single pipeline walk.
    ///
    /// Bit-for-bit identical to the scalar path by construction: both
    /// run the same per-execution body, each lane draws from its own
    /// per-index RNG streams (inputs, noise, scrambles) exactly as the
    /// scalar path does, and the block emits per-lane node events in the
    /// same order a scalar run would, so the f64 accumulation order
    /// matches. The differential tests in `tests/lockstep_conformance.rs`
    /// pin this across every lane count.
    ///
    /// Returns `None` when the block detects lockstep divergence (data-
    /// dependent control flow or timing); the caller must then fall back
    /// to the scalar path for these indices. No simulator runs are
    /// counted for a diverged group.
    ///
    /// `scratches` and `traces` must each hold at least `count` entries;
    /// `traces[0..count]` are cleared and filled.
    ///
    /// # Panics
    ///
    /// Panics if `count` is outside `1..=block.max_lanes()` or the
    /// buffers are shorter than `count`.
    #[allow(clippy::too_many_arguments)]
    pub fn synth_block_into<G, S, P>(
        &self,
        block: &mut CpuBlock,
        recorder: &mut PowerRecorder,
        scratches: &mut [SynthScratch],
        traces: &mut [Vec<f32>],
        entry: u32,
        base_index: usize,
        count: usize,
        clip: Option<(usize, usize)>,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Option<Vec<Vec<u8>>>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        assert!(count >= 1 && count <= block.max_lanes(), "bad lane count");
        // A block reports every run failure as divergence, so the body
        // has no error to return here.
        self.synth_lanes(
            block,
            recorder,
            scratches,
            traces,
            entry,
            base_index,
            count,
            clip,
            (generate, stage, post),
        )
        .ok()
        .flatten()
    }

    /// The single-channel per-execution body behind both entry points:
    /// synthesizes traces `base..base + count`, lane `l` carrying trace
    /// `base + l`. Returns the lanes' inputs, or `None` on lockstep
    /// divergence.
    #[allow(clippy::too_many_arguments)]
    fn synth_lanes<L, G, S, P>(
        &self,
        lanes: &mut L,
        recorder: &mut PowerRecorder,
        scratches: &mut [SynthScratch],
        traces: &mut [Vec<f32>],
        entry: u32,
        base: usize,
        count: usize,
        clip: Option<(usize, usize)>,
        (generate, stage, post): (&G, &S, &P),
    ) -> Result<Option<Vec<Vec<u8>>>, UarchError>
    where
        L: Lanes<PowerRecorder>,
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        assert!(scratches.len() >= count && traces.len() >= count);
        let mut rngs: Vec<StdRng> = (0..count)
            .map(|l| StdRng::seed_from_u64(child_seed(self.config.seed, (base + l) as u64)))
            .collect();
        let inputs: Vec<Vec<u8>> = rngs
            .iter_mut()
            .enumerate()
            .map(|(l, rng)| generate(rng, base + l))
            .collect();
        let executions = self.config.executions_per_trace.max(1);
        let mut noise = self.config.noise;
        for scratch in &mut scratches[..count] {
            scratch.accum.clear();
        }
        let keep = clip.unwrap_or((0, usize::MAX));
        let mut seeds = [0u64; sca_uarch::MAX_LANES];
        for execution in 0..executions {
            for (l, seed) in seeds[..count].iter_mut().enumerate() {
                *seed = child_seed(
                    self.config.seed ^ 0x5eed_0f0d_e500,
                    ((base + l) as u64) << 8 | execution as u64,
                );
            }
            lanes.restart(entry, &seeds[..count]);
            for (l, input) in inputs.iter().enumerate() {
                stage(lanes.lane_mut(l), input);
            }
            recorder.reset();
            if !lanes.execute(recorder)? {
                return Ok(None);
            }
            simulator_runs_counter().add(count as u64);
            for (l, (scratch, rng)) in scratches.iter_mut().zip(&mut rngs).enumerate() {
                let SynthScratch {
                    accum,
                    samples,
                    windowed,
                } = scratch;
                let series = recorder.lane_window(l, windowed);
                self.config
                    .sampling
                    .expand_into_clipped(series, samples, keep);
                noise.add_to_clipped(rng, samples, keep);
                post(rng, samples);
                if accum.is_empty() {
                    accum.extend_from_slice(samples);
                } else {
                    crate::vecops::add_assign(accum, samples);
                }
            }
        }
        let inv = 1.0 / executions as f64;
        for (trace, scratch) in traces.iter_mut().zip(&scratches[..count]) {
            trace.clear();
            crate::vecops::scaled_narrow_extend(trace, &scratch.accum, inv);
        }
        Ok(Some(inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_isa::{assemble, Reg};
    use sca_uarch::UarchConfig;

    fn fixture() -> (Cpu, u32) {
        // A benchmark that loads a word (driving the MDR) inside a trigger
        // window; the loaded value is the staged input. As in the paper,
        // nops pad the window so in-flight activity (the load completes 3
        // cycles after issue) lands before the trigger falls.
        let program = assemble(
            "
            trig #1
            ldr r1, [r10]
            nop
            nop
            nop
            nop
            nop
            nop
            trig #0
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        cpu.set_reg(Reg::R10, 0x800);
        (cpu, program.entry())
    }

    fn stage(cpu: &mut Cpu, input: &[u8]) {
        let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
        cpu.mem_mut().write_u32(0x800, word).unwrap();
    }

    #[test]
    fn acquisition_is_deterministic() {
        let (cpu, entry) = fixture();
        let config = AcquisitionConfig {
            traces: 6,
            executions_per_trace: 4,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 1.0,
                baseline: 0.0,
            },
            seed: 99,
            threads: 1,
        };
        let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
        let gen = |rng: &mut StdRng, _| {
            use rand::Rng;
            rng.gen::<u32>().to_le_bytes().to_vec()
        };
        let a = synth.acquire(&cpu, entry, gen, stage).unwrap();
        let b = synth.acquire(&cpu, entry, gen, stage).unwrap();
        assert_eq!(a.len(), 6);
        for i in 0..a.len() {
            assert_eq!(a.trace(i), b.trace(i));
            assert_eq!(a.input(i), b.input(i));
        }
    }

    #[test]
    fn threading_does_not_change_results() {
        let (cpu, entry) = fixture();
        let make = |threads| {
            let config = AcquisitionConfig {
                traces: 9,
                executions_per_trace: 2,
                sampling: SamplingConfig::per_cycle(),
                noise: GaussianNoise {
                    sd: 0.5,
                    baseline: 1.0,
                },
                seed: 1234,
                threads,
            };
            let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
            synth
                .acquire(
                    &cpu,
                    entry,
                    |rng: &mut StdRng, _| {
                        use rand::Rng;
                        rng.gen::<u32>().to_le_bytes().to_vec()
                    },
                    stage,
                )
                .unwrap()
        };
        let serial = make(1);
        let parallel = make(4);
        assert_eq!(serial.len(), parallel.len());
        for i in 0..serial.len() {
            assert_eq!(serial.trace(i), parallel.trace(i), "trace {i}");
            assert_eq!(serial.input(i), parallel.input(i), "input {i}");
        }
    }

    #[test]
    fn input_for_matches_acquired_inputs_without_simulating() {
        let (cpu, entry) = fixture();
        let config = AcquisitionConfig {
            traces: 5,
            executions_per_trace: 2,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 1.0,
                baseline: 0.0,
            },
            seed: 77,
            threads: 1,
        };
        let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
        let gen = |rng: &mut StdRng, _| {
            use rand::Rng;
            rng.gen::<u32>().to_le_bytes().to_vec()
        };
        let set = synth.acquire(&cpu, entry, gen, stage).unwrap();
        for i in 0..set.len() {
            assert_eq!(synth.input_for(i, &gen), set.input(i), "trace {i}");
        }
        // Exact simulator-run-counter assertions live in the dedicated
        // single-test binary `tests/sim_counter.rs` (the counter is
        // process-global, so parallel unit tests would race it).
    }

    #[test]
    fn averaging_reduces_noise() {
        let (cpu, entry) = fixture();
        let acquire_with_avg = |executions| {
            let config = AcquisitionConfig {
                traces: 40,
                executions_per_trace: executions,
                sampling: SamplingConfig::per_cycle(),
                noise: GaussianNoise {
                    sd: 8.0,
                    baseline: 0.0,
                },
                seed: 7,
                threads: 1,
            };
            let synth = TraceSynthesizer::new(LeakageWeights::zero(), config);
            synth
                .acquire(&cpu, entry, |_, _| vec![0, 0, 0, 0], stage)
                .unwrap()
        };
        // With zero leakage weights and a fixed input, traces are pure
        // noise; their variance should shrink with averaging.
        let variance = |set: &TraceSet| {
            let mut acc = 0.0f64;
            let mut n = 0usize;
            for i in 0..set.len() {
                for &s in set.trace(i) {
                    acc += f64::from(s) * f64::from(s);
                    n += 1;
                }
            }
            acc / n as f64
        };
        let raw = variance(&acquire_with_avg(1));
        let averaged = variance(&acquire_with_avg(16));
        assert!(averaged < raw / 8.0, "raw {raw} averaged {averaged}");
    }

    #[test]
    fn signal_survives_averaging() {
        let (cpu, entry) = fixture();
        let config = AcquisitionConfig {
            traces: 2,
            executions_per_trace: 8,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise::none(),
            seed: 3,
            threads: 1,
        };
        let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
        // Two fixed, different inputs: all-zeros vs all-ones word.
        let set = synth
            .acquire(
                &cpu,
                entry,
                |_, t| {
                    if t % 2 == 0 {
                        vec![0, 0, 0, 0]
                    } else {
                        vec![0xff; 4]
                    }
                },
                stage,
            )
            .unwrap();
        let e0: f32 = set.trace(0).iter().sum();
        let e1: f32 = set.trace(1).iter().sum();
        assert!(
            e1 > e0 + 1.0,
            "loading 0xffffffff must consume more modeled power: {e0} vs {e1}"
        );
    }
}
