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

use sca_uarch::{Core, Cpu, CpuBlock, Lane, LaneCount, UarchError};

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

/// The samples of each trace a synthesis call keeps, and how much of
/// each execution it may skip.
///
/// A trace's samples are counted from the start of the first
/// high-trigger window. A window with `gated` set is synthesized only
/// where it is kept: the recorder stores just the cycles whose pulses
/// reach the kept samples ([`SamplingConfig::cycle_gate`]), and only
/// the kept samples are expanded, noised and averaged (the noise RNG
/// still advances over every sample, so kept samples are bit-identical
/// to the whole-trace path). That is legal only when the post hook
/// ignores the samples — everything outside the window is discarded
/// unseen. Without `gated`, every execution is processed whole (the
/// post hook sees all of it) and cut to the window when averaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleWindow {
    /// First kept sample.
    pub start: usize,
    /// End (exclusive) of the kept samples; `usize::MAX` keeps the rest
    /// of the trace.
    pub end: usize,
    /// Whether synthesis may skip everything outside the window.
    pub gated: bool,
}

impl SampleWindow {
    /// The whole trace.
    pub const ALL: SampleWindow = SampleWindow {
        start: 0,
        end: usize::MAX,
        gated: false,
    };
}

/// Reusable per-worker scratch for the allocation-free synthesis path
/// ([`TraceSynthesizer::synth_into`]): the f64 accumulation buffer the
/// averaged executions sum into and the per-execution expanded-sample
/// buffer. A campaign worker owns one of these (inside its `SimArena`)
/// for its entire index range.
#[derive(Clone, Debug, Default)]
pub struct SynthScratch {
    /// Execution-summed power of the kept samples, in f64 (converted to
    /// f32 only at the end, exactly like the materializing path).
    accum: Vec<f64>,
    /// One execution's expanded (and noised) samples.
    samples: Vec<f64>,
    /// Gather buffer for one lane's gated per-cycle series.
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
        S: Fn(&mut Lane, &[u8]) + Sync,
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
        S: Fn(&mut Lane, &[u8]) + Sync,
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
        S: Fn(&mut Lane, &[u8]) + Sync,
    {
        let mut probe_cpu = cpu.clone();
        let mut rng = StdRng::seed_from_u64(child_seed(self.config.seed, u64::MAX));
        let input = generate(&mut rng, usize::MAX);
        probe_cpu.restart_seeded(entry, 0);
        stage(&mut probe_cpu, &input);
        // The probe needs only the window length, not its power.
        let mut recorder = PowerRecorder::new(self.weights.clone());
        recorder.set_gate(0, 0);
        probe_cpu.run(&mut recorder)?;
        simulator_runs_counter().inc();
        Ok(self.config.sampling.sample_count(recorder.window_cycles()))
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
        S: Fn(&mut Lane, &[u8]) + Sync,
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
            SampleWindow::ALL,
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
    /// `window` selects the samples `trace` keeps (see [`SampleWindow`]):
    /// with [`SampleWindow::ALL`] it holds the whole averaged trace;
    /// otherwise only samples `[window.start, window.end)`, cut short
    /// where the executions are. A gated window synthesizes nothing
    /// outside it, so pass one only when `post` ignores the samples
    /// (the windowed campaign engine passes a no-op post there; OS-noise
    /// jitter, which shifts samples into the window, needs an ungated
    /// one).
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
        window: SampleWindow,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<Vec<u8>, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let mut inputs = self.synth_lanes(
            cpu,
            recorder,
            std::slice::from_mut(scratch),
            std::slice::from_mut(trace),
            entry,
            index,
            1,
            window,
            (generate, stage, post),
        )?;
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
        window: SampleWindow,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Option<Vec<Vec<u8>>>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        assert!(count >= 1 && count <= block.max_lanes(), "bad lane count");
        self.synth_lanes(
            block,
            recorder,
            scratches,
            traces,
            entry,
            base_index,
            count,
            window,
            (generate, stage, post),
        )
        .ok()
    }

    /// The single-channel per-execution body behind both entry points:
    /// synthesizes traces `base..base + count` on `core`, lane `l`
    /// carrying trace `base + l`, keeping the samples of `window`.
    /// Returns the lanes' inputs, or the error the core stopped with.
    #[allow(clippy::too_many_arguments)]
    fn synth_lanes<const N: usize, G, S, P>(
        &self,
        core: &mut Core<N>,
        recorder: &mut PowerRecorder,
        scratches: &mut [SynthScratch],
        traces: &mut [Vec<f32>],
        entry: u32,
        base: usize,
        count: usize,
        window: SampleWindow,
        (generate, stage, post): (&G, &S, &P),
    ) -> Result<Vec<Vec<u8>>, <Core<N> as LaneCount>::Error>
    where
        Core<N>: LaneCount,
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Lane, &[u8]) + Sync,
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
        let sampling = &self.config.sampling;
        let mut noise = self.config.noise;
        let keep = (window.start, window.end.max(window.start));
        // A gated window records, expands and noises the kept samples
        // only; an ungated one processes each execution whole (samples
        // `from` 0) and keeps the window when averaging.
        let from = if window.gated { keep } else { (0, usize::MAX) };
        let gate = sampling.cycle_gate(from);
        recorder.set_gate(gate.0, gate.1);
        // Per lane: whether an execution has started the average. The
        // first execution with a nonempty trace sets the averaged length;
        // later ones add over the common prefix.
        let mut started = [false; sca_uarch::MAX_LANES];
        for scratch in &mut scratches[..count] {
            scratch.accum.clear();
        }
        let mut seeds = [0u64; sca_uarch::MAX_LANES];
        for execution in 0..executions {
            for (l, seed) in seeds[..count].iter_mut().enumerate() {
                *seed = child_seed(
                    self.config.seed ^ 0x5eed_0f0d_e500,
                    ((base + l) as u64) << 8 | execution as u64,
                );
            }
            core.restart_lanes(entry, &seeds[..count]);
            for (l, input) in inputs.iter().enumerate() {
                stage(core.lane_mut(l), input);
            }
            recorder.reset();
            core.run(recorder)?;
            simulator_runs_counter().add(count as u64);
            let cycles = recorder.window_cycles();
            let total = sampling.sample_count(cycles);
            for (l, (scratch, rng)) in scratches.iter_mut().zip(&mut rngs).enumerate() {
                let SynthScratch {
                    accum,
                    samples,
                    windowed,
                } = scratch;
                let rows = recorder.lane_window(l, windowed);
                sampling.expand_into_clipped(rows, gate.0, cycles, samples, from);
                noise.add_to_clipped(rng, samples, from.0, total);
                post(rng, samples);
                // `samples` holds trace samples `from.0..`; keep the
                // window's part of them.
                let len = if window.gated { total } else { samples.len() };
                let kept = &samples
                    [(keep.0 - from.0).min(samples.len())..(keep.1 - from.0).min(samples.len())];
                if started[l] {
                    crate::vecops::add_assign(accum, kept);
                } else {
                    accum.clear();
                    accum.extend_from_slice(kept);
                    started[l] = len > 0;
                }
            }
        }
        let inv = 1.0 / executions as f64;
        for (trace, scratch) in traces.iter_mut().zip(&scratches[..count]) {
            trace.clear();
            crate::vecops::scaled_narrow_extend(trace, &scratch.accum, inv);
        }
        Ok(inputs)
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

    fn stage(cpu: &mut Lane, input: &[u8]) {
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

    /// A gated window (recorder gate, window-only expansion and noise)
    /// equals the crop of the whole-trace path, and so does the
    /// ungated crop, bit for bit — scalar and lockstep alike.
    #[test]
    fn gated_windows_equal_the_cropped_whole_trace() {
        let (cpu, entry) = fixture();
        let config = AcquisitionConfig {
            traces: 1,
            executions_per_trace: 3,
            sampling: SamplingConfig::picoscope_500msps_120mhz(),
            noise: GaussianNoise {
                sd: 2.0,
                baseline: 1.0,
            },
            seed: 31,
            threads: 1,
        };
        let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
        let gen = |rng: &mut StdRng, _| {
            use rand::Rng;
            rng.gen::<u32>().to_le_bytes().to_vec()
        };
        let post = |_: &mut StdRng, _: &mut Vec<f64>| {};
        let mut recorder = PowerRecorder::new(synth.weights().clone());
        let mut block_recorder = PowerRecorder::with_lanes(synth.weights().clone(), 2);
        let mut scratch = SynthScratch::new();
        let mut scratches = vec![SynthScratch::new(); 2];
        let mut synth_one = |window: SampleWindow, index: usize| {
            let mut worker = cpu.clone();
            let mut trace = Vec::new();
            synth
                .synth_into(
                    &mut worker,
                    &mut recorder,
                    &mut scratch,
                    &mut trace,
                    entry,
                    index,
                    window,
                    &gen,
                    &stage,
                    &post,
                )
                .unwrap();
            trace
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for index in 0..2 {
            let whole = synth_one(SampleWindow::ALL, index);
            let n = whole.len();
            assert!(n > 20, "fixture window has {n} samples");
            for (start, end) in [(0, n), (1, 9), (7, 23), (n - 4, n + 6), (n + 1, n + 3)] {
                let want = &whole[start.min(n)..end.min(n)];
                for gated in [true, false] {
                    let window = SampleWindow { start, end, gated };
                    let got = synth_one(window, index);
                    assert_eq!(bits(&got), bits(want), "trace {index} {window:?}");
                }
            }
        }
        // The lockstep block keeps the same windows.
        let mut block = CpuBlock::from_template(&cpu, 2);
        let mut traces = vec![Vec::new(); 2];
        for (start, end) in [(1, 9), (7, 23)] {
            synth
                .synth_block_into(
                    &mut block,
                    &mut block_recorder,
                    &mut scratches,
                    &mut traces,
                    entry,
                    0,
                    2,
                    SampleWindow {
                        start,
                        end,
                        gated: true,
                    },
                    &gen,
                    &stage,
                    &post,
                )
                .expect("the fixture never diverges");
            for (index, trace) in traces.iter().enumerate() {
                let whole = synth_one(SampleWindow::ALL, index);
                assert_eq!(bits(trace), bits(&whole[start..end]), "lane {index}");
            }
        }
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
