//! # sca-power — leakage modeling and trace synthesis
//!
//! Converts the microarchitectural activity streamed by `sca-uarch` into
//! synthetic power traces, following the leakage hypothesis of Barenghi &
//! Pelosi (DAC 2018, Section 4): power is the weighted Hamming
//! distance/weight of value transitions on pipeline buffers, measured
//! through a band-limited sampling chain with Gaussian noise, acquired as
//! averages of 16 executions per input.
//!
//! * [`LeakageWeights`] — per-component weights (register file silent,
//!   shifter at 1/10, etc.);
//! * [`PowerRecorder`] — a pipeline observer integrating per-cycle power
//!   (per lane, for lockstep runs) inside a trigger-relative cycle gate;
//! * [`SamplingConfig`] — 500 MS/s-style cycle→sample expansion;
//! * [`GaussianNoise`]/[`NoiseSource`] — measurement and environment noise;
//! * [`TraceSynthesizer`]/[`AcquisitionConfig`] — deterministic,
//!   optionally multi-threaded campaign runner producing [`TraceSet`]s;
//! * [`ComponentSynthesizer`] — one averaged sub-trace per pipeline
//!   component, for the per-component characterizations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod component;
mod io;
mod model;
mod noise;
mod recorder;
mod sampling;
mod synth;
mod trace;
#[doc(hidden)]
pub mod vecops;

pub use component::{ComponentScratch, ComponentSynthesizer};
pub use io::{read_traces, write_traces};
pub use model::LeakageWeights;
pub use noise::{GaussianNoise, NoiseSource};
pub use recorder::{ComponentPowerRecorder, PowerRecorder};
pub use sampling::{cycle_window_to_samples, SamplingConfig};
pub use synth::{simulator_runs, AcquisitionConfig, SampleWindow, SynthScratch, TraceSynthesizer};
pub use trace::TraceSet;
