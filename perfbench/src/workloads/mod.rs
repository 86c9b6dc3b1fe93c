//! The three workloads. Each runs a set-up phase (repeated, so its
//! median is reported), then whole passes of a fixed composition until
//! the requested seconds have elapsed, then checks every output.

use std::path::PathBuf;

use sca_power::GaussianNoise;

use crate::metrics::Layers;
use crate::trace::{Tracer, Work};

pub mod corpus_lint;
pub mod corpus_reanalyze;
pub mod lint_triage;
pub mod portfolio_live;
pub mod tenant_mix;

/// Result type of the workload runners.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's full method on every target, no store.
    PortfolioLive,
    /// Re-analysis of a stored corpus plus a scheduler hardening sweep
    /// and static lint (zero simulation).
    CorpusLint,
    /// An in-process campaign server under a closed-loop tenant mix.
    TenantMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PortfolioLive,
        Workload::CorpusLint,
        Workload::TenantMix,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PortfolioLive => "portfolio-live",
            Workload::CorpusLint => "corpus-lint",
            Workload::TenantMix => "tenant-mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. All load is sized for a two-core host: campaign
/// threads ≤ 2, server `workers × threads_per_slice` ≤ 2, and one
/// request-generator thread.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Campaign engine threads.
    pub threads: usize,
    /// Set-up repetitions (the median is reported); at least 1.
    pub setup_reps: usize,
    /// corpus-lint: set-up repetitions (each simulates the corpus).
    pub corpus_builds: usize,
    /// portfolio-live: traces per CPA / TVLA campaign.
    pub live_traces: usize,
    /// portfolio-live: executions averaged per trace.
    pub live_executions: usize,
    /// portfolio-live: traces per Table-2 characterization.
    pub charz_traces: usize,
    /// portfolio-live: executions of the node audit.
    pub audit_executions: usize,
    /// corpus-lint: traces per stored corpus.
    pub corpus_traces: usize,
    /// corpus-lint: executions averaged per trace.
    pub corpus_executions: usize,
    /// corpus-lint: traces per checkpoint segment.
    pub corpus_checkpoint: u64,
    /// tenant-mix: traces per spec.
    pub tenant_traces: u64,
    /// tenant-mix: executions averaged per trace.
    pub tenant_executions: u64,
    /// tenant-mix: traces per server slice and checkpoint segment.
    pub tenant_slice: u64,
    /// corpus-lint: the sweep covers `min_distance` 1..=this.
    pub lint_max_distance: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    #[must_use]
    pub fn standard() -> Sizes {
        Sizes {
            threads: 2,
            setup_reps: 25,
            corpus_builds: 3,
            live_traces: 64,
            live_executions: 2,
            charz_traces: 64,
            audit_executions: 48,
            corpus_traces: 128,
            corpus_executions: 1,
            corpus_checkpoint: 64,
            tenant_traces: 64,
            tenant_executions: 2,
            tenant_slice: 32,
            lint_max_distance: 4,
        }
    }

    /// Tiny sizes for the benchmark's own tests.
    #[must_use]
    pub fn tiny() -> Sizes {
        Sizes {
            threads: 2,
            setup_reps: 1,
            corpus_builds: 1,
            live_traces: 8,
            live_executions: 1,
            charz_traces: 8,
            audit_executions: 8,
            corpus_traces: 8,
            corpus_executions: 1,
            corpus_checkpoint: 4,
            tenant_traces: 8,
            tenant_executions: 1,
            tenant_slice: 4,
            lint_max_distance: 2,
        }
    }
}

/// What a workload runner gets.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The workload seed.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Problem sizes.
    pub sizes: Sizes,
    /// The benchmark's span recorder.
    pub tracer: &'a Tracer,
    /// Scratch directory (inside the checkout), removed afterwards.
    pub work_dir: PathBuf,
}

/// The measurement noise of the live and corpus campaigns.
#[must_use]
pub(crate) fn bench_noise() -> GaussianNoise {
    GaussianNoise::bare_metal()
}

/// Fills the simulator and campaign-engine layers from a work delta,
/// divided by `per` (the number of passes it covers).
pub(crate) fn simulation_layers(layers: &mut Layers, work: &Work, per: f64) {
    let sim_runs = work.counter("power/simulator_runs");
    let simulated = work.counter("campaign/traces_simulated");
    let simulate_s = work.leaf_seconds("simulate");
    layers.set("uarch.sim_runs", sim_runs as f64 / per);
    layers.set(
        "uarch.l1i_accesses",
        work.counter("uarch/l1i/accesses") as f64 / per,
    );
    layers.set(
        "uarch.l1d_accesses",
        work.counter("uarch/l1d/accesses") as f64 / per,
    );
    layers.set(
        "uarch.ns_per_sim_run",
        ratio(simulate_s * 1e9, sim_runs as f64),
    );
    layers.set(
        "uarch.lockstep_share",
        ratio(
            work.counter("campaign/lockstep_traces") as f64,
            simulated as f64,
        ),
    );
    layers.set(
        "uarch.blocks_poisoned",
        work.counter("campaign/blocks_poisoned") as f64 / per,
    );
    layers.set("campaign.simulate_s", simulate_s / per);
    layers.set("campaign.absorb_s", work.leaf_seconds("absorb") / per);
    layers.set("campaign.probe_s", work.leaf_seconds("probe") / per);
    layers.set(
        "campaign.batches",
        work.counter("campaign/batches") as f64 / per,
    );
}

/// Fills the store write-side layers from a work delta, divided by
/// `per`.
pub(crate) fn store_write_layers(layers: &mut Layers, work: &Work, per: f64) {
    for (name, counter) in [
        ("store.slots_written", "store/slots_written"),
        ("store.checkpoint_bytes", "store/checkpoint_bytes"),
        ("store.fsyncs", "store/fsyncs"),
        ("store.wal_fsyncs", "store/wal_fsyncs"),
    ] {
        layers.set(name, work.counter(counter) as f64 / per);
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
