//! The corpus half of `corpus-lint`: set-up simulates a stored corpus
//! for every (target, HW CPA / HD CPA / TVLA) pair; a timed pass re-runs
//! the analyses by streaming those corpora, with zero simulation. The
//! store read path (buffer pool, page checksums) and the analysis
//! accumulators do the work. Each corpus is larger than the store's
//! buffer pool, so pool policy shows.

use std::path::{Path, PathBuf};

use sca_campaign::KillPoint;
use sca_store::{StoreError, TraceStore};
use sca_target::{
    portfolio, reanalyze_cpa, reanalyze_tvla, store_dir_name, CipherTarget, TargetCampaign,
    TargetCampaignConfig, TargetStoreConfig,
};
use sca_uarch::UarchConfig;

use super::{bench_noise, ratio, BenchResult, Sizes};
use crate::metrics::Layers;
use crate::trace::{Tracer, Work};

/// One stored corpus and the verdict line its stored run produced.
#[derive(Clone, Debug)]
pub(crate) struct Corpus {
    /// The store directory.
    pub dir: PathBuf,
    target: usize,
    /// `None` for the TVLA corpus, else the model index.
    model: Option<usize>,
    /// The stored run's verdict line.
    pub line: String,
    /// Traces stored.
    pub traces: u64,
}

// The verdict lines a stored run and its re-analysis both print. The
// figures behind them are not compared bit for bit: a stored run folds
// per-segment accumulators while a re-analysis absorbs traces in one
// stream, so the last bits of a correlation may differ.
fn cpa_line(name: &str, v: &sca_target::CpaVerdict) -> String {
    format!("[{name}] {}", v.verdict())
}

fn tvla_line(name: &str, v: &sca_target::TvlaVerdict) -> String {
    format!(
        "[{name}] TVLA fixed-vs-random: {} counts={}/{}",
        if v.leaks { "LEAKS" } else { "clean" },
        v.counts.0,
        v.counts.1
    )
}

/// Simulates every corpus under `root`.
pub(crate) fn build(sizes: &Sizes, seed: u64, root: &Path) -> BenchResult<Vec<Corpus>> {
    let uarch = UarchConfig::cortex_a7();
    let store = TargetStoreConfig {
        root: root.to_path_buf(),
        checkpoint_every: sizes.corpus_checkpoint,
        resume: false,
        kill: KillPoint::None,
    };
    let mut corpora = Vec::new();
    for (i, target) in portfolio().iter().enumerate() {
        let target: &dyn CipherTarget = target.as_ref();
        let name = target.name();
        let salt = i as u64 + 1;
        let campaign = TargetCampaign::new(
            target,
            &uarch,
            TargetCampaignConfig {
                traces: sizes.corpus_traces,
                executions_per_trace: sizes.corpus_executions,
                seed: seed ^ (salt << 24),
                threads: sizes.threads,
                batch: sca_campaign::DEFAULT_BATCH,
                lanes: sca_campaign::DEFAULT_LANES,
                noise: bench_noise(),
            },
        )?;
        for (m, model) in target.models().iter().enumerate() {
            let (verdict, _) = campaign.cpa_stored(model, &store)?;
            corpora.push(Corpus {
                dir: root.join(store_dir_name(name, &model.name)),
                target: i,
                model: Some(m),
                line: cpa_line(name, &verdict),
                traces: sizes.corpus_traces as u64,
            });
        }
        let (verdict, _) = campaign.tvla_stored(&store)?;
        corpora.push(Corpus {
            dir: root.join(store_dir_name(name, "tvla")),
            target: i,
            model: None,
            line: tvla_line(name, &verdict),
            traces: sizes.corpus_traces as u64,
        });
    }
    Ok(corpora)
}

/// Re-analyzes one corpus, returning its verdict line.
pub(crate) fn reanalyze(corpus: &Corpus, targets: &[Box<dyn CipherTarget>]) -> BenchResult<String> {
    let target = targets[corpus.target].as_ref();
    Ok(match corpus.model {
        Some(m) => cpa_line(
            target.name(),
            &reanalyze_cpa(&corpus.dir, &target.models()[m])?,
        ),
        None => tvla_line(target.name(), &reanalyze_tvla(&corpus.dir, target)?),
    })
}

/// Fills the store read-side and analysis layers: `work` is the delta
/// of the timed passes (`n` of them), `mark` the tracer mark taken
/// before them. Then times a store-only pass, streaming every corpus
/// into a no-op visitor.
///
/// # Errors
///
/// Store I/O.
pub(crate) fn read_layers(
    layers: &mut Layers,
    tracer: &Tracer,
    corpora: &[Corpus],
    work: &Work,
    n: f64,
    mark: usize,
) -> BenchResult<()> {
    let hits = work.counter("store/page_hits") as f64 / n;
    let misses = work.counter("store/page_misses") as f64 / n;
    layers.set("store.page_hits", hits);
    layers.set("store.page_misses", misses);
    layers.set(
        "store.page_evictions",
        work.counter("store/page_evictions") as f64 / n,
    );
    layers.set("store.pool_hit_ratio", ratio(hits, hits + misses));
    let reanalyze_s = tracer.total("reanalyze", mark) / n;
    let stream_mark = tracer.mark();
    let stream_passes = 3;
    for _ in 0..stream_passes {
        for corpus in corpora {
            let _span = tracer.span("stream");
            let store = TraceStore::open_any(&corpus.dir)?;
            let total = store.meta().total_traces;
            store.stream(0..total, |_, input, samples| {
                std::hint::black_box((input, samples));
                Ok::<(), StoreError>(())
            })?;
        }
    }
    let stream_s = tracer.total("stream", stream_mark) / f64::from(stream_passes);
    layers.set("store.stream_s", stream_s);
    layers.set("analysis.reanalyze_s", reanalyze_s);
    layers.set(
        "analysis.absorb_share",
        ratio(reanalyze_s - stream_s, reanalyze_s),
    );
    Ok(())
}
