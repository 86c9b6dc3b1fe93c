//! Metric names, units and the result line.
//!
//! Every workload reports every metric listed here (the end-to-end set
//! untraced, the per-layer set traced); a per-layer metric whose layer a
//! workload does not exercise reads 0.

use std::collections::BTreeMap;

use crate::stats::{median, percentile};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Operations that must lie beyond the percentile reported as
/// `latency_tail_s`.
pub const TAIL_BEYOND: f64 = 10.0;

/// The percentile reported as `latency_tail_s` for `n` operations: the
/// highest with [`TAIL_BEYOND`] operations beyond it (at least the
/// median, for runs too short to have that many).
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    (100.0 * (1.0 - TAIL_BEYOND / n as f64)).max(50.0)
}

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("uarch.sim_runs", "count"),
    ("uarch.l1i_accesses", "count"),
    ("uarch.l1d_accesses", "count"),
    ("uarch.ns_per_sim_run", "ns"),
    ("uarch.lockstep_share", "ratio"),
    ("uarch.blocks_poisoned", "count"),
    ("campaign.simulate_s", "s"),
    ("campaign.absorb_s", "s"),
    ("campaign.probe_s", "s"),
    ("campaign.batches", "count"),
    ("target.cpa_s", "s"),
    ("target.tvla_s", "s"),
    ("target.charz_s", "s"),
    ("core.audit_s", "s"),
    ("store.stream_s", "s"),
    ("analysis.reanalyze_s", "s"),
    ("analysis.absorb_share", "ratio"),
    ("store.page_hits", "count"),
    ("store.page_misses", "count"),
    ("store.page_evictions", "count"),
    ("store.pool_hit_ratio", "ratio"),
    ("store.slots_written", "count"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.fsyncs", "count"),
    ("store.wal_fsyncs", "count"),
    ("server.queue_wait_s", "s"),
    ("server.service_s", "s"),
    ("server.coalesced", "count"),
    ("server.store_served", "count"),
    ("server.dedup_ratio", "ratio"),
    ("server.sim_runs_per_job", "count"),
    ("server.slices", "count"),
    ("server.queue_peak", "count"),
    ("sched.harden_s", "s"),
    ("sched.scrubs_inserted", "count"),
    ("lint.lint_s", "s"),
    ("lint.diagnostics", "count"),
    ("telemetry.overhead_s", "s"),
];

/// Per-layer values by name (every name must be in [`PER_LAYER`]).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`] — a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A metric's value (0 when unset).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// One repetition of a workload's unit of work (a portfolio pass, a
/// corpus-lint pass, a tenant-mix cycle).
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Host seconds.
    pub seconds: f64,
    /// Operations completed.
    pub jobs: u64,
    /// Work delivered (traces).
    pub work: u64,
}

/// One timed operation of the timed phase.
#[derive(Clone, Debug)]
pub struct Latency {
    /// The operation's kind: operations of one kind do the same work
    /// (the same analysis of the same target, the same request slot of
    /// the same round, the same program).
    pub kind: String,
    /// Host seconds.
    pub seconds: f64,
}

/// Correctness bookkeeping: every checked operation counts as attempted;
/// a mismatch, error or rejection counts as failed.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checker {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Correctness checks.
    pub checks: Checker,
    /// Seconds of each set-up repetition.
    pub setup: Vec<f64>,
    /// The timed phase, one entry per unit of work.
    pub passes: Vec<Pass>,
    /// Host latency of every operation in the timed phase.
    pub latencies: Vec<Latency>,
    /// Per-layer metrics (traced runs only), normalized per pass.
    pub layers: Layers,
}

impl Outcome {
    /// Median seconds per pass.
    #[must_use]
    pub fn pass_seconds(&self) -> f64 {
        median(&self.passes.iter().map(|p| p.seconds).collect::<Vec<_>>())
    }

    /// Every operation's latency replaced by the mean latency of its
    /// kind over the timed phase, in operation order.
    #[must_use]
    pub fn kind_mean_latencies(&self) -> Vec<f64> {
        let mut sums: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for op in &self.latencies {
            let entry = sums.entry(op.kind.as_str()).or_default();
            entry.0 += op.seconds;
            entry.1 += 1;
        }
        self.latencies
            .iter()
            .map(|op| {
                let (sum, count) = sums[op.kind.as_str()];
                sum / count as f64
            })
            .collect()
    }

    /// The number of operation kinds timed.
    #[must_use]
    pub fn latency_kinds(&self) -> usize {
        let mut kinds: Vec<&str> = self.latencies.iter().map(|op| op.kind.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds.len()
    }

    /// The end-to-end figures, in [`END_TO_END`] order.
    ///
    /// Throughputs are totals over the whole timed phase. The host's
    /// speed switches between a quiet and a contended state several
    /// times a second; a per-pass median jumps between the two as their
    /// shares drift around one half, while the total moves in proportion
    /// to the shares. Latency quantiles rank operations by the mean
    /// latency of their kind ([`Outcome::kind_mean_latencies`]) for the
    /// same reason: a single operation's latency records which state
    /// the host was in, and a quantile of those jumps between states.
    #[must_use]
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, &'static str, f64)> {
        let seconds: f64 = self.passes.iter().map(|p| p.seconds).sum();
        let total = |count: fn(&Pass) -> u64| {
            let n: u64 = self.passes.iter().map(count).sum();
            if seconds > 0.0 {
                n as f64 / seconds
            } else {
                0.0
            }
        };
        let latencies = self.kind_mean_latencies();
        let values = [
            median(&self.setup),
            total(|p| p.work),
            total(|p| p.jobs),
            percentile(&latencies, 50.0).0,
            percentile(&latencies, tail_percentile(latencies.len())).0,
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    }
}

impl Outcome {
    /// The per-layer figures, in [`PER_LAYER`] order.
    #[must_use]
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, self.layers.get(name)))
            .collect()
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` prints the shortest round-tripping form: all digits.
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_line(checks: &Checker, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    // A run that verified nothing is reported as one failed operation.
    let (attempted, failed) = if checks.attempted == 0 {
        (1, 1)
    } else {
        (checks.attempted, checks.failed)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_means_replace_each_latency() {
        let op = |kind: &str, seconds: f64| Latency {
            kind: kind.to_owned(),
            seconds,
        };
        let outcome = Outcome {
            latencies: vec![op("a", 1.0), op("b", 10.0), op("a", 3.0), op("b", 30.0)],
            ..Outcome::default()
        };
        assert_eq!(outcome.kind_mean_latencies(), [2.0, 20.0, 2.0, 20.0]);
        assert_eq!(outcome.latency_kinds(), 2);
    }

    #[test]
    fn the_tail_leaves_ten_operations_beyond_it() {
        assert!((tail_percentile(300) - 100.0 * 29.0 / 30.0).abs() < 1e-9);
        assert!((tail_percentile(1000) - 99.0).abs() < 1e-9);
        assert_eq!(tail_percentile(12), 50.0);
        for n in 20..2000 {
            let values: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(
                percentile(&values, tail_percentile(n as usize)).1,
                10,
                "{n}"
            );
        }
    }
}
