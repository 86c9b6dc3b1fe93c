//! The traced run's exporter.
//!
//! Two sources are combined:
//!
//! * the benchmark's own spans ([`Tracer::span`]) around every call into
//!   a layer — kept in memory as exact `(start, end, parent)` intervals,
//!   so a span's *self time* is its duration minus the union of its
//!   children's intervals;
//! * what the program already exports through `sca_telemetry`: the
//!   process-global counters and span tree, read as before/after deltas
//!   ([`Probe`]). The program's own worker spans (`simulate`, `absorb`,
//!   `probe`, …) nest under the benchmark span that was open when the
//!   work was handed out; they are aggregated sums over worker threads
//!   (thread-seconds), not intervals.
//!
//! The campaign server's private registry is read through its
//! [`sca_server::ServerStats`] by the tenant-mix workload.
//!
//! Both span sources are gated by `SCA_TELEMETRY`: the untraced run
//! records nothing but the counters, which the program keeps always on.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use sca_telemetry::Snapshot;

/// One closed benchmark span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// `/`-joined path of benchmark span names.
    pub path: String,
    /// Index of the enclosing benchmark span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created (`NaN` while open).
    pub end: f64,
}

impl SpanRecord {
    /// Wall-clock duration.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder for the benchmark's own spans (single
/// thread: the one running the workload).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    records: RefCell<Vec<SpanRecord>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
    // Keeps the program's span stack in step, so worker spans graft
    // under this span.
    _telemetry: sca_telemetry::Span,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.origin.elapsed().as_secs_f64();
            self.tracer.records.borrow_mut()[index].end = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A recorder; `on = false` makes every span a no-op.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            records: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` under the innermost open span.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let telemetry = sca_telemetry::span(name);
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
                _telemetry: telemetry,
            };
        }
        let mut records = self.records.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let parent = stack.last().copied();
        let path = match parent {
            Some(p) => format!("{}/{name}", records[p].path),
            None => name.to_owned(),
        };
        let index = records.len();
        records.push(SpanRecord {
            path,
            parent,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        stack.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
            _telemetry: telemetry,
        }
    }

    /// A copy of the closed spans so far.
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records
            .borrow()
            .iter()
            .filter(|r| r.end.is_finite())
            .cloned()
            .collect()
    }

    /// Summed duration of the closed spans whose last path component is
    /// `name`, restricted to spans that started at or after `since`
    /// (an index into [`Tracer::records`]).
    #[must_use]
    pub fn total(&self, name: &str, since: usize) -> f64 {
        self.records.borrow()[since..]
            .iter()
            .filter(|r| r.end.is_finite() && leaf(&r.path) == name)
            .map(SpanRecord::seconds)
            .sum()
    }

    /// Number of spans recorded so far (a mark for [`Tracer::total`]).
    #[must_use]
    pub fn mark(&self) -> usize {
        self.records.borrow().len()
    }
}

fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Self time of every closed span: duration minus the union of its
/// children's intervals.
#[must_use]
fn self_times(records: &[SpanRecord]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); records.len()];
    for record in records {
        if let Some(parent) = record.parent.filter(|&p| p < records.len()) {
            children[parent].push((record.start, record.end));
        }
    }
    records
        .iter()
        .zip(children)
        .map(|(record, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = record.start;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(record.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (record.seconds() - covered).max(0.0)
        })
        .collect()
}

/// Renders the benchmark span tree — one line per path with count,
/// total and self seconds — for stderr.
#[must_use]
pub fn render_tree(records: &[SpanRecord]) -> String {
    let selfs = self_times(records);
    let mut by_path: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (record, own) in records.iter().zip(selfs) {
        let entry = by_path.entry(&record.path).or_default();
        entry.0 += 1;
        entry.1 += record.seconds();
        entry.2 += own;
    }
    let mut out = String::from("benchmark spans: path  count  total_s  self_s\n");
    for (path, (count, total, own)) in by_path {
        out.push_str(&format!("  {path}  {count}  {total:.6}  {own:.6}\n"));
    }
    out
}

/// Before/after reader of the process-global telemetry registry.
#[derive(Debug)]
pub(crate) struct Probe {
    before: Snapshot,
}

/// What happened between a [`Probe`]'s start and finish.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Work {
    counters: BTreeMap<String, u64>,
    leaves: BTreeMap<String, f64>,
}

impl Probe {
    /// Snapshots the registry now.
    #[must_use]
    pub fn start() -> Probe {
        Probe {
            before: sca_telemetry::global().snapshot(),
        }
    }

    /// The counter deltas and span-time deltas (summed by the span
    /// path's last component) since [`Probe::start`].
    #[must_use]
    pub fn finish(&self) -> Work {
        let after = sca_telemetry::global().snapshot();
        let counters = after
            .counters
            .iter()
            .map(|(name, _)| (name.clone(), after.counter_delta(&self.before, name)))
            .filter(|(_, delta)| *delta > 0)
            .collect();
        let mut leaves = BTreeMap::new();
        for (path, stat) in &after.spans {
            let earlier = self.before.span(path).map_or(0.0, |s| s.seconds);
            let delta = stat.seconds - earlier;
            if delta > 0.0 {
                *leaves.entry(leaf(path).to_owned()).or_insert(0.0) += delta;
            }
        }
        Work { counters, leaves }
    }
}

impl Work {
    /// A counter's delta (0 when it did not move).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Thread-seconds under program spans named `leaf`.
    #[must_use]
    pub fn leaf_seconds(&self, leaf: &str) -> f64 {
        self.leaves.get(leaf).copied().unwrap_or(0.0)
    }

    /// Adds another delta in.
    pub fn absorb(&mut self, other: &Work) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.leaves {
            *self.leaves.entry(name.clone()).or_insert(0.0) += value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(parent: Option<usize>, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            path: "x".to_owned(),
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let records = vec![
            record(None, 0.0, 10.0),
            record(Some(0), 1.0, 4.0),
            // Overlaps the first child: counted once.
            record(Some(0), 3.0, 5.0),
            record(Some(0), 8.0, 9.0),
            record(Some(3), 8.0, 8.5),
        ];
        let selfs = self_times(&records);
        assert!((selfs[0] - 5.0).abs() < 1e-12);
        assert!((selfs[1] - 3.0).abs() < 1e-12);
        assert!((selfs[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_total_by_leaf_name() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("pass");
            let _inner = tracer.span("cpa");
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].path, "pass/cpa");
        assert_eq!(records[1].parent, Some(0));
        assert!(tracer.total("cpa", 0) <= tracer.total("pass", 0));
    }
}
