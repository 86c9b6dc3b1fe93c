//! Turning pipeline activity into per-cycle power.

use sca_uarch::{BlockObserver, NodeEvent, NodeKind, PipelineObserver};

use crate::LeakageWeights;

/// The `[start, end)` cycle range of the first high-trigger window in a
/// `cycles`-long series: from the first rising edge to the first falling
/// edge at or after it (the series end when none follows). Falling edges
/// before the first rising edge are ignored; without any rising edge the
/// whole series is the window (bench code without `trig` instructions).
fn trigger_window(triggers: &[(u64, bool)], cycles: usize) -> (usize, usize) {
    let Some(start) = triggers
        .iter()
        .find(|(_, high)| *high)
        .map(|(c, _)| *c as usize)
    else {
        return (0, cycles);
    };
    let end = triggers
        .iter()
        .find(|(c, high)| !*high && *c as usize >= start)
        .map_or(cycles, |(c, _)| *c as usize)
        .min(cycles);
    (start.min(end), end)
}

/// An observer that integrates node switching activity into one
/// per-cycle power series per lane, and records trigger edges for
/// windowing.
///
/// As a [`PipelineObserver`] it records a scalar `Cpu` run into lane 0;
/// as a [`BlockObserver`] it records every lane of a lockstep
/// [`sca_uarch::CpuBlock`] run. Each lane's events arrive in the order a
/// scalar run of that lane emits them and accumulate into the same `f64`
/// per-cycle sums, so every lane is bit-identical to a one-lane
/// recording of it.
///
/// Storage is lane-major interleaved (`power[cycle * lanes + lane]`):
/// the lockstep block emits each cycle's events lane-by-lane, so the
/// writes of one cycle land on adjacent slots — this recorder sits on
/// the busiest observer path of the whole campaign engine.
#[derive(Clone, Debug)]
pub struct PowerRecorder {
    weights: LeakageWeights,
    lanes: usize,
    /// Lane-major interleaved per-cycle power.
    power: Vec<f64>,
    /// Cycles recorded so far (the stride count).
    cycles: usize,
    /// Shared `(cycle, level)` trigger edges in order.
    triggers: Vec<(u64, bool)>,
}

impl PowerRecorder {
    /// Creates a one-lane recorder with the given leakage weights.
    pub fn new(weights: LeakageWeights) -> PowerRecorder {
        PowerRecorder::with_lanes(weights, 1)
    }

    /// Creates a recorder for up to `lanes` lockstep lanes.
    pub fn with_lanes(weights: LeakageWeights, lanes: usize) -> PowerRecorder {
        PowerRecorder {
            weights,
            lanes: lanes.max(1),
            power: Vec::new(),
            cycles: 0,
            triggers: Vec::new(),
        }
    }

    /// The raw per-cycle power for the whole execution (lane-interleaved
    /// when the recorder has more than one lane).
    pub fn cycle_power(&self) -> &[f64] {
        &self.power
    }

    /// The per-cycle power inside the first high-trigger window.
    ///
    /// Returns the whole series when no trigger fired (bench code without
    /// `trig` instructions).
    ///
    /// # Panics
    ///
    /// Panics on a recorder with more than one lane; use
    /// [`PowerRecorder::windowed_power_into`] there.
    pub fn windowed_power(&self) -> &[f64] {
        assert_eq!(self.lanes, 1, "a multi-lane series is not contiguous");
        let (start, end) = self.window();
        &self.power[start..end]
    }

    /// Clears `out` and fills it with one lane's per-cycle power inside
    /// the first high-trigger window, reusing its capacity.
    pub fn windowed_power_into(&self, lane: usize, out: &mut Vec<f64>) {
        let (start, end) = self.window();
        out.clear();
        out.reserve(end - start);
        out.extend(
            self.power[start * self.lanes..end * self.lanes]
                .iter()
                .skip(lane)
                .step_by(self.lanes),
        );
    }

    /// One lane's windowed series: borrowed in place from a one-lane
    /// recorder, gathered into `buf` otherwise.
    pub(crate) fn lane_window<'a>(&'a self, lane: usize, buf: &'a mut Vec<f64>) -> &'a [f64] {
        if self.lanes == 1 {
            return self.windowed_power();
        }
        self.windowed_power_into(lane, buf);
        buf
    }

    fn window(&self) -> (usize, usize) {
        trigger_window(&self.triggers, self.cycles)
    }

    fn grow(&mut self, cycles: usize) {
        if self.cycles < cycles {
            self.power.resize(cycles * self.lanes, 0.0);
            self.cycles = cycles;
        }
    }

    /// Clears recorded data, keeping the weights and lane count (reuse
    /// across the averaged executions of one trace).
    pub fn reset(&mut self) {
        self.power.clear();
        self.cycles = 0;
        self.triggers.clear();
    }
}

impl PipelineObserver for PowerRecorder {
    fn begin_cycle(&mut self, cycle: u64) {
        self.grow(cycle as usize + 1);
    }

    fn node_event(&mut self, event: NodeEvent) {
        BlockObserver::node_event(self, 0, event);
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.triggers.push((cycle, high));
    }
}

impl BlockObserver for PowerRecorder {
    fn begin_cycle(&mut self, cycle: u64) {
        self.grow(cycle as usize + 1);
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        let idx = event.cycle as usize;
        self.grow(idx + 1);
        self.power[idx * self.lanes + lane] +=
            self.weights.power_of_kind(event.node.kind(), &event);
    }

    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let idx = first.cycle as usize;
        self.grow(idx + 1);
        // One kind/weight resolution for the whole batch; the per-lane
        // arithmetic below is exactly `power_of_kind`, so each lane's
        // slot receives the identical f64 the per-event path adds.
        let kind = first.node.kind();
        let whd = self.weights.hd(kind);
        let whw = self.weights.hw(kind);
        let base = idx * self.lanes;
        for (slot, event) in self.power[base..base + events.len()].iter_mut().zip(events) {
            *slot +=
                whd * f64::from(event.hamming_distance()) + whw * f64::from(event.hamming_weight());
        }
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.triggers.push((cycle, high));
    }
}

/// A recorder that keeps one power series *per component kind*, per
/// lane.
///
/// The paper attributes measured leakage to pipeline components
/// "following the common practice employed in EDA tools of ascribing the
/// power consumption of a signal to its driving circuit". The overall
/// probe signal superimposes all components (that is what the attacks
/// see), but the per-component characterization of Table 2 needs the
/// attribution; in simulation it is exact.
///
/// Like [`PowerRecorder`], it records a scalar run into lane 0 and a
/// lockstep run into every lane, each lane bit-identical to a one-lane
/// recording of it. Storage is one cycle-major series per lane
/// (`power[lane][cycle * COUNT + kind]`): the node events of one cycle
/// land on one cache line, and extracting a lane's components re-walks
/// only that lane's (L1-resident) buffer — an interleaved layout would
/// spread every extraction stride across `lanes` cache lines.
#[derive(Clone, Debug)]
pub struct ComponentPowerRecorder {
    weights: LeakageWeights,
    /// One cycle-major strided series (`cycles × NodeKind::COUNT`) per
    /// lane.
    power: Vec<Vec<f64>>,
    /// Cycles recorded so far (shared: growth extends every lane).
    cycles: usize,
    /// Shared `(cycle, level)` trigger edges in order.
    triggers: Vec<(u64, bool)>,
}

impl ComponentPowerRecorder {
    /// Creates a one-lane recorder with the given leakage weights.
    pub fn new(weights: LeakageWeights) -> ComponentPowerRecorder {
        ComponentPowerRecorder::with_lanes(weights, 1)
    }

    /// Creates a recorder for up to `lanes` lockstep lanes.
    pub fn with_lanes(weights: LeakageWeights, lanes: usize) -> ComponentPowerRecorder {
        ComponentPowerRecorder {
            weights,
            power: vec![Vec::new(); lanes.max(1)],
            cycles: 0,
            triggers: Vec::new(),
        }
    }

    /// Clears recorded data while keeping the weights, the lane count and
    /// the allocated capacity (reuse across the averaged executions of a
    /// campaign).
    pub fn reset(&mut self) {
        for lane in &mut self.power {
            lane.clear();
        }
        self.cycles = 0;
        self.triggers.clear();
    }

    fn window(&self) -> (usize, usize) {
        trigger_window(&self.triggers, self.cycles)
    }

    fn grow(&mut self, cycles: usize) {
        if self.cycles < cycles {
            for series in &mut self.power {
                series.resize(cycles * NodeKind::COUNT, 0.0);
            }
            self.cycles = cycles;
        }
    }

    /// Lane 0's per-cycle power of one component inside the first
    /// trigger window (whole series when no trigger fired).
    pub fn windowed_power(&self, kind: NodeKind) -> Vec<f64> {
        let mut out = Vec::new();
        self.windowed_power_into(0, kind, &mut out);
        out
    }

    /// Clears `out` and fills it with one lane's windowed per-cycle power
    /// for one component, reusing its capacity.
    pub fn windowed_power_into(&self, lane: usize, kind: NodeKind, out: &mut Vec<f64>) {
        let (start, end) = self.window();
        out.clear();
        out.reserve(end - start);
        out.extend(
            self.power[lane][start * NodeKind::COUNT..end * NodeKind::COUNT]
                .iter()
                .skip(kind.index())
                .step_by(NodeKind::COUNT),
        );
    }
}

impl PipelineObserver for ComponentPowerRecorder {
    fn begin_cycle(&mut self, cycle: u64) {
        self.grow(cycle as usize + 1);
    }

    fn node_event(&mut self, event: NodeEvent) {
        BlockObserver::node_event(self, 0, event);
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.triggers.push((cycle, high));
    }
}

impl BlockObserver for ComponentPowerRecorder {
    fn begin_cycle(&mut self, cycle: u64) {
        self.grow(cycle as usize + 1);
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        let idx = event.cycle as usize;
        self.grow(idx + 1);
        let kind = event.node.kind();
        self.power[lane][idx * NodeKind::COUNT + kind.index()] +=
            self.weights.power_of_kind(kind, &event);
    }

    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let idx = first.cycle as usize;
        self.grow(idx + 1);
        // Same batching as `PowerRecorder::node_events`: resolve the
        // kind and both weights once, add the identical `power_of_kind`
        // value to each lane's strided slot.
        let kind = first.node.kind();
        let whd = self.weights.hd(kind);
        let whw = self.weights.hw(kind);
        let off = idx * NodeKind::COUNT + kind.index();
        for (series, event) in self.power.iter_mut().zip(events) {
            series[off] +=
                whd * f64::from(event.hamming_distance()) + whw * f64::from(event.hamming_weight());
        }
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.triggers.push((cycle, high));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_uarch::Node;

    fn ev(cycle: u64, before: u32, after: u32) -> NodeEvent {
        NodeEvent {
            cycle,
            node: Node::Mdr,
            before,
            after,
        }
    }

    #[test]
    fn accumulates_power_per_cycle() {
        let mut rec = PowerRecorder::new(LeakageWeights::zero().with_hd(NodeKind::Mdr, 1.0));
        PipelineObserver::begin_cycle(&mut rec, 0);
        PipelineObserver::node_event(&mut rec, ev(0, 0, 0b111));
        PipelineObserver::node_event(&mut rec, ev(0, 0, 0b1));
        PipelineObserver::begin_cycle(&mut rec, 1);
        PipelineObserver::node_event(&mut rec, ev(1, 0, 0b11));
        assert_eq!(rec.cycle_power(), &[4.0, 2.0]);
    }

    #[test]
    fn window_extraction() {
        let mut rec = PowerRecorder::new(LeakageWeights::zero().with_hd(NodeKind::Mdr, 1.0));
        for c in 0..10 {
            PipelineObserver::begin_cycle(&mut rec, c);
            PipelineObserver::node_event(&mut rec, ev(c, 0, 1));
        }
        PipelineObserver::trigger(&mut rec, 3, true);
        PipelineObserver::trigger(&mut rec, 7, false);
        assert_eq!(rec.windowed_power().len(), 4); // cycles 3..7
    }

    #[test]
    fn no_trigger_returns_everything() {
        let mut rec = PowerRecorder::new(LeakageWeights::cortex_a7());
        for c in 0..5 {
            PipelineObserver::begin_cycle(&mut rec, c);
        }
        assert_eq!(rec.windowed_power().len(), 5);
    }

    /// Both recorders, each observing a scalar run and a lockstep run,
    /// share one trigger-window search: the same events must give the
    /// same window (and the same windowed MDR series) in all four
    /// configurations, including the edge cases.
    #[test]
    fn all_recorders_agree_on_the_trigger_window() {
        // (trigger edges, expected window)
        type Case = (&'static [(u64, bool)], (usize, usize));
        let cases: [Case; 3] = [
            // No trigger: the whole series.
            (&[], (0, 10)),
            // A rising edge with no falling edge: to the series end.
            (&[(3, true)], (3, 10)),
            // A falling edge before the first rising edge is ignored.
            (&[(2, false), (4, true), (8, false)], (4, 8)),
        ];
        let kind = NodeKind::Mdr;
        let weights = LeakageWeights::zero().with_hd(kind, 1.0);
        for (edges, want) in cases {
            let mut scalar = PowerRecorder::new(weights.clone());
            let mut block = PowerRecorder::with_lanes(weights.clone(), 2);
            let mut component = ComponentPowerRecorder::new(weights.clone());
            let mut block_component = ComponentPowerRecorder::with_lanes(weights.clone(), 2);
            for c in 0..10 {
                let event = ev(c, 0, (1 << (c % 8)) - 1);
                PipelineObserver::begin_cycle(&mut scalar, c);
                PipelineObserver::node_event(&mut scalar, event);
                BlockObserver::begin_cycle(&mut block, c);
                BlockObserver::node_event(&mut block, 1, event);
                PipelineObserver::begin_cycle(&mut component, c);
                PipelineObserver::node_event(&mut component, event);
                BlockObserver::begin_cycle(&mut block_component, c);
                BlockObserver::node_event(&mut block_component, 1, event);
            }
            for &(cycle, high) in edges {
                PipelineObserver::trigger(&mut scalar, cycle, high);
                BlockObserver::trigger(&mut block, cycle, high);
                PipelineObserver::trigger(&mut component, cycle, high);
                BlockObserver::trigger(&mut block_component, cycle, high);
            }
            for window in [
                scalar.window(),
                block.window(),
                component.window(),
                block_component.window(),
            ] {
                assert_eq!(window, want, "edges {edges:?}");
            }
            let series = scalar.windowed_power().to_vec();
            let mut lane = Vec::new();
            block.windowed_power_into(1, &mut lane);
            assert_eq!(lane, series, "edges {edges:?}");
            assert_eq!(component.windowed_power(kind), series, "edges {edges:?}");
            block_component.windowed_power_into(1, kind, &mut lane);
            assert_eq!(lane, series, "edges {edges:?}");
        }
    }

    #[test]
    fn reset_clears_data() {
        let mut rec = PowerRecorder::new(LeakageWeights::cortex_a7());
        PipelineObserver::begin_cycle(&mut rec, 0);
        PipelineObserver::trigger(&mut rec, 2, true);
        rec.reset();
        assert!(rec.cycle_power().is_empty());
        // A stale trigger edge would narrow the next execution's window.
        for c in 0..5 {
            PipelineObserver::begin_cycle(&mut rec, c);
        }
        assert_eq!(rec.windowed_power().len(), 5);
    }
}
