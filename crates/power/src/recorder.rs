//! Turning pipeline activity into per-cycle power.

use sca_uarch::{NodeEvent, NodeKind, PipelineObserver};

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
/// per-cycle power series per lane, inside a trigger-relative cycle
/// gate.
///
/// It records every lane of a run: lane 0 of a one-lane `Cpu`, or each
/// lane of a lockstep [`sca_uarch::CpuBlock`]. Each lane's events arrive
/// in the order a one-lane run of that lane emits them and accumulate into the same `f64`
/// per-cycle sums, so every lane is bit-identical to a one-lane
/// recording of it.
///
/// The recorder stores only the cycles of the gate `[g0, g1)`, counted
/// from the start of the first high-trigger window (see
/// [`PowerRecorder::set_gate`]); the default gate `(0, usize::MAX)`
/// keeps the whole window. It still follows every trigger edge and
/// counts every cycle, so it knows the window length
/// ([`PowerRecorder::window_cycles`]) without storing the window. A
/// campaign that analyzes a few hundred samples of a cipher run that
/// spans tens of thousands therefore never writes, gathers or expands
/// the rest.
///
/// The window is found while the run streams in, which relies on the
/// simulator's emission order: events arrive in nondecreasing cycle
/// order, and a trigger edge of cycle `T` arrives during cycle `T`
/// (events of cycle `T` may come before it). Until a rising edge
/// appears the run is recorded from cycle 0 — without one the whole run
/// is the window — and the first rising edge restarts the window at its
/// cycle, carrying over what cycle `T` has recorded so far. The window
/// ends at the first falling edge of a cycle at or after `T` (one of
/// cycle `T` itself may even precede the rising edge); earlier falling
/// edges are ignored, and without a falling edge the window runs to the
/// end of the run.
///
/// Storage is lane-major interleaved (`power[row * lanes + lane]`):
/// the lockstep block emits each cycle's events lane-by-lane, so the
/// writes of one cycle land on adjacent slots — this recorder sits on
/// the busiest observer path of the whole campaign engine.
#[derive(Clone, Debug)]
pub struct PowerRecorder {
    weights: LeakageWeights,
    lanes: usize,
    /// Recorded window-cycle range `[g0, g1)`.
    gate: (usize, usize),
    /// Lane-major interleaved power of window cycles `g0..g0 + rows`.
    power: Vec<f64>,
    /// Stored rows (window cycles `g0..g0 + rows`).
    rows: usize,
    /// Rows that may still be written: the gate, cut at the window end
    /// once the falling edge is known.
    limit: usize,
    /// Absolute cycle of window cycle 0: the first rising edge, 0 before
    /// one.
    base: usize,
    /// Whether the first rising edge has been seen.
    started: bool,
    /// Absolute cycle of the first falling edge at or after the start.
    end: Option<usize>,
    /// Before the first rising edge: the cycle of the latest falling
    /// edge. One in the rising edge's own cycle ends the window there
    /// (an empty window).
    fell: Option<usize>,
    /// Cycles run so far (absolute).
    cycles: usize,
    /// Before the first rising edge: the current cycle's per-lane power
    /// when that cycle lies outside the gate, so a rising edge in it
    /// keeps the events that arrived before the `trigger` callback.
    pending: Vec<f64>,
    /// The absolute cycle `pending` holds (`usize::MAX`: none).
    pending_cycle: usize,
}

impl PowerRecorder {
    /// Creates a one-lane recorder with the given leakage weights.
    pub fn new(weights: LeakageWeights) -> PowerRecorder {
        PowerRecorder::with_lanes(weights, 1)
    }

    /// Creates a recorder for up to `lanes` lockstep lanes.
    pub fn with_lanes(weights: LeakageWeights, lanes: usize) -> PowerRecorder {
        let lanes = lanes.max(1);
        let mut recorder = PowerRecorder {
            weights,
            lanes,
            gate: (0, usize::MAX),
            power: Vec::new(),
            rows: 0,
            limit: 0,
            base: 0,
            started: false,
            end: None,
            fell: None,
            cycles: 0,
            pending: vec![0.0; lanes],
            pending_cycle: usize::MAX,
        };
        recorder.reset();
        recorder
    }

    /// Restricts recording to the window cycles `[start, end)` (counted
    /// from the window start) and clears recorded data. The gate stays
    /// in force across [`PowerRecorder::reset`]; `(0, usize::MAX)`
    /// records the whole window.
    pub fn set_gate(&mut self, start: usize, end: usize) {
        self.gate = (start, end.max(start));
        self.reset();
    }

    /// Length in cycles of the first high-trigger window (the whole run
    /// when no trigger fired), whether or not the gate stores it.
    pub fn window_cycles(&self) -> usize {
        let end = self.end.unwrap_or(self.cycles).min(self.cycles);
        end.saturating_sub(self.base)
    }

    /// The number of window cycles stored: those of the gate that lie
    /// inside the window.
    fn gated_rows(&self) -> usize {
        self.window_cycles()
            .min(self.gate.1)
            .saturating_sub(self.gate.0)
            .min(self.rows)
    }

    /// The per-cycle power of the gated window cycles: window cycles
    /// `gate.0..` up to the gate end or the window end, whichever comes
    /// first. With the default gate this is the whole first high-trigger
    /// window (the whole run when no trigger fired).
    ///
    /// # Panics
    ///
    /// Panics on a recorder with more than one lane; use
    /// [`PowerRecorder::windowed_power_into`] there.
    pub fn windowed_power(&self) -> &[f64] {
        assert_eq!(self.lanes, 1, "a multi-lane series is not contiguous");
        &self.power[..self.gated_rows()]
    }

    /// Clears `out` and fills it with one lane's gated per-cycle power
    /// (as [`PowerRecorder::windowed_power`]), reusing its capacity.
    pub fn windowed_power_into(&self, lane: usize, out: &mut Vec<f64>) {
        let rows = self.gated_rows();
        out.clear();
        out.reserve(rows);
        out.extend(
            self.power[..rows * self.lanes]
                .iter()
                .skip(lane)
                .step_by(self.lanes),
        );
    }

    /// One lane's gated series: borrowed in place from a one-lane
    /// recorder, gathered into `buf` otherwise.
    pub(crate) fn lane_window<'a>(&'a self, lane: usize, buf: &'a mut Vec<f64>) -> &'a [f64] {
        if self.lanes == 1 {
            return self.windowed_power();
        }
        self.windowed_power_into(lane, buf);
        buf
    }

    /// Clears recorded data, keeping the weights, the lane count and the
    /// gate (reuse across the averaged executions of one trace).
    pub fn reset(&mut self) {
        self.power.clear();
        self.rows = 0;
        self.limit = self.gate.1 - self.gate.0;
        self.base = 0;
        self.started = false;
        self.end = None;
        self.fell = None;
        self.cycles = 0;
        self.pending_cycle = usize::MAX;
    }

    /// Counts absolute cycle `cycle` as run and returns its stored row
    /// — extending the rows (zero-filled) to cover it — if the gate
    /// keeps it.
    fn row(&mut self, cycle: usize) -> Option<usize> {
        if self.cycles <= cycle {
            self.cycles = cycle + 1;
        }
        let row = cycle.wrapping_sub(self.base).wrapping_sub(self.gate.0);
        if row >= self.limit {
            return None;
        }
        if self.rows <= row {
            self.rows = row + 1;
            self.power.resize(self.rows * self.lanes, 0.0);
        }
        Some(row)
    }

    /// Adds one lane's power to an ungated cycle before the first rising
    /// edge (see `pending`).
    fn add_pending(&mut self, cycle: usize, lane: usize, power: f64) {
        if self.started {
            return;
        }
        if self.pending_cycle != cycle {
            self.pending.fill(0.0);
            self.pending_cycle = cycle;
        }
        self.pending[lane] += power;
    }

    fn edge(&mut self, cycle: u64, high: bool) {
        let cycle = cycle as usize;
        if high && !self.started {
            // Re-anchor the stored rows at the rising edge: window cycle
            // `w` was absolute cycle `w` and becomes `w - cycle`.
            let shift = cycle.min(self.rows);
            self.power.drain(..shift * self.lanes);
            self.rows -= shift;
            if self.pending_cycle == cycle && self.gate.0 == 0 && self.limit > 0 {
                // The trigger cycle lay outside the gate but window cycle
                // 0 lies inside it: it becomes the first row.
                debug_assert_eq!(self.rows, 0);
                self.power.clear();
                self.power.extend_from_slice(&self.pending);
                self.rows = 1;
            }
            self.pending_cycle = usize::MAX;
            self.base = cycle;
            self.started = true;
            if self.fell == Some(cycle) {
                self.close(cycle);
            }
        } else if !high && !self.started {
            self.fell = Some(cycle);
        } else if !high && self.end.is_none() && cycle >= self.base {
            self.close(cycle);
        }
    }

    /// Ends the window at absolute cycle `cycle`.
    fn close(&mut self, cycle: usize) {
        self.end = Some(cycle);
        self.limit = self
            .limit
            .min((cycle - self.base).saturating_sub(self.gate.0));
    }
}

impl PipelineObserver for PowerRecorder {
    fn begin_cycle(&mut self, cycle: u64) {
        self.row(cycle as usize);
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        let cycle = event.cycle as usize;
        let power = self.weights.power_of_kind(event.node.kind(), &event);
        match self.row(cycle) {
            Some(row) => self.power[row * self.lanes + lane] += power,
            None => self.add_pending(cycle, lane, power),
        }
    }

    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let cycle = first.cycle as usize;
        let Some(row) = self.row(cycle) else {
            if !self.started {
                for (lane, event) in events.iter().enumerate() {
                    let power = self.weights.power_of_kind(event.node.kind(), event);
                    self.add_pending(cycle, lane, power);
                }
            }
            return;
        };
        // One kind/weight resolution for the whole batch; the per-lane
        // arithmetic below is exactly `power_of_kind`, so each lane's
        // slot receives the identical f64 the per-event path adds.
        let kind = first.node.kind();
        let whd = self.weights.hd(kind);
        let whw = self.weights.hw(kind);
        let base = row * self.lanes;
        for (slot, event) in self.power[base..base + events.len()].iter_mut().zip(events) {
            *slot +=
                whd * f64::from(event.hamming_distance()) + whw * f64::from(event.hamming_weight());
        }
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.edge(cycle, high);
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
        rec.begin_cycle(0);
        rec.node_event(0, ev(0, 0, 0b111));
        rec.node_event(0, ev(0, 0, 0b1));
        rec.begin_cycle(1);
        rec.node_event(0, ev(1, 0, 0b11));
        assert_eq!(rec.windowed_power(), &[4.0, 2.0]);
    }

    #[test]
    fn window_extraction() {
        let mut rec = PowerRecorder::new(LeakageWeights::zero().with_hd(NodeKind::Mdr, 1.0));
        for c in 0..10 {
            rec.begin_cycle(c);
            rec.node_event(0, ev(c, 0, 1));
        }
        rec.trigger(3, true);
        rec.trigger(7, false);
        assert_eq!(rec.windowed_power().len(), 4); // cycles 3..7
        assert_eq!(rec.window_cycles(), 4);
    }

    #[test]
    fn no_trigger_returns_everything() {
        let mut rec = PowerRecorder::new(LeakageWeights::cortex_a7());
        for c in 0..5 {
            rec.begin_cycle(c);
        }
        assert_eq!(rec.windowed_power().len(), 5);
    }

    /// Both recorders, each observing a scalar run and a lockstep run,
    /// must find the same window (and the same windowed MDR series) in
    /// all four configurations, including the edge cases — here with
    /// the edges delivered after every event, which the whole-window
    /// gate also accepts.
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
                scalar.begin_cycle(c);
                scalar.node_event(0, event);
                block.begin_cycle(c);
                block.node_event(1, event);
                component.begin_cycle(c);
                component.node_event(0, event);
                block_component.begin_cycle(c);
                block_component.node_event(1, event);
            }
            for &(cycle, high) in edges {
                scalar.trigger(cycle, high);
                block.trigger(cycle, high);
                component.trigger(cycle, high);
                block_component.trigger(cycle, high);
            }
            for window in [component.window(), block_component.window()] {
                assert_eq!(window, want, "edges {edges:?}");
            }
            for cycles in [scalar.window_cycles(), block.window_cycles()] {
                assert_eq!(cycles, want.1 - want.0, "edges {edges:?}");
            }
            let series = scalar.windowed_power().to_vec();
            assert_eq!(series.len(), want.1 - want.0, "edges {edges:?}");
            let mut lane = Vec::new();
            block.windowed_power_into(1, &mut lane);
            assert_eq!(lane, series, "edges {edges:?}");
            assert_eq!(component.windowed_power(kind), series, "edges {edges:?}");
            block_component.windowed_power_into(1, kind, &mut lane);
            assert_eq!(lane, series, "edges {edges:?}");
        }
    }

    /// One observer call of a synthetic run.
    #[derive(Clone, Debug)]
    enum Call {
        Begin(u64),
        /// One node's events of one cycle, one per lane.
        Events(Vec<NodeEvent>),
        Trigger(u64, bool),
    }

    /// A `cycles`-long run in the simulator's emission order: each cycle
    /// begins, asserts the MDR, raises or drops the trigger if `edges`
    /// say so, then asserts the MDR again — so the trigger cycle has
    /// events on both sides of its `trigger` callback.
    fn run(cycles: u64, edges: &[(u64, bool)], lanes: usize) -> Vec<Call> {
        let mut calls = Vec::new();
        for c in 0..cycles {
            calls.push(Call::Begin(c));
            let events = |phase: u32| -> Vec<NodeEvent> {
                (0..lanes as u32)
                    .map(|l| ev(c, phase, (c as u32 * 7 + l * 13 + phase * 5) & 0xff))
                    .collect()
            };
            calls.push(Call::Events(events(0)));
            for &(_, high) in edges.iter().filter(|(at, _)| *at == c) {
                calls.push(Call::Trigger(c, high));
            }
            calls.push(Call::Events(events(1)));
        }
        calls
    }

    /// Feeds `calls` to `rec`, alternating the batched and per-lane
    /// event entry points.
    fn feed(rec: &mut PowerRecorder, calls: &[Call]) {
        for (i, call) in calls.iter().enumerate() {
            match call {
                Call::Begin(c) => rec.begin_cycle(*c),
                Call::Events(events) if i % 2 == 0 => rec.node_events(events),
                Call::Events(events) => {
                    for (lane, &event) in events.iter().enumerate() {
                        rec.node_event(lane, event);
                    }
                }
                Call::Trigger(c, high) => rec.trigger(*c, *high),
            }
        }
    }

    /// The whole-run reference: every lane's full per-cycle series, cut
    /// to the first trigger window and then to the gate. Returns the
    /// window length and the gated rows per lane.
    fn oracle(
        calls: &[Call],
        weights: &LeakageWeights,
        lanes: usize,
        gate: (usize, usize),
    ) -> (usize, Vec<Vec<f64>>) {
        let mut full = vec![Vec::<f64>::new(); lanes];
        let mut edges = Vec::new();
        let mut cycles = 0;
        for call in calls {
            match call {
                Call::Begin(c) => {
                    cycles = cycles.max(*c as usize + 1);
                    for series in &mut full {
                        series.resize(cycles, 0.0);
                    }
                }
                Call::Events(events) => {
                    for (series, event) in full.iter_mut().zip(events) {
                        series[event.cycle as usize] +=
                            weights.power_of_kind(event.node.kind(), event);
                    }
                }
                Call::Trigger(c, high) => edges.push((*c, *high)),
            }
        }
        let (start, end) = trigger_window(&edges, cycles);
        let n = end - start;
        let lo = gate.0.min(n);
        let hi = gate.1.min(n).max(lo);
        let rows = full
            .iter()
            .map(|series| series[start + lo..start + hi].to_vec())
            .collect();
        (n, rows)
    }

    /// The gated recorder against the whole-run oracle, in the four
    /// trigger edge cases, for gates inside, across and outside the
    /// window, at one lane and two: window lengths and rows must agree
    /// bit for bit.
    #[test]
    fn gated_rows_match_the_whole_window_in_every_edge_case() {
        let cases: [&[(u64, bool)]; 5] = [
            // No rising edge: the whole run is the window.
            &[],
            // A rising edge with no falling edge.
            &[(3, true)],
            // A falling edge before the first rising edge.
            &[(2, false), (4, true), (8, false)],
            // The trigger cycle's events straddle the callback (every
            // run here), at cycle 0 and with a late second rising edge.
            &[(0, true), (6, false), (7, true)],
            &[(5, true), (9, false)],
        ];
        let gates = [
            (0, usize::MAX),
            (0, 0),
            (0, 1),
            (0, 3),
            (1, 4),
            (2, 100),
            (5, 6),
            (20, 30),
        ];
        let weights = LeakageWeights::zero().with_hd(NodeKind::Mdr, 1.0);
        for edges in cases {
            for gate in gates {
                for lanes in [1, 2] {
                    let calls = run(12, edges, lanes);
                    let (n, want) = oracle(&calls, &weights, lanes, gate);
                    let mut rec = PowerRecorder::with_lanes(weights.clone(), lanes);
                    rec.set_gate(gate.0, gate.1);
                    // Twice: a reset recorder must not carry state over.
                    for _ in 0..2 {
                        rec.reset();
                        feed(&mut rec, &calls);
                        assert_eq!(rec.window_cycles(), n, "{edges:?} gate {gate:?}");
                        for (lane, want) in want.iter().enumerate() {
                            let mut got = Vec::new();
                            rec.windowed_power_into(lane, &mut got);
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&got),
                                bits(want),
                                "{edges:?} gate {gate:?} lanes {lanes} lane {lane}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Window cycle 0 of a rising edge at cycle `T` includes the events
    /// of cycle `T` that arrived before the `trigger` callback, whether
    /// the whole-run gate stored cycle `T` or not.
    #[test]
    fn the_trigger_cycle_keeps_events_before_the_callback() {
        let weights = LeakageWeights::zero().with_hd(NodeKind::Mdr, 1.0);
        for gate in [(0, usize::MAX), (0, 1), (0, 2)] {
            let mut rec = PowerRecorder::new(weights.clone());
            rec.set_gate(gate.0, gate.1);
            for c in 0..6 {
                rec.begin_cycle(c);
                rec.node_event(0, ev(c, 0, 0b1));
                if c == 4 {
                    rec.trigger(c, true);
                }
                rec.node_event(0, ev(c, 0, 0b11));
            }
            assert_eq!(rec.window_cycles(), 2, "gate {gate:?}");
            assert_eq!(rec.windowed_power()[0], 3.0, "gate {gate:?}");
        }
    }

    #[test]
    fn a_zero_width_gate_still_measures_the_window() {
        let mut rec = PowerRecorder::new(LeakageWeights::cortex_a7());
        rec.set_gate(0, 0);
        for c in 0..20 {
            rec.begin_cycle(c);
            rec.node_event(0, ev(c, 0, 0xff));
            if c == 5 || c == 15 {
                rec.trigger(c, c == 5);
            }
        }
        assert_eq!(rec.window_cycles(), 10);
        assert!(rec.windowed_power().is_empty());
    }

    #[test]
    fn reset_clears_data() {
        let mut rec = PowerRecorder::new(LeakageWeights::cortex_a7());
        rec.begin_cycle(0);
        rec.trigger(2, true);
        rec.reset();
        assert!(rec.windowed_power().is_empty());
        // A stale trigger edge would narrow the next execution's window.
        for c in 0..5 {
            rec.begin_cycle(c);
        }
        assert_eq!(rec.windowed_power().len(), 5);
    }
}
