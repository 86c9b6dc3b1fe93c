//! Observer hooks into the pipeline.
//!
//! The simulator is leakage-model-agnostic: it reports raw node
//! transitions, trigger edges and retirements, and observers (the power
//! synthesizer in `sca-power`, the audit tool in `sca-core`, or plain
//! tests) turn those into traces, reports or assertions.

use sca_isa::Insn;

use crate::NodeEvent;

/// Receives microarchitectural activity from a [`crate::Core`], cycle by
/// cycle.
///
/// Cycle boundaries, trigger edges and retirements are shared by every
/// lane; node events carry the lane they happened in. A one-lane
/// [`crate::Cpu`] reports everything as lane 0.
///
/// All methods have empty default bodies so observers implement only what
/// they need.
pub trait PipelineObserver {
    /// Called once at the start of every simulated cycle.
    fn begin_cycle(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// A value was asserted on a tracked node of one lane.
    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        let _ = (lane, event);
    }

    /// One node's assertions across all active lanes of one cycle,
    /// delivered as a batch: `events[l]` is lane `l`'s event, and all
    /// entries share the same cycle and node.
    ///
    /// The default forwards to [`PipelineObserver::node_event`] lane by
    /// lane, so implementing it is purely an optimization — recorders
    /// on the hot path override it to resolve the node's kind and
    /// weights once per batch instead of once per lane, without
    /// changing the per-lane event order (and hence without changing
    /// any accumulated value).
    fn node_events(&mut self, events: &[NodeEvent]) {
        for (lane, &event) in events.iter().enumerate() {
            self.node_event(lane, event);
        }
    }

    /// The GPIO trigger pin changed level (measurement window marker;
    /// all lanes switch together).
    fn trigger(&mut self, cycle: u64, high: bool) {
        let _ = (cycle, high);
    }

    /// An instruction retired (in every lane at once).
    fn retire(&mut self, cycle: u64, addr: u32, insn: Insn) {
        let _ = (cycle, addr, insn);
    }
}

/// A no-op observer for runs where only architectural results matter.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl PipelineObserver for NullObserver {}

/// Records every node event (and trigger edge), for tests and audits.
/// Events of a multi-lane run are recorded in emission order, lanes
/// interleaved.
#[derive(Clone, Debug, Default)]
pub struct RecordingObserver {
    /// All node events in emission order.
    pub events: Vec<NodeEvent>,
    /// `(cycle, level)` trigger edges.
    pub triggers: Vec<(u64, bool)>,
    /// `(cycle, addr)` retirements.
    pub retirements: Vec<(u64, u32)>,
}

impl RecordingObserver {
    /// Creates an empty recorder.
    pub fn new() -> RecordingObserver {
        RecordingObserver::default()
    }

    /// Events on a specific node, in order.
    pub fn events_on(&self, node: crate::Node) -> Vec<NodeEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.node == node)
            .collect()
    }

    /// Events within the window delimited by the first rising and the
    /// first subsequent falling trigger edge.
    pub fn events_in_trigger_window(&self) -> Vec<NodeEvent> {
        let Some(start) = self
            .triggers
            .iter()
            .find(|(_, high)| *high)
            .map(|(c, _)| *c)
        else {
            return Vec::new();
        };
        let end = self
            .triggers
            .iter()
            .find(|(c, high)| !*high && *c >= start)
            .map_or(u64::MAX, |(c, _)| *c);
        self.events
            .iter()
            .copied()
            .filter(|e| e.cycle >= start && e.cycle <= end)
            .collect()
    }
}

impl PipelineObserver for RecordingObserver {
    fn node_event(&mut self, _lane: usize, event: NodeEvent) {
        self.events.push(event);
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.triggers.push((cycle, high));
    }

    fn retire(&mut self, cycle: u64, addr: u32, _insn: Insn) {
        self.retirements.push((cycle, addr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Node, NodeEvent};

    #[test]
    fn recording_observer_filters_by_node() {
        let mut obs = RecordingObserver::new();
        obs.node_event(
            0,
            NodeEvent {
                cycle: 0,
                node: Node::Mdr,
                before: 0,
                after: 1,
            },
        );
        obs.node_event(
            0,
            NodeEvent {
                cycle: 1,
                node: Node::AlignBuf,
                before: 0,
                after: 2,
            },
        );
        obs.node_event(
            0,
            NodeEvent {
                cycle: 2,
                node: Node::Mdr,
                before: 1,
                after: 3,
            },
        );
        assert_eq!(obs.events_on(Node::Mdr).len(), 2);
        assert_eq!(obs.events_on(Node::AlignBuf).len(), 1);
        assert_eq!(obs.events_on(Node::ShiftBuf).len(), 0);
    }

    #[test]
    fn trigger_window_selects_inner_events() {
        let mut obs = RecordingObserver::new();
        obs.node_event(
            0,
            NodeEvent {
                cycle: 0,
                node: Node::Mdr,
                before: 0,
                after: 1,
            },
        );
        obs.trigger(1, true);
        obs.node_event(
            0,
            NodeEvent {
                cycle: 2,
                node: Node::Mdr,
                before: 1,
                after: 2,
            },
        );
        obs.trigger(3, false);
        obs.node_event(
            0,
            NodeEvent {
                cycle: 4,
                node: Node::Mdr,
                before: 2,
                after: 3,
            },
        );
        let window = obs.events_in_trigger_window();
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].cycle, 2);
    }

    #[test]
    fn no_trigger_means_empty_window() {
        let obs = RecordingObserver::new();
        assert!(obs.events_in_trigger_window().is_empty());
    }
}
