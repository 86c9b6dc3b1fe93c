//! The gated power recorder against a whole-run reference.
//!
//! `PowerRecorder` stores only a trigger-relative cycle gate and finds
//! the trigger window while the run streams in. These proptests feed it
//! random event streams in the simulator's emission order — events in
//! nondecreasing cycle order, trigger edges during their own cycle,
//! possibly after some of that cycle's events — and compare its gated
//! rows with the matching slice of a straightforward whole-run
//! recording: every lane's full per-cycle series, cut to the first
//! high-trigger window, then to the gate. Rows must agree bit for bit,
//! at one lane (scalar observer) and at several (lockstep observer).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use superscalar_sca::power::{LeakageWeights, PowerRecorder};
use superscalar_sca::uarch::{Node, NodeEvent, Pipe, PipelineObserver};

/// One observer call of a synthetic run.
#[derive(Clone, Debug)]
enum Call {
    Begin(u64),
    /// One node's events of one cycle, one per lane.
    Events(Vec<NodeEvent>),
    Trigger(u64, bool),
}

const NODES: [Node; 6] = [
    Node::Mdr,
    Node::OperandBus(1),
    Node::ShiftBuf,
    Node::AluOut(Pipe::Alu0),
    Node::WbBus(0),
    Node::AlignBuf,
];

/// A random `cycles`-long run: each cycle asserts up to four nodes, and
/// trigger edges (random levels, so falling edges may precede the first
/// rising one) land between a cycle's events.
fn random_run(rng: &mut StdRng, cycles: u64, lanes: usize, edges: usize) -> Vec<Call> {
    let mut edge_cycles: Vec<u64> = (0..edges).map(|_| rng.gen_range(0..cycles)).collect();
    edge_cycles.sort_unstable();
    let mut calls = Vec::new();
    for c in 0..cycles {
        calls.push(Call::Begin(c));
        let asserts = rng.gen_range(0..5usize);
        let here = edge_cycles.iter().filter(|&&e| e == c).count();
        let mut at: Vec<usize> = (0..here).map(|_| rng.gen_range(0..=asserts)).collect();
        at.sort_unstable();
        let mut next = 0;
        for a in 0..=asserts {
            while next < at.len() && at[next] == a {
                calls.push(Call::Trigger(c, rng.gen_bool(0.6)));
                next += 1;
            }
            if a == asserts {
                break;
            }
            let node = NODES[rng.gen_range(0..NODES.len())];
            let events = (0..lanes)
                .map(|_| NodeEvent {
                    cycle: c,
                    node,
                    before: rng.gen(),
                    after: rng.gen(),
                })
                .collect();
            calls.push(Call::Events(events));
        }
    }
    calls
}

/// The first high-trigger window of a `cycles`-long run: from the first
/// rising edge to the first falling edge at or after it; the whole run
/// without a rising edge.
fn trigger_window(edges: &[(u64, bool)], cycles: usize) -> (usize, usize) {
    let Some(start) = edges
        .iter()
        .find(|(_, high)| *high)
        .map(|(c, _)| *c as usize)
    else {
        return (0, cycles);
    };
    let end = edges
        .iter()
        .find(|(c, high)| !*high && *c as usize >= start)
        .map_or(cycles, |(c, _)| *c as usize)
        .min(cycles);
    (start.min(end), end)
}

/// The whole-run reference: window length and gated rows per lane.
fn reference(
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
                    series[event.cycle as usize] += weights.power_of_kind(event.node.kind(), event);
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

/// Feeds `calls` to a recorder, alternating the batched and per-lane
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Gated rows equal the gate's slice of the whole-window series, bit
    /// for bit, and the window length is known whatever the gate.
    #[test]
    fn gated_rows_equal_the_whole_window_slice(
        seed in any::<u64>(),
        cycles in 1u64..48,
        lanes in prop_oneof![Just(1usize), 2usize..9],
        edges in 0usize..5,
        gate_start in 0usize..40,
        gate_len in prop_oneof![Just(usize::MAX), 0usize..40],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let calls = random_run(&mut rng, cycles, lanes, edges);
        let weights = LeakageWeights::cortex_a7();
        let gate = (gate_start, gate_start.saturating_add(gate_len));
        let (n, want) = reference(&calls, &weights, lanes, gate);
        let mut rec = PowerRecorder::with_lanes(weights.clone(), lanes);
        rec.set_gate(gate.0, gate.1);
        // Twice, reusing the recorder: nothing may leak across a reset.
        for _ in 0..2 {
            rec.reset();
            feed(&mut rec, &calls);
            prop_assert_eq!(rec.window_cycles(), n);
            let mut got = Vec::new();
            for (lane, want) in want.iter().enumerate() {
                rec.windowed_power_into(lane, &mut got);
                prop_assert_eq!(bits(&got), bits(want), "lane {}", lane);
            }
        }
    }
}
