//! Unit tests of the lockstep pipeline, [`crate::CpuBlock`], against
//! one-lane runs.

#[cfg(test)]
mod tests {
    use crate::{Cpu, CpuBlock, Node, NodeEvent, NullObserver, UarchConfig, MAX_LANES};
    use sca_isa::{assemble, Reg};

    /// Collects one event stream per lane, from a block or a one-lane
    /// run alike.
    #[derive(Default)]
    struct PerLaneRecorder {
        events: Vec<Vec<(u64, Node, u32, u32)>>,
        triggers: Vec<(u64, bool)>,
    }

    impl PerLaneRecorder {
        fn new(lanes: usize) -> PerLaneRecorder {
            PerLaneRecorder {
                events: vec![Vec::new(); lanes],
                triggers: Vec::new(),
            }
        }
    }

    impl crate::PipelineObserver for PerLaneRecorder {
        fn node_event(&mut self, lane: usize, event: NodeEvent) {
            self.events[lane].push((event.cycle, event.node, event.before, event.after));
        }

        fn trigger(&mut self, cycle: u64, high: bool) {
            self.triggers.push((cycle, high));
        }
    }

    /// A small data-dependent (in values, not control) program: loads a
    /// per-lane word, mixes it through ALU/shifter/multiplier paths and
    /// stores it back.
    const MIX_SRC: &str = "
        nop
        nop
        trig #1
        adr r10, data
        ldr r0, [r10]
        add r1, r0, r0, lsl #3
        mul r2, r1, r0
        eor r3, r2, r0, ror #7
        umull r4, r5, r3, r1
        strb r3, [r10, #4]
        ldrh r6, [r10, #4]
        stmia r10!, {r3, r4, r5}
        sub r10, r10, #12
        str r4, [r10, #8]
        trig #0
        halt
        .org 0x100
data:   .word 0
        .word 0
        .word 0
        .word 0
    ";

    fn template() -> Cpu {
        let program = assemble(MIX_SRC).expect("assembles");
        let mut cpu = Cpu::new(UarchConfig::cortex_a7());
        cpu.load(&program).expect("loads");
        // Warm caches exactly like the acquisition protocol does.
        cpu.run(&mut NullObserver).expect("warm-up runs");
        cpu
    }

    #[test]
    fn lockstep_event_streams_match_scalar_lanes() {
        let template = template();
        let inputs: [u32; 5] = [0xdead_beef, 0, 0xffff_ffff, 0x1234_5678, 0x0f0f_0f0f];
        for lanes in [1usize, 2, 5] {
            let seeds: Vec<u64> = (0..lanes as u64).map(|l| 0x1000 + 7 * l).collect();

            let mut block = CpuBlock::from_template(&template, lanes);
            block.restart_lanes(0, &seeds);
            for (l, &input) in inputs.iter().take(lanes).enumerate() {
                block.lane_mut(l).mem_mut().write_u32(0x100, input).unwrap();
            }
            let mut rec = PerLaneRecorder::new(lanes);
            let block_stats = block.run(&mut rec).expect("no divergence");

            for (l, &input) in inputs.iter().take(lanes).enumerate() {
                let mut cpu = template.clone();
                cpu.restart_seeded(0, seeds[l]);
                cpu.mem_mut().write_u32(0x100, input).unwrap();
                let mut scalar = PerLaneRecorder::new(1);
                let stats = cpu.run(&mut scalar).expect("scalar runs");
                assert_eq!(stats, block_stats, "stats (lane {l} of {lanes})");
                assert_eq!(scalar.triggers, rec.triggers, "triggers (lane {l})");
                assert_eq!(
                    scalar.events[0], rec.events[l],
                    "event stream (lane {l} of {lanes})"
                );
                for r in 0..16 {
                    let reg = Reg::from_index(r).expect("register index");
                    assert_eq!(
                        cpu.reg(reg),
                        block.lane(l).reg(reg),
                        "r{r} (lane {l} of {lanes})"
                    );
                }
            }
        }
    }

    #[test]
    fn divergent_control_flow_is_detected() {
        // A conditional whose outcome depends on the loaded value: lanes
        // disagree, so the block must refuse rather than corrupt.
        let src = "
            adr r10, data
            ldr r0, [r10]
            cmp r0, #1
            moveq r1, #7
            halt
            .org 0x100
data:       .word 0
        ";
        let program = assemble(src).expect("assembles");
        let mut cpu = Cpu::new(UarchConfig::cortex_a7());
        cpu.load(&program).expect("loads");
        cpu.run(&mut NullObserver).expect("warm-up");
        let mut block = CpuBlock::from_template(&cpu, 2);
        block.restart_lanes(0, &[1, 2]);
        block.lane_mut(0).mem_mut().write_u32(0x100, 1).unwrap();
        block.lane_mut(1).mem_mut().write_u32(0x100, 2).unwrap();
        let err = block.run(&mut NullObserver).expect_err("must diverge");
        assert!(err.reason.contains("conditional"), "{err}");
    }

    #[test]
    fn lane_count_bounds_are_enforced() {
        let cpu = Cpu::new(UarchConfig::cortex_a7());
        let result = std::panic::catch_unwind(|| CpuBlock::from_template(&cpu, 0));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| CpuBlock::from_template(&cpu, MAX_LANES + 1));
        assert!(result.is_err());
    }
}
