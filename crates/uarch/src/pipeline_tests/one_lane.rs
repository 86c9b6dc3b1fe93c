//! Unit tests of the one-lane pipeline, [`crate::Cpu`].

#[cfg(test)]
mod tests {
    use crate::{Cpu, ExecStats, NullObserver, RecordingObserver, UarchConfig, UarchError};
    use sca_isa::{assemble, AddrMode, Insn, Program, ProgramBuilder, Reg};

    fn run_asm(src: &str) -> (Cpu, ExecStats) {
        let program = assemble(src).expect("benchmark assembles");
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).expect("loads");
        let stats = cpu.run(&mut NullObserver).expect("runs");
        (cpu, stats)
    }

    #[test]
    fn arithmetic_program_computes() {
        let (cpu, _) = run_asm(
            "
            mov r0, #5
            mov r1, #7
            add r2, r0, r1
            mul r3, r2, r0
            sub r4, r3, #10
            halt
        ",
        );
        assert_eq!(cpu.reg(Reg::R2), 12);
        assert_eq!(cpu.reg(Reg::R3), 60);
        assert_eq!(cpu.reg(Reg::R4), 50);
    }

    #[test]
    fn conditional_loop_terminates() {
        let (cpu, stats) = run_asm(
            "
            mov r0, #10
            mov r1, #0
loop:       add r1, r1, r0
            subs r0, r0, #1
            bne loop
            halt
        ",
        );
        assert_eq!(cpu.reg(Reg::R1), 55);
        assert_eq!(cpu.reg(Reg::R0), 0);
        assert!(stats.taken_branches >= 9);
    }

    #[test]
    fn memory_round_trip_and_subword() {
        let (cpu, _) = run_asm(
            "
            .org 0
            adr r0, data
            ldr r1, [r0]
            ldrb r2, [r0, #1]
            ldrh r3, [r0, #2]
            strb r1, [r0, #8]
            ldr r4, [r0, #8]
            halt
            .org 0x40
data:       .word 0xa1b2c3d4
            .word 0
            .word 0
        ",
        );
        assert_eq!(cpu.reg(Reg::R1), 0xa1b2_c3d4);
        assert_eq!(cpu.reg(Reg::R2), 0xc3);
        assert_eq!(cpu.reg(Reg::R3), 0xa1b2);
        assert_eq!(cpu.reg(Reg::R4), 0xd4);
    }

    #[test]
    fn pre_post_indexing() {
        let (cpu, _) = run_asm(
            "
            adr r0, data
            mov r5, #1
            str r5, [r0, #4]!
            mov r6, #2
            str r6, [r0], #4
            ldr r1, [r0]
            halt
            .org 0x80
data:       .word 0, 0, 0
        ",
        );
        // After pre-index: r0 = data+4 (holds 1). Post-index store writes 2
        // at data+4 then r0 = data+8.
        assert_eq!(cpu.reg(Reg::R0), 0x88);
        assert_eq!(cpu.mem().read_u32(0x84).unwrap(), 2);
        assert_eq!(cpu.reg(Reg::R1), 0);
    }

    #[test]
    fn function_call_and_return() {
        let (cpu, _) = run_asm(
            "
            mov r0, #4
            bl double
            bl double
            halt
double:     add r0, r0, r0
            bx lr
        ",
        );
        assert_eq!(cpu.reg(Reg::R0), 16);
    }

    #[test]
    fn dual_issue_mov_pairs_reach_half_cpi() {
        // 200 hazard-free mov pairs, as in the paper's micro-benchmarks.
        let mut builder = ProgramBuilder::new(0).nops(8);
        for _ in 0..200 {
            builder = builder
                .push(Insn::mov(Reg::R0, Reg::R1))
                .push(Insn::mov(Reg::R2, Reg::R3));
        }
        let program = builder.nops(8).push(Insn::halt()).build().unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        let stats = cpu.run(&mut NullObserver).unwrap();
        // 400 movs in ~200 cycles; the nops and pipeline fill add a few.
        assert!(
            stats.dual_issue_cycles >= 195,
            "dual issue cycles: {}",
            stats.dual_issue_cycles
        );
        assert!(stats.cpi() < 0.65, "CPI {}", stats.cpi());
    }

    #[test]
    fn raw_hazard_prevents_dual_issue() {
        // Both pairing offsets carry a RAW hazard (r0 -> r1 -> r0), the
        // pattern the paper's CPI methodology uses to suppress pairing:
        // a one-sided hazard would still dual-issue across iterations.
        let mut builder = ProgramBuilder::new(0).nops(8);
        for _ in 0..100 {
            builder = builder
                .push(Insn::mov(Reg::R0, Reg::R1))
                .push(Insn::mov(Reg::R1, Reg::R0));
        }
        let program = builder.push(Insn::halt()).build().unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        let stats = cpu.run(&mut NullObserver).unwrap();
        assert_eq!(stats.dual_issue_cycles, 0);
        // Forwarding keeps CPI at 1 even though pairs are forbidden.
        assert!(
            stats.cpi() > 0.9 && stats.cpi() < 1.2,
            "CPI {}",
            stats.cpi()
        );
    }

    #[test]
    fn scalar_config_never_dual_issues() {
        let mut builder = ProgramBuilder::new(0);
        for _ in 0..50 {
            builder = builder
                .push(Insn::mov(Reg::R0, Reg::R1))
                .push(Insn::mov(Reg::R2, Reg::R3));
        }
        let program = builder.push(Insn::halt()).build().unwrap();
        let mut cpu = Cpu::new(UarchConfig::scalar().with_ideal_memory());
        cpu.load(&program).unwrap();
        let stats = cpu.run(&mut NullObserver).unwrap();
        assert_eq!(stats.dual_issue_cycles, 0);
    }

    #[test]
    fn alu_alu_does_not_pair_but_alu_imm_does() {
        let pair_cpi = |younger_imm: bool| {
            let mut builder = ProgramBuilder::new(0).nops(8);
            for _ in 0..100 {
                builder = builder
                    .push(Insn::add(Reg::R0, Reg::R1, Reg::R2))
                    .push(if younger_imm {
                        Insn::add(Reg::R3, Reg::R4, 7u32)
                    } else {
                        Insn::add(Reg::R3, Reg::R4, Reg::R5)
                    });
            }
            let program = builder.push(Insn::halt()).build().unwrap();
            let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
            cpu.load(&program).unwrap();
            cpu.run(&mut NullObserver).unwrap()
        };
        let imm = pair_cpi(true);
        let reg = pair_cpi(false);
        assert!(imm.dual_issue_cycles >= 95, "ALU+ALUimm should pair");
        assert_eq!(reg.dual_issue_cycles, 0, "ALU+ALU must not pair");
    }

    #[test]
    fn mul_and_load_streams_are_pipelined() {
        // Independent muls sustain CPI 1 (pipelined multiplier).
        let mut builder = ProgramBuilder::new(0).nops(8);
        for _ in 0..100 {
            builder = builder.push(Insn::mul(Reg::R0, Reg::R1, Reg::R2));
        }
        let program = builder.push(Insn::halt()).build().unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        let stats = cpu.run(&mut NullObserver).unwrap();
        assert!(stats.cpi() < 1.2, "mul stream CPI {}", stats.cpi());

        // Dependent muls expose the 3-cycle latency.
        let mut builder = ProgramBuilder::new(0).nops(8);
        for _ in 0..100 {
            builder = builder.push(Insn::mul(Reg::R0, Reg::R0, Reg::R2));
        }
        let program = builder.push(Insn::halt()).build().unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        let stats = cpu.run(&mut NullObserver).unwrap();
        assert!(stats.cpi() > 2.5, "dependent mul CPI {}", stats.cpi());
    }

    #[test]
    fn trigger_edges_are_observed() {
        let program = assemble(
            "
            nop
            trig #1
            nop
            nop
            trig #0
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        let mut obs = RecordingObserver::new();
        cpu.run(&mut obs).unwrap();
        assert_eq!(obs.triggers.len(), 2);
        assert!(obs.triggers[0].1);
        assert!(!obs.triggers[1].1);
        assert!(obs.triggers[0].0 < obs.triggers[1].0);
    }

    #[test]
    fn restart_preserves_memory_and_caches() {
        let program = assemble(
            "
            adr r0, cell
            ldr r1, [r0]
            add r1, r1, #1
            str r1, [r0]
            halt
            .org 0x100
cell:       .word 0
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7());
        cpu.load(&program).unwrap();
        cpu.run(&mut NullObserver).unwrap();
        let cold_misses = cpu.stats().dcache_misses;
        assert!(cold_misses > 0);
        cpu.restart(program.entry());
        let stats = cpu.run(&mut NullObserver).unwrap();
        assert_eq!(cpu.mem().read_u32(0x100).unwrap(), 2, "memory persisted");
        assert_eq!(stats.dcache_misses, 0, "caches stayed warm");
    }

    #[test]
    fn cycle_budget_is_enforced() {
        let program = assemble("loop: b loop\n").unwrap();
        let mut config = UarchConfig::cortex_a7().with_ideal_memory();
        config.max_cycles = 500;
        let mut cpu = Cpu::new(config);
        cpu.load(&program).unwrap();
        match cpu.run(&mut NullObserver) {
            Err(UarchError::CycleBudgetExceeded(500)) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn executing_data_is_an_error() {
        let program = assemble(".word 0xffffffff\n").unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        match cpu.run(&mut NullObserver) {
            Err(UarchError::BadInstruction { addr: 0, .. }) => {}
            other => panic!("expected bad instruction, got {other:?}"),
        }
    }

    #[test]
    fn condition_failed_instruction_is_squashed() {
        let (cpu, _) = run_asm(
            "
            mov r0, #1
            cmp r0, #2
            moveq r1, #99   ; Z clear: must not execute
            movne r2, #42   ; Z clear: executes
            halt
        ",
        );
        assert_eq!(cpu.reg(Reg::R1), 0);
        assert_eq!(cpu.reg(Reg::R2), 42);
    }

    #[test]
    fn load_use_hazard_stalls() {
        // ldr followed by immediate use: CPI reflects the 3-cycle load.
        let mut builder = ProgramBuilder::new(0).nops(8);
        for _ in 0..50 {
            builder = builder
                .push(Insn::ldr(Reg::R0, AddrMode::base(Reg::R10)))
                .push(Insn::add(Reg::R1, Reg::R0, 1u32));
        }
        let program = builder.push(Insn::halt()).build().unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.set_reg(Reg::R10, 0x400);
        cpu.load(&program).unwrap();
        let stats = cpu.run(&mut NullObserver).unwrap();
        assert!(stats.raw_stalls >= 50, "raw stalls {}", stats.raw_stalls);
        // Steady state: 3 cycles per (ldr, dependent add) after the
        // cross-iteration (add, ldr) pair forms — CPI ≈ 1.5.
        assert!(stats.cpi() > 1.3, "CPI {}", stats.cpi());
    }

    #[test]
    fn independent_load_stream_is_pipelined() {
        let mut builder = ProgramBuilder::new(0).nops(8);
        for _ in 0..100 {
            builder = builder.push(Insn::ldr(Reg::R0, AddrMode::base(Reg::R10)));
        }
        let program = builder.push(Insn::halt()).build().unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.set_reg(Reg::R10, 0x400);
        cpu.load(&program).unwrap();
        let stats = cpu.run(&mut NullObserver).unwrap();
        assert!(stats.cpi() < 1.2, "load stream CPI {}", stats.cpi());
    }

    #[test]
    fn push_pop_round_trip() {
        let (cpu, _) = run_asm(
            "
            mov sp, #0x800
            mov r0, #11
            mov r1, #22
            mov r4, #44
            push {r0, r1, r4, lr}
            mov r0, #0
            mov r1, #0
            mov r4, #0
            pop {r0, r1, r4, lr}
            halt
        ",
        );
        assert_eq!(cpu.reg(Reg::R0), 11);
        assert_eq!(cpu.reg(Reg::R1), 22);
        assert_eq!(cpu.reg(Reg::R4), 44);
        assert_eq!(cpu.reg(Reg::SP), 0x800, "sp restored");
    }

    #[test]
    fn ldm_stm_memory_layout() {
        // stmdb stores lowest register at lowest address; ldmia reads
        // back in the same order.
        let (cpu, _) = run_asm(
            "
            mov r10, #0x400
            mov r1, #1
            mov r2, #2
            mov r3, #3
            stmia r10, {r1-r3}
            ldmia r10!, {r4, r5, r6}
            halt
        ",
        );
        assert_eq!(cpu.mem().read_u32(0x400).unwrap(), 1);
        assert_eq!(cpu.mem().read_u32(0x404).unwrap(), 2);
        assert_eq!(cpu.mem().read_u32(0x408).unwrap(), 3);
        assert_eq!(cpu.reg(Reg::R4), 1);
        assert_eq!(cpu.reg(Reg::R5), 2);
        assert_eq!(cpu.reg(Reg::R6), 3);
        assert_eq!(cpu.reg(Reg::R10), 0x40c, "writeback advanced the base");
    }

    #[test]
    fn pop_into_pc_returns() {
        let (cpu, _) = run_asm(
            "
            mov sp, #0x800
            bl callee
            mov r1, #99
            halt
callee:     push {lr}
            mov r0, #7
            pop {pc}
        ",
        );
        assert_eq!(cpu.reg(Reg::R0), 7);
        assert_eq!(cpu.reg(Reg::R1), 99, "execution resumed after bl");
    }

    #[test]
    fn long_multiplies() {
        let (cpu, _) = run_asm(
            "
            mov   r2, #0xff000000
            mov   r3, #16
            umull r0, r1, r2, r3
            mvn   r6, #0          ; r6 = 0xffffffff = -1
            mov   r7, #5
            smull r4, r5, r6, r7  ; -1 * 5 = -5
            halt
        ",
        );
        let unsigned = (u64::from(cpu.reg(Reg::R1)) << 32) | u64::from(cpu.reg(Reg::R0));
        assert_eq!(unsigned, 0xff00_0000u64 * 16);
        let signed = ((u64::from(cpu.reg(Reg::R5)) << 32) | u64::from(cpu.reg(Reg::R4))) as i64;
        assert_eq!(signed, -5);
    }

    #[test]
    fn ldm_occupies_lsu_for_n_beats() {
        // Back-to-back 4-register ldm pairs take ~4 cycles each.
        let src = "
            mov r10, #0x400
            trig #1
            ldmia r10, {r0-r3}
            ldmia r10, {r4-r7}
            trig #0
            halt
        ";
        let program = assemble(src).unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        let mut obs = RecordingObserver::new();
        cpu.run(&mut obs).unwrap();
        let window = obs.triggers[1].0 - obs.triggers[0].0;
        // Without beat occupancy the second ldm would issue one cycle
        // after the first (window ~3); the busy LSU delays it by the
        // four beats of the first transfer.
        assert!(
            window >= 6,
            "second ldm must wait out the first's beats, got {window}"
        );
    }

    #[test]
    fn image_too_large_is_rejected() {
        let mut config = UarchConfig::cortex_a7();
        config.mem_size = 64;
        let program = Program::from_words(0, vec![0u32; 64]);
        let mut cpu = Cpu::new(config);
        assert!(matches!(
            cpu.load(&program),
            Err(UarchError::ImageTooLarge { .. })
        ));
    }
}
