//! Exact pins of the one-lane pipeline: a 64-bit FNV-1a digest of the
//! full observer stream of a run — every node event (cycle, node,
//! before, after), every trigger edge and every retirement — followed by
//! the run's final `ExecStats` and registers, for every portfolio target
//! at three fixed inputs, the seven Table 2 kernels, a mixed
//! datapath kernel and a control-flow kernel under every `UarchConfig`
//! ablation the conformance suite sweeps, plus the exact CPI of all 49
//! Table 1 cells as `f64` bit patterns.
//!
//! The `sca-isa` interpreter checks what the pipeline computes; these
//! pins check *when* and *where* it computes it, so any change to the
//! pipeline's timing or event order fails here with the case named.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_target::portfolio;
use superscalar_sca::core::{table2_benchmarks, DualIssueMap};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::uarch::{Cpu, DualIssuePolicy, RecordingObserver, UarchConfig};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of one finished run: its observer stream, then its stats and
/// registers.
fn digest(cpu: &Cpu, rec: &RecordingObserver) -> u64 {
    let mut h = Fnv::new();
    h.u64(rec.events.len() as u64);
    for e in &rec.events {
        h.u64(e.cycle);
        h.u64(e.node.dense_index() as u64);
        h.u32(e.before);
        h.u32(e.after);
    }
    h.u64(rec.triggers.len() as u64);
    for &(cycle, high) in &rec.triggers {
        h.u64(cycle);
        h.bytes(&[u8::from(high)]);
    }
    h.u64(rec.retirements.len() as u64);
    for &(cycle, addr) in &rec.retirements {
        h.u64(cycle);
        h.u32(addr);
    }
    let s = cpu.stats();
    for v in [
        s.cycles,
        s.instructions,
        s.dual_issue_cycles,
        s.single_issue_cycles,
        s.raw_stalls,
        s.flags_stalls,
        s.frontend_stalls,
        s.structural_stalls,
        s.taken_branches,
        s.branches,
        s.policy_rejections,
        s.icache_misses,
        s.dcache_misses,
    ] {
        h.u64(v);
    }
    for i in 0..16u8 {
        h.u32(cpu.reg(Reg::from_index(i).expect("register index")));
    }
    h.0
}

/// Runs `cpu` to completion under a recorder and digests the run.
fn run_digest(cpu: &mut Cpu) -> u64 {
    let mut rec = RecordingObserver::new();
    cpu.run(&mut rec).expect("pinned runs complete");
    digest(cpu, &rec)
}

/// Values through the ALU, shifter, multiplier, align buffer and MDR
/// (straight-line; one input word at 0x100).
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

/// Loops, calls, returns through `bx`, `pop {pc}` and `mov pc`,
/// conditional execution, flag-setting multiplies and long multiplies
/// (one input word at 0x200).
const BRANCHY_SRC: &str = "
        mov sp, #0x800
        adr r10, data
        ldr r0, [r10]
        trig #1
        mov r1, #6
        mov r2, #0
loop:   add r2, r2, r0, lsr r1
        mla r3, r2, r1, r0
        subs r1, r1, #1
        bne loop
        bl leaf
        bl nested
        cmp r2, r3
        movhi r4, r2
        movls r4, r3
        umull r5, r6, r4, r0
        smull r7, r8, r6, r5
        muls r9, r7, r7
        strh r9, [r10, #6]
        ldrb r11, [r10, #7]
        adr r12, after
        mov pc, r12
        mov r4, #0
after:  stmia r10, {r2, r3, r4}
        ldmia r10, {r5, r6, r7}
        trig #0
        halt
leaf:   eor r3, r3, r2, ror #3
        bx lr
nested: push {r4, r5, lr}
        mov r4, #3
        add r5, r4, r3
        pop {r4, r5, pc}
        .org 0x200
data:   .word 0
        .word 0
        .word 0
        .word 0
";

/// Fixed pseudo-random input words.
const WORDS: [u32; 3] = [0xdead_beef, 0x0000_0000, 0x1357_9bdf];

/// The ablation matrix of `tests/uarch_conformance.rs`.
fn ablations() -> Vec<(&'static str, UarchConfig)> {
    let a7 = UarchConfig::cortex_a7;
    let mut quiet = a7().with_ideal_memory();
    quiet.nop_zeroes_wb = false;
    quiet.nop_drives_operand_buses = false;
    quiet.align_buffer = false;
    let mut no_fwd = a7().with_ideal_memory();
    no_fwd.forwarding = false;
    let mut aggressive = a7().with_ideal_memory();
    aggressive.policy = DualIssuePolicy::structural_only();
    vec![
        ("cortex_a7 ideal", a7().with_ideal_memory()),
        ("cortex_a7 cached", a7()),
        ("scalar", UarchConfig::scalar().with_ideal_memory()),
        ("scalar cached", UarchConfig::scalar()),
        ("no forwarding", no_fwd),
        ("structural-only policy", aggressive),
        ("quiet leakage knobs", quiet),
    ]
}

/// Checks every `(case, digest)` against the pins, reporting all
/// mismatches at once.
fn check(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let mismatches: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|((name, digest), (pin_name, pin))| name != pin_name || digest != pin)
        .map(|((name, digest), (pin_name, pin))| {
            format!("{name}: {digest:#018x} (pinned {pin_name}: {pin:#018x})")
        })
        .collect();
    let listing: String = actual
        .iter()
        .map(|(name, digest)| format!("        ({name:?}, {digest:#018x}),\n"))
        .collect();
    assert!(
        mismatches.is_empty() && actual.len() == pinned.len(),
        "{} of {} pins moved:\n{}\nactual digests:\n{listing}",
        mismatches.len(),
        pinned.len(),
        mismatches.join("\n"),
    );
}

#[test]
fn portfolio_targets_are_pinned() {
    let uarch = UarchConfig::cortex_a7();
    let mut actual = Vec::new();
    for target in portfolio() {
        let template = target.build(&uarch).expect("target builds");
        let entry = target.program().entry();
        for i in 0..3usize {
            let mut rng = StdRng::seed_from_u64(0x9140 + i as u64);
            let input = target.generate(&mut rng, i);
            let mut cpu = template.clone();
            cpu.restart_seeded(entry, 0x5eed + i as u64);
            target.stage(&mut cpu, &input);
            actual.push((format!("{} #{i}", target.name()), run_digest(&mut cpu)));
        }
    }
    check(&actual, PORTFOLIO_PINS);
}

#[test]
fn table2_kernels_are_pinned() {
    let mut actual = Vec::new();
    for bench in table2_benchmarks() {
        let mut cpu = Cpu::new(UarchConfig::cortex_a7());
        cpu.load(bench.program()).expect("kernel loads");
        bench.stage(&mut cpu, &vec![0u8; bench.input_words * 4]);
        cpu.run(&mut RecordingObserver::new()).expect("warm-up");
        let input: Vec<u8> = (0..bench.input_words * 4)
            .map(|b| (b as u8).wrapping_mul(37).wrapping_add(11))
            .collect();
        cpu.restart_seeded(bench.program().entry(), 77);
        bench.stage(&mut cpu, &input);
        actual.push((format!("table2 row {}", bench.row), run_digest(&mut cpu)));
    }
    check(&actual, TABLE2_PINS);
}

#[test]
fn kernels_are_pinned_under_every_ablation() {
    let mut actual = Vec::new();
    for (config_name, config) in ablations() {
        for (kernel, src, data) in [("mix", MIX_SRC, 0x100), ("branchy", BRANCHY_SRC, 0x200)] {
            let program = assemble(src).expect("kernel assembles");
            let mut cpu = Cpu::new(config.clone());
            cpu.load(&program).expect("kernel loads");
            // A cold first run (cache misses), then warm reruns.
            cpu.mem_mut().write_u32(data, WORDS[0]).expect("data word");
            actual.push((
                format!("{kernel} cold / {config_name}"),
                run_digest(&mut cpu),
            ));
            for (i, &word) in WORDS.iter().enumerate() {
                cpu.restart_seeded(program.entry(), 0x1000 + 7 * i as u64);
                cpu.mem_mut().write_u32(data, word).expect("data word");
                actual.push((
                    format!("{kernel} warm #{i} / {config_name}"),
                    run_digest(&mut cpu),
                ));
            }
        }
    }
    check(&actual, KERNEL_PINS);
}

#[test]
fn table1_cpis_are_pinned_bit_for_bit() {
    let map = DualIssueMap::measure(&UarchConfig::cortex_a7()).expect("table 1 measures");
    let actual: Vec<(String, u64)> = map
        .cpi
        .iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(move |(j, cpi)| (format!("cpi[{i}][{j}]"), cpi.to_bits()))
        })
        .collect();
    check(&actual, CPI_PINS);
}

const PORTFOLIO_PINS: &[(&str, u64)] = &[
    ("aes128 #0", 0xcbfecb9a03d399fa),
    ("aes128 #1", 0xd032968daebe8291),
    ("aes128 #2", 0x66db20115ff07f35),
    ("aes128-masked #0", 0x5ae044ea2968b510),
    ("aes128-masked #1", 0x3e97e9cbbb10b73d),
    ("aes128-masked #2", 0x80c2c4667fc2efe0),
    ("speck64128 #0", 0x17ae564b95693e56),
    ("speck64128 #1", 0x974ca9f50ca72215),
    ("speck64128 #2", 0x3d7bce81bb38c66d),
    ("present80 #0", 0x60ad5a3332ecf70f),
    ("present80 #1", 0x1aae58adf5b3e861),
    ("present80 #2", 0x0f9acfc0316b8ff5),
];

const TABLE2_PINS: &[(&str, u64)] = &[
    ("table2 row 1", 0x758ece2f26f86ecd),
    ("table2 row 2", 0x794e6857e66d8212),
    ("table2 row 3", 0x217ca8cad3c006f7),
    ("table2 row 4", 0x0b8c9039c68c81d5),
    ("table2 row 5", 0xe5134fa073b2997a),
    ("table2 row 6", 0xf88441b21002aaf2),
    ("table2 row 7", 0x1e713b31f8a1a32f),
];

const KERNEL_PINS: &[(&str, u64)] = &[
    ("mix cold / cortex_a7 ideal", 0x907843bbc744945c),
    ("mix warm #0 / cortex_a7 ideal", 0x202f160db1d1ae82),
    ("mix warm #1 / cortex_a7 ideal", 0x7b56ebd06692f295),
    ("mix warm #2 / cortex_a7 ideal", 0x0d63d38c0d5f25e5),
    ("branchy cold / cortex_a7 ideal", 0x966d32870c4762e2),
    ("branchy warm #0 / cortex_a7 ideal", 0x4e79d784269c2d4f),
    ("branchy warm #1 / cortex_a7 ideal", 0x42ab909376fa35e7),
    ("branchy warm #2 / cortex_a7 ideal", 0xf910401728ec4220),
    ("mix cold / cortex_a7 cached", 0x9be983bebac9651a),
    ("mix warm #0 / cortex_a7 cached", 0x202f160db1d1ae82),
    ("mix warm #1 / cortex_a7 cached", 0x7b56ebd06692f295),
    ("mix warm #2 / cortex_a7 cached", 0x0d63d38c0d5f25e5),
    ("branchy cold / cortex_a7 cached", 0x3703846b3daef906),
    ("branchy warm #0 / cortex_a7 cached", 0x4e79d784269c2d4f),
    ("branchy warm #1 / cortex_a7 cached", 0x42ab909376fa35e7),
    ("branchy warm #2 / cortex_a7 cached", 0xf910401728ec4220),
    ("mix cold / scalar", 0xeccc14bf439bdf09),
    ("mix warm #0 / scalar", 0x8f1471ebcd775d93),
    ("mix warm #1 / scalar", 0xc52091d02237a620),
    ("mix warm #2 / scalar", 0x203f9cac3eecc3e0),
    ("branchy cold / scalar", 0x52b007c6f7b47cbf),
    ("branchy warm #0 / scalar", 0x8c610499575416c6),
    ("branchy warm #1 / scalar", 0xc6add6d0ca8b9c0f),
    ("branchy warm #2 / scalar", 0x681e18f5f6d87719),
    ("mix cold / scalar cached", 0x5f6b72caabc36edf),
    ("mix warm #0 / scalar cached", 0x8f1471ebcd775d93),
    ("mix warm #1 / scalar cached", 0xc52091d02237a620),
    ("mix warm #2 / scalar cached", 0x203f9cac3eecc3e0),
    ("branchy cold / scalar cached", 0x74ac7a81e45fc42c),
    ("branchy warm #0 / scalar cached", 0x8c610499575416c6),
    ("branchy warm #1 / scalar cached", 0xc6add6d0ca8b9c0f),
    ("branchy warm #2 / scalar cached", 0x681e18f5f6d87719),
    ("mix cold / no forwarding", 0x370c648bb7f35e72),
    ("mix warm #0 / no forwarding", 0xc417afcf1c7f17d0),
    ("mix warm #1 / no forwarding", 0x474718b3b9c028b7),
    ("mix warm #2 / no forwarding", 0xc617fcabd21fa667),
    ("branchy cold / no forwarding", 0x1dadc2cc26a58913),
    ("branchy warm #0 / no forwarding", 0x3a77b42296fbc49a),
    ("branchy warm #1 / no forwarding", 0x535b60b45768e0ea),
    ("branchy warm #2 / no forwarding", 0xaf5606f58a60c41d),
    ("mix cold / structural-only policy", 0x907843bbc744945c),
    ("mix warm #0 / structural-only policy", 0x202f160db1d1ae82),
    ("mix warm #1 / structural-only policy", 0x7b56ebd06692f295),
    ("mix warm #2 / structural-only policy", 0x0d63d38c0d5f25e5),
    ("branchy cold / structural-only policy", 0xe8abea47a77d89ef),
    (
        "branchy warm #0 / structural-only policy",
        0xee3cd614277341f2,
    ),
    (
        "branchy warm #1 / structural-only policy",
        0xce4c0518dd094666,
    ),
    (
        "branchy warm #2 / structural-only policy",
        0xa30d681668897ad9,
    ),
    ("mix cold / quiet leakage knobs", 0x1c107b7cc3ce5633),
    ("mix warm #0 / quiet leakage knobs", 0xe3b8f232887d424b),
    ("mix warm #1 / quiet leakage knobs", 0x23c4e6340fbc123b),
    ("mix warm #2 / quiet leakage knobs", 0x695fdcd809323c06),
    ("branchy cold / quiet leakage knobs", 0xab5b63b1639164b5),
    ("branchy warm #0 / quiet leakage knobs", 0x05203247727ea3f8),
    ("branchy warm #1 / quiet leakage knobs", 0x1770a18b53050495),
    ("branchy warm #2 / quiet leakage knobs", 0x59579838dca60e65),
];

const CPI_PINS: &[(&str, u64)] = &[
    ("cpi[0][0]", 0x3fe0000000000000),
    ("cpi[0][1]", 0x3fe0000000000000),
    ("cpi[0][2]", 0x3fe0000000000000),
    ("cpi[0][3]", 0x3ff0000000000000),
    ("cpi[0][4]", 0x3fe0000000000000),
    ("cpi[0][5]", 0x3fe0000000000000),
    ("cpi[0][6]", 0x3ff0000000000000),
    ("cpi[1][0]", 0x3fe0000000000000),
    ("cpi[1][1]", 0x3ff0000000000000),
    ("cpi[1][2]", 0x3fe0000000000000),
    ("cpi[1][3]", 0x3ff0000000000000),
    ("cpi[1][4]", 0x3ff0000000000000),
    ("cpi[1][5]", 0x3fe0000000000000),
    ("cpi[1][6]", 0x3ff0000000000000),
    ("cpi[2][0]", 0x3fe0000000000000),
    ("cpi[2][1]", 0x3fe0000000000000),
    ("cpi[2][2]", 0x3fe0000000000000),
    ("cpi[2][3]", 0x3ff0000000000000),
    ("cpi[2][4]", 0x3fe0000000000000),
    ("cpi[2][5]", 0x3fe0000000000000),
    ("cpi[2][6]", 0x3fe0000000000000),
    ("cpi[3][0]", 0x3ff0000000000000),
    ("cpi[3][1]", 0x3ff0000000000000),
    ("cpi[3][2]", 0x3ff0000000000000),
    ("cpi[3][3]", 0x3ff0000000000000),
    ("cpi[3][4]", 0x3ff0000000000000),
    ("cpi[3][5]", 0x3fe0000000000000),
    ("cpi[3][6]", 0x3ff0000000000000),
    ("cpi[4][0]", 0x3ff0000000000000),
    ("cpi[4][1]", 0x3ff0000000000000),
    ("cpi[4][2]", 0x3fe0000000000000),
    ("cpi[4][3]", 0x3ff0000000000000),
    ("cpi[4][4]", 0x3ff0000000000000),
    ("cpi[4][5]", 0x3fe0000000000000),
    ("cpi[4][6]", 0x3ff0000000000000),
    ("cpi[5][0]", 0x3fe0000000000000),
    ("cpi[5][1]", 0x3fe0000000000000),
    ("cpi[5][2]", 0x3fe0000000000000),
    ("cpi[5][3]", 0x3fe0000000000000),
    ("cpi[5][4]", 0x3fe0000000000000),
    ("cpi[5][5]", 0x3ff0000000000000),
    ("cpi[5][6]", 0x3fe0000000000000),
    ("cpi[6][0]", 0x3fe0000000000000),
    ("cpi[6][1]", 0x3ff0000000000000),
    ("cpi[6][2]", 0x3fe0000000000000),
    ("cpi[6][3]", 0x3ff0000000000000),
    ("cpi[6][4]", 0x3ff0000000000000),
    ("cpi[6][5]", 0x3fe0000000000000),
    ("cpi[6][6]", 0x3ff0000000000000),
];
