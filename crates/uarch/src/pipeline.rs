//! The cycle-level pipeline, for one lane and for many.
//!
//! An in-order, partial dual-issue, 8-stage-equivalent pipeline modeled
//! after the ARM Cortex-A7 as characterized in the paper:
//!
//! ```text
//!            ┌────────────┐  3 operand buses   ┌─ ALU0 (shifter, mul, 3-stage)
//!  Fetch ──▶ │ Prefetch   │ ──▶ Decode ──▶ Issue ──┼─ ALU1 (1-stage)
//!  (2/cyc)   │ buffer     │        ▲  RF 3R/2W └─ LSU  (3-stage, MDR, align)
//!            └────────────┘        │ immediate path
//!                           write-back buses (2) ◀── EX/WB buffers
//! ```
//!
//! Architectural execution is eager (results computed at issue) while the
//! *timing* — forwarding latencies, dual-issue legality, retire-port
//! arbitration, cache penalties — is modeled cycle by cycle. Every buffer
//! from Figure 2 of the paper is a tracked [`Node`] whose transitions are
//! streamed to a [`PipelineObserver`].
//!
//! One [`Core`] body serves both uses. The timing state — front end,
//! scoreboard, LSU occupancy, retire queue, event queue, statistics — is
//! held once; registers, flags, memory, caches and node values are held
//! per [`Lane`]. [`Cpu`] is the one-lane core. [`CpuBlock`] steps up to
//! [`MAX_LANES`] traces of a constant-time program in lockstep: the
//! portfolio ciphers execute the same instructions with the same timing
//! on every input, so the shared control path runs once per block while
//! each lane's event stream stays byte-identical to a one-lane run of
//! it.
//!
//! Lockstep is checked as it runs: every control-relevant quantity
//! (conditional outcomes, branch targets, cache penalties, fetched
//! words) must agree across lanes where it would influence timing. A
//! one-lane core has nothing to compare, so the checks compile away and
//! a fault surfaces as a [`UarchError`]. A block reports every mismatch
//! and every fault as a [`Divergence`]; callers then re-run the traces
//! one lane at a time, so divergence costs throughput, never results.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};

use sca_isa::{
    apply_shift, decode, eval_dp, eval_mul, Flags, Insn, InsnClass, InsnKind, MemDir, MemMultiMode,
    MemOffset, MemSize, Operand2, Program, Reg, ShiftAmount,
};

use crate::{
    CacheCounts, CacheHierarchy, ExecStats, Memory, Node, NodeEvent, NodeState, Pipe,
    PipelineObserver, StallCause, UarchConfig, UarchError,
};

/// Maximum number of lanes a [`CpuBlock`] can step at once.
pub const MAX_LANES: usize = 8;

/// The one-lane core: the simulated CPU.
///
/// ```
/// use sca_isa::assemble;
/// use sca_uarch::{Cpu, NullObserver, UarchConfig};
///
/// let program = assemble("
///     mov r0, #21
///     add r0, r0, r0
///     halt
/// ")?;
/// let mut cpu = Cpu::new(UarchConfig::cortex_a7());
/// cpu.load(&program)?;
/// let stats = cpu.run(&mut NullObserver)?;
/// assert_eq!(cpu.reg(sca_isa::Reg::R0), 42);
/// assert!(stats.instructions >= 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// `Cpu` dereferences to its [`Lane`], which holds the registers,
/// memory and caches. It is `Clone`: acquisition pipelines clone one
/// warmed-up CPU per worker thread so every trace starts from identical
/// cache state.
pub type Cpu = Core<1>;

/// The lockstep core: up to [`MAX_LANES`] lanes behind one pipeline
/// control path, built from a warmed template [`Cpu`] with
/// [`Core::from_template`].
pub type CpuBlock = Core<MAX_LANES>;

/// The lockstep invariant broke: some per-lane quantity that the shared
/// control path depends on differed across lanes (or a lane faulted).
///
/// This is not a simulator error — it means the block fast path does
/// not apply to these traces, and the caller must re-run them through
/// the one-lane [`Cpu`], which reproduces byte-identical results (and
/// surfaces any genuine fault with full fidelity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// What broke lockstep, for diagnostics.
    pub reason: &'static str,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lockstep divergence: {}", self.reason)
    }
}

impl std::error::Error for Divergence {}

/// Why a run stopped before draining: a lane faulted, or the lanes
/// stopped agreeing. [`LaneCount::stopped`] turns it into the error a
/// core's callers see. The reason is held by a thin reference so a
/// `Result<_, Stop>` stays two words and returns in registers on the
/// per-cycle path.
#[derive(Clone, Debug)]
pub enum Stop {
    /// A lane faulted.
    Fault(UarchError),
    /// Lanes disagreed on a control-relevant quantity.
    Diverged(&'static &'static str),
}

impl From<UarchError> for Stop {
    fn from(error: UarchError) -> Stop {
        Stop::Fault(error)
    }
}

/// A lane count a [`Core`] is built at, and the error its runs stop
/// with: a [`Cpu`] surfaces faults as [`UarchError`]s, a [`CpuBlock`]
/// reports every fault and mismatch as a [`Divergence`].
pub trait LaneCount {
    /// The error [`Core::run`] returns.
    type Error: std::error::Error + Send + Sync + 'static;

    /// Maps the pipeline's stop reason to [`LaneCount::Error`].
    #[doc(hidden)]
    fn stopped(stop: Stop) -> Self::Error;
}

impl LaneCount for Cpu {
    type Error = UarchError;

    fn stopped(stop: Stop) -> UarchError {
        match stop {
            Stop::Fault(error) => error,
            // Lockstep checks compare lanes 1.., which one lane lacks.
            Stop::Diverged(reason) => unreachable!("one lane diverged: {reason}"),
        }
    }
}

impl LaneCount for CpuBlock {
    type Error = Divergence;

    fn stopped(stop: Stop) -> Divergence {
        let reason = match stop {
            Stop::Diverged(reason) => *reason,
            Stop::Fault(UarchError::BadInstruction { .. }) => {
                "undecodable instruction reached issue"
            }
            Stop::Fault(UarchError::CycleBudgetExceeded(_)) => "cycle budget exceeded",
            Stop::Fault(_) => "memory fault inside a lockstep block",
        };
        Divergence { reason }
    }
}

/// One lane's architectural and node state: registers, flags, memory,
/// caches and the values on every tracked node.
#[derive(Clone, Debug)]
pub struct Lane {
    regs: [u32; 16],
    flags: Flags,
    mem: Memory,
    icache: CacheHierarchy,
    dcache: CacheHierarchy,
    nodes: NodeState,
}

impl Lane {
    fn new(config: &UarchConfig) -> Lane {
        Lane {
            regs: [0; 16],
            flags: Flags::default(),
            mem: Memory::new(config.mem_size),
            icache: CacheHierarchy::new(config.icache, config.l2, config.memory_latency),
            dcache: CacheHierarchy::new(config.dcache, config.l2, config.memory_latency),
            nodes: NodeState::new(),
        }
    }

    /// Current value of a register.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Sets a register (for staging benchmark inputs).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        self.regs[reg.index()] = value;
    }

    /// Current architectural flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Sets the architectural flags.
    pub fn set_flags(&mut self, flags: Flags) {
        self.flags = flags;
    }

    /// Direct memory access for staging inputs and reading outputs.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable direct memory access.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Returns the hit/miss counts accumulated by every cache instance
    /// since the last drain, and zeroes them. Cache *lines* are
    /// untouched — timing, and therefore every trace, is unaffected.
    ///
    /// Campaign workers drain their template clone once at arena
    /// creation (discarding the warm-up counts the clone inherited) and
    /// then per batch, attributing the deltas to telemetry.
    pub fn drain_cache_counts(&mut self) -> CacheCounts {
        let ((l1i_hits, l1i_misses), (l2i_hits, l2i_misses)) = self.icache.drain_counts();
        let ((l1d_hits, l1d_misses), (l2d_hits, l2d_misses)) = self.dcache.drain_counts();
        CacheCounts {
            l1i_hits,
            l1i_misses,
            l1d_hits,
            l1d_misses,
            l2_hits: l2i_hits + l2d_hits,
            l2_misses: l2i_misses + l2d_misses,
        }
    }

    /// Reads a register as an operand (PC reads yield `addr + 8`).
    fn operand(&self, reg: Reg, addr: u32) -> u32 {
        if reg == Reg::PC {
            addr.wrapping_add(8)
        } else {
            self.regs[reg.index()]
        }
    }
}

/// Per-lane values of one quantity (entries past the active lanes are
/// unused).
type Vals<const N: usize> = [u32; N];

/// One instruction sitting in the front end (fetched, being decoded).
#[derive(Clone, Copy, Debug)]
struct FrontendEntry {
    addr: u32,
    /// `Err` marks a word that did not decode; it only faults if issue
    /// actually reaches it (the fetch unit runs ahead of `halt`).
    insn: Result<Insn, u32>,
    /// Cycle from which the instruction is visible to the issue stage.
    ready_at: u64,
}

/// An instruction in flight between issue and retirement.
#[derive(Clone, Copy, Debug)]
struct RetireEntry<const N: usize> {
    addr: u32,
    insn: Insn,
    complete_at: u64,
    /// Result values bound for the register file (drive EX/WB nodes).
    wb: Option<Vals<N>>,
    /// Pipe that produced the result.
    pipe: Option<Pipe>,
    /// Retiring `nop`s reset the write-back buses.
    is_nop: bool,
}

/// A node assertion scheduled for a future cycle (e.g. a load's MDR
/// update three cycles after issue), one value per lane.
#[derive(Clone, Copy, Debug)]
struct PendingEvent<const N: usize> {
    node: Node,
    values: Vals<N>,
    precharged: bool,
}

/// The future-event queue: one slot of pending node assertions per
/// upcoming cycle, kept as a ring so the hot `schedule`/`drain` pair
/// never touches an ordered map. Slot vectors are recycled through a
/// small pool — after the first few traces of a campaign the queue runs
/// allocation-free.
#[derive(Clone, Debug)]
struct EventQueue<T> {
    /// `slots[i]` holds the events for cycle `base + i`, in scheduling
    /// order (the order observers must see them in).
    slots: VecDeque<Vec<T>>,
    /// Cycle the front slot corresponds to.
    base: u64,
    /// Drained slot vectors awaiting reuse.
    pool: Vec<Vec<T>>,
}

impl<T> EventQueue<T> {
    fn new() -> EventQueue<T> {
        EventQueue {
            slots: VecDeque::new(),
            base: 0,
            pool: Vec::new(),
        }
    }

    /// Empties the queue (keeping slot capacity for reuse) and re-bases
    /// it at cycle zero.
    fn clear(&mut self) {
        while let Some(slot) = self.slots.pop_front() {
            self.recycle(slot);
        }
        self.base = 0;
    }

    /// Appends an event at cycle `at` (which must not be in the past —
    /// the pipeline only schedules into future cycles).
    fn push(&mut self, at: u64, event: T) {
        debug_assert!(at >= self.base, "scheduling into the past");
        let index = (at - self.base) as usize;
        while self.slots.len() <= index {
            self.slots.push_back(self.pool.pop().unwrap_or_default());
        }
        self.slots[index].push(event);
    }

    /// Removes and returns the events due at `cycle`, advancing the ring
    /// past it. Returns `None` when the cycle has no events; the slot
    /// vector must be handed back through [`EventQueue::recycle`].
    fn drain(&mut self, cycle: u64) -> Option<Vec<T>> {
        while self.base < cycle {
            if let Some(slot) = self.slots.pop_front() {
                debug_assert!(slot.is_empty(), "skipped a cycle with pending events");
                self.recycle(slot);
            }
            self.base += 1;
        }
        if self.base == cycle {
            if let Some(slot) = self.slots.pop_front() {
                self.base += 1;
                if !slot.is_empty() {
                    return Some(slot);
                }
                self.pool.push(slot);
            }
        }
        None
    }

    /// Returns a drained slot vector to the reuse pool.
    fn recycle(&mut self, mut slot: Vec<T>) {
        slot.clear();
        self.pool.push(slot);
    }
}

/// Operand-bus values gathered during one dispatch — at most three (the
/// register file has three read ports), kept on the stack so the issue
/// stage never allocates.
#[derive(Clone, Copy)]
struct BusList<const N: usize> {
    values: [Vals<N>; 3],
    len: usize,
}

impl<const N: usize> BusList<N> {
    fn new() -> BusList<N> {
        BusList {
            values: [[0; N]; 3],
            len: 0,
        }
    }

    fn push(&mut self, values: Option<Vals<N>>) {
        if let Some(values) = values {
            self.values[self.len] = values;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[Vals<N>] {
        &self.values[..self.len]
    }
}

/// The pipeline over up to `N` lanes, used through the [`Cpu`] and
/// [`CpuBlock`] aliases. Timing state (front end, hazard scoreboard, LSU
/// occupancy, retire queue, event queue, statistics) is held once;
/// registers, flags, memory, caches and node values are held per
/// [`Lane`]. Lanes step in lockstep and must agree on every quantity
/// that steers timing; with one lane those checks compile away.
///
/// A core holds up to `N` lanes (its capacity, set at construction);
/// each restart drives the first `seeds.len()` of them.
#[derive(Clone, Debug)]
pub struct Core<const N: usize> {
    config: UarchConfig,
    /// The lanes, held inline so a one-lane core reaches its state
    /// without an indirection.
    lanes: [Lane; N],
    /// Lanes the core was built with (`lanes[capacity..]` are unused).
    capacity: usize,
    /// Lanes driven by the current run.
    active: usize,

    pc: u32,
    cycle: u64,
    halted: bool,
    frontend: VecDeque<FrontendEntry>,
    fetch_ready_at: u64,
    lsu_ready_at: u64,
    reg_ready: [u64; 16],
    flags_ready: u64,
    retire_queue: VecDeque<RetireEntry<N>>,
    pending: EventQueue<PendingEvent<N>>,
    stats: ExecStats,
    /// Monotonic restart counter seeding the node-state scramble.
    restart_seq: u64,
}

impl Cpu {
    /// Resets pipeline state (front end, in-flight instructions, node
    /// values, statistics, cycle counter) and re-points fetch at `entry`,
    /// while **keeping memory contents, register values and cache state**.
    ///
    /// This is the "measure the executions following the first one"
    /// protocol from the paper: run once to warm the caches, then
    /// `restart` and measure.
    pub fn restart(&mut self, entry: u32) {
        self.restart_seq += 1;
        self.restart_seeded(entry, self.restart_seq);
    }

    /// Like [`Cpu::restart`], but scrambles the stale node state with an
    /// explicit seed, making runs reproducible independently of how many
    /// restarts this particular `Cpu` instance has seen (acquisition
    /// pipelines derive the seed from the trace/execution index so that
    /// worker threading cannot change results).
    ///
    /// This is the per-execution *reset* of the trace-generation fast
    /// path: a campaign worker keeps one staged `Cpu` for its whole
    /// index range and calls this between executions instead of
    /// re-constructing and re-loading a simulator. Nothing here
    /// allocates once the worker is warm, while register values, memory
    /// contents and cache state persist exactly as they do across
    /// executions on silicon.
    pub fn restart_seeded(&mut self, entry: u32, scramble_seed: u64) {
        self.restart_lanes(entry, &[scramble_seed]);
    }
}

impl Deref for Cpu {
    type Target = Lane;

    fn deref(&self) -> &Lane {
        &self.lanes[0]
    }
}

impl DerefMut for Cpu {
    fn deref_mut(&mut self) -> &mut Lane {
        &mut self.lanes[0]
    }
}

impl CpuBlock {
    /// Drains the cache hit/miss counters of the first `count` lanes
    /// (see [`Lane::drain_cache_counts`]) and returns their sum. Callers
    /// use this to attribute cache work to committed lockstep groups
    /// (draining only the active lanes) or to discard it (draining every
    /// lane after a divergence or right after construction, when the
    /// counts are template warm-up inheritance).
    pub fn drain_cache_counts(&mut self, count: usize) -> CacheCounts {
        let mut total = CacheCounts::default();
        for lane in &mut self.lanes[..count] {
            total.accumulate(&lane.drain_cache_counts());
        }
        total
    }
}

impl<const N: usize> Core<N> {
    /// Builds a core of `N` lanes with zeroed registers and memory.
    pub fn new(config: UarchConfig) -> Core<N> {
        let lanes = std::array::from_fn(|_| Lane::new(&config));
        Core::with_lanes(config, lanes, N)
    }

    /// Builds a core of `lanes` clones of `template`'s lane (so caches
    /// and memory begin identical).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=N`.
    pub fn from_template(template: &Cpu, lanes: usize) -> Core<N> {
        assert!(
            (1..=N).contains(&lanes),
            "lane count {lanes} outside 1..={N}"
        );
        let config = template.config.clone();
        // Slots past the capacity are never driven; fresh lanes leave
        // their zeroed memory untouched.
        let slots = std::array::from_fn(|l| {
            if l < lanes {
                template.lanes[0].clone()
            } else {
                Lane::new(&config)
            }
        });
        Core::with_lanes(config, slots, lanes)
    }

    fn with_lanes(config: UarchConfig, lanes: [Lane; N], capacity: usize) -> Core<N> {
        Core {
            config,
            lanes,
            capacity,
            active: capacity,
            pc: 0,
            cycle: 0,
            halted: false,
            frontend: VecDeque::new(),
            fetch_ready_at: 0,
            lsu_ready_at: 0,
            reg_ready: [0; 16],
            flags_ready: 0,
            retire_queue: VecDeque::new(),
            pending: EventQueue::new(),
            stats: ExecStats::default(),
            restart_seq: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &UarchConfig {
        &self.config
    }

    /// The core's lane capacity.
    pub fn max_lanes(&self) -> usize {
        self.capacity
    }

    /// One lane (for staging inputs and reading results).
    pub fn lane(&self, lane: usize) -> &Lane {
        &self.lanes[lane]
    }

    /// Mutable access to one lane.
    pub fn lane_mut(&mut self, lane: usize) -> &mut Lane {
        &mut self.lanes[lane]
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Loads a program image into every lane and points the fetch unit
    /// at its entry.
    ///
    /// # Errors
    ///
    /// [`UarchError::ImageTooLarge`] if the image does not fit in RAM.
    pub fn load(&mut self, program: &Program) -> Result<(), UarchError> {
        let end = program.base() + program.len_bytes();
        let mem_size = self.config.mem_size;
        if end > mem_size {
            return Err(UarchError::ImageTooLarge { end, mem_size });
        }
        for lane in &mut self.lanes[..self.capacity] {
            for (i, word) in program.words().iter().enumerate() {
                lane.mem.write_u32(program.base() + (i as u32) * 4, *word)?;
            }
        }
        self.pc = program.entry();
        Ok(())
    }

    /// Restarts lanes `0..scramble_seeds.len()` at `entry`, each lane's
    /// stale node state scrambled with its own seed (stale buffer
    /// contents persist across executions on silicon; scrambling rather
    /// than zeroing avoids fabricating Hamming-weight leaks on first use
    /// while staying deterministic), and resets the pipeline state,
    /// statistics and cycle counter. Registers, memory and caches
    /// persist; lanes beyond the seed count are left untouched and not
    /// driven by the next run.
    ///
    /// # Panics
    ///
    /// Panics if the seed count is zero or exceeds the lane capacity.
    pub fn restart_lanes(&mut self, entry: u32, scramble_seeds: &[u64]) {
        assert!(
            !scramble_seeds.is_empty() && scramble_seeds.len() <= self.capacity,
            "seed count {} outside 1..={}",
            scramble_seeds.len(),
            self.capacity
        );
        self.active = scramble_seeds.len();
        for (lane, &seed) in self.lanes.iter_mut().zip(scramble_seeds) {
            lane.nodes.scramble(seed);
        }
        self.pc = entry;
        self.halted = false;
        self.cycle = 0;
        self.stats = ExecStats::default();
        self.frontend.clear();
        self.retire_queue.clear();
        self.pending.clear();
        self.fetch_ready_at = 0;
        self.lsu_ready_at = 0;
        self.reg_ready = [0; 16];
        self.flags_ready = 0;
    }

    /// Runs the active lanes until `halt`, then drains in-flight
    /// instructions, streaming each lane's activity to `observer` in the
    /// order a one-lane run of it emits.
    ///
    /// # Errors
    ///
    /// A [`Cpu`] returns a [`UarchError`] for bad fetches and accesses
    /// and for an exhausted cycle budget. A [`CpuBlock`] returns a
    /// [`Divergence`] for those and for lanes that stop agreeing on
    /// control flow or timing; the caller must re-simulate the affected
    /// traces one lane at a time.
    pub fn run<O>(&mut self, observer: &mut O) -> Result<ExecStats, <Self as LaneCount>::Error>
    where
        Self: LaneCount,
        O: PipelineObserver + ?Sized,
    {
        self.execute(observer).map_err(Self::stopped)
    }

    fn execute<O: PipelineObserver + ?Sized>(
        &mut self,
        observer: &mut O,
    ) -> Result<ExecStats, Stop> {
        while !self.halted {
            if self.cycle >= self.config.max_cycles {
                return Err(UarchError::CycleBudgetExceeded(self.config.max_cycles).into());
            }
            self.step(observer)?;
        }
        // Drain in-flight instructions so their write-back activity and
        // retire counts are not lost; this costs trailing cycles outside
        // any measurement window.
        while !self.retire_queue.is_empty() {
            self.step(observer)?;
        }
        Ok(self.stats)
    }

    /// Advances one cycle.
    fn step<O: PipelineObserver + ?Sized>(&mut self, observer: &mut O) -> Result<(), Stop> {
        observer.begin_cycle(self.cycle);
        if let Some(events) = self.pending.drain(self.cycle) {
            for ev in &events {
                self.emit(observer, ev.node, &ev.values, ev.precharged);
            }
            self.pending.recycle(events);
        }
        self.retire(observer);
        if !self.halted {
            self.issue(observer)?;
            self.fetch(observer)?;
        }
        self.cycle += 1;
        self.stats.cycles += 1;
        Ok(())
    }

    // ---- lanes -----------------------------------------------------------

    /// Lanes driven by the current run (the constant 1 for one lane, so
    /// every per-lane loop and lockstep check compiles away).
    fn active(&self) -> usize {
        if N == 1 {
            1
        } else {
            self.active
        }
    }

    /// Asserts `values[l]` on `node` in every active lane this cycle and
    /// emits the lanes' events as one batch.
    fn emit<O: PipelineObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        node: Node,
        values: &Vals<N>,
        precharged: bool,
    ) {
        let cycle = self.cycle;
        let active = self.active();
        let mut batch = [NodeEvent {
            cycle,
            node,
            before: 0,
            after: 0,
        }; N];
        for ((event, lane), &value) in batch.iter_mut().zip(&mut self.lanes[..active]).zip(values) {
            *event = if precharged {
                lane.nodes.assert_precharged(cycle, node, value)
            } else {
                lane.nodes.assert(cycle, node, value)
            };
        }
        observer.node_events(&batch[..active]);
    }

    /// One value per active lane.
    fn each<T: Copy + Default>(&self, f: impl Fn(usize, &Lane) -> T) -> [T; N] {
        let mut out = [T::default(); N];
        for (l, lane) in self.lanes[..self.active()].iter().enumerate() {
            out[l] = f(l, lane);
        }
        out
    }

    /// One value per active lane, from a fallible lane operation.
    fn try_each<T: Copy + Default>(
        &mut self,
        mut f: impl FnMut(usize, &mut Lane) -> Result<T, UarchError>,
    ) -> Result<[T; N], Stop> {
        let active = self.active();
        let mut out = [T::default(); N];
        for (l, lane) in self.lanes[..active].iter_mut().enumerate() {
            out[l] = f(l, lane)?;
        }
        Ok(out)
    }

    /// Every active lane's value of `reg` as an operand.
    fn operands(&self, reg: Reg, addr: u32) -> Vals<N> {
        self.each(|_, lane| lane.operand(reg, addr))
    }

    /// Requires a control-relevant quantity to agree across the active
    /// lanes and returns it.
    fn agree<T: PartialEq>(
        &mut self,
        reason: &'static &'static str,
        mut f: impl FnMut(usize, &mut Lane) -> T,
    ) -> Result<T, Stop> {
        let active = self.active();
        let first = f(0, &mut self.lanes[0]);
        for (l, lane) in self.lanes[1..active].iter_mut().enumerate() {
            if f(l + 1, lane) != first {
                return Err(Stop::Diverged(reason));
            }
        }
        Ok(first)
    }

    /// The shared target of an indirect branch to `values`.
    fn branch_target(&mut self, values: &Vals<N>) -> Result<u32, Stop> {
        self.agree(&"indirect branch target differs across lanes", |l, _| {
            values[l] & !3
        })
    }

    /// The shared data-cache penalty of the lanes accessing `addrs`.
    fn dcache_access(&mut self, addrs: &Vals<N>) -> Result<u64, Stop> {
        self.agree(&"dcache penalty differs across lanes", |l, lane| {
            lane.dcache.access(addrs[l])
        })
    }

    /// Writes `values` to `reg` and marks it forwardable from `at`.
    fn write_reg(&mut self, reg: Reg, values: &Vals<N>, at: u64) {
        let active = self.active();
        for (lane, &value) in self.lanes[..active].iter_mut().zip(values) {
            lane.regs[reg.index()] = value;
        }
        self.reg_ready[reg.index()] = self.ready_cycle(at);
    }

    // ---- retire stage ----------------------------------------------------

    fn retire<O: PipelineObserver + ?Sized>(&mut self, observer: &mut O) {
        let cycle = self.cycle;
        let mut slot = 0u8;
        while slot < self.config.retire_width as u8 {
            let Some(head) = self.retire_queue.front() else {
                break;
            };
            if head.complete_at > cycle {
                break;
            }
            let entry = self.retire_queue.pop_front().expect("checked front");
            if entry.is_nop && self.config.nop_zeroes_wb {
                // The A7 nop flows to write-back as a bubble that resets
                // the buses — the source of the paper's † boundary
                // leakage.
                for bus in 0..self.config.retire_width as u8 {
                    self.emit(observer, Node::WbBus(bus), &[0; N], false);
                }
            } else if let Some(values) = entry.wb {
                if let Some(pipe) = entry.pipe {
                    self.emit(observer, Node::ExWbBuf(pipe), &values, false);
                }
                self.emit(observer, Node::WbBus(slot), &values, false);
            }
            observer.retire(cycle, entry.addr, entry.insn);
            self.stats.instructions += 1;
            if entry.insn.is_branch() {
                self.stats.branches += 1;
            }
            slot += 1;
        }
    }

    // ---- issue stage -----------------------------------------------------

    fn issue<O: PipelineObserver + ?Sized>(&mut self, observer: &mut O) -> Result<(), Stop> {
        let cycle = self.cycle;
        let Some(head) = self.frontend.front().copied() else {
            self.stats.count_stall(StallCause::Frontend);
            return Ok(());
        };
        if head.ready_at > cycle {
            self.stats.count_stall(StallCause::Frontend);
            return Ok(());
        }
        let older = head.insn.map_err(|word| UarchError::BadInstruction {
            addr: head.addr,
            word: Some(word),
        })?;
        if let Some(cause) = self.issue_blocker(&older) {
            self.stats.count_stall(cause);
            return Ok(());
        }

        self.frontend.pop_front();
        let redirected = self.dispatch(observer, older, head.addr, 0, Pipe::Alu0)?;
        if self.halted || redirected || !self.config.dual_issue {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        }

        // Try to pair a younger instruction.
        let Some(second) = self.frontend.front().copied() else {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        };
        let (Ok(younger), true) = (second.insn, second.ready_at <= cycle) else {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        };
        let structurally_ok = pair_structurally_legal(&self.config, &older, &younger);
        if structurally_ok && !self.config.policy.allows(older.class(), younger.class()) {
            self.stats.policy_rejections += 1;
            self.stats.single_issue_cycles += 1;
            return Ok(());
        }
        if !structurally_ok || self.issue_blocker(&younger).is_some() {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        }
        self.frontend.pop_front();
        let bus_base = older.read_ports().min(self.config.rf_read_ports) as u8;
        let younger_pipe = younger_default_pipe(&older, &younger);
        self.dispatch(observer, younger, second.addr, bus_base, younger_pipe)?;
        self.stats.dual_issue_cycles += 1;
        Ok(())
    }

    /// Why `insn` cannot issue this cycle, if anything.
    fn issue_blocker(&self, insn: &Insn) -> Option<StallCause> {
        let cycle = self.cycle;
        for reg in insn.reads().iter() {
            if reg != Reg::PC && self.reg_ready[reg.index()] > cycle {
                return Some(StallCause::RawHazard);
            }
        }
        if insn.reads_flags() && self.flags_ready > cycle {
            return Some(StallCause::FlagsHazard);
        }
        if insn.is_mem() && self.lsu_ready_at > cycle {
            return Some(StallCause::Structural);
        }
        None
    }

    // ---- dispatch / execute ------------------------------------------------

    /// Reads the register file (read-port nodes switch in the issue
    /// cycle) and schedules the shared operand-bus drivers for the next
    /// cycle — the issue/execute clock boundary. The one-cycle offset
    /// matters for characterization: it is what lets the paper's
    /// "correlation in the correct clock cycle" criterion tell the
    /// (silent) read ports apart from the (leaky) operand buses carrying
    /// the same values.
    fn drive_operand_buses<O: PipelineObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        buses: &[Vals<N>],
        bus_base: u8,
    ) {
        for (i, values) in buses.iter().enumerate() {
            let bus = bus_base + i as u8;
            if (bus as usize) < self.config.operand_buses() {
                self.emit(observer, Node::RfRead(bus), values, false);
                self.schedule(self.cycle + 1, Node::OperandBus(bus), *values, false);
            }
        }
    }

    /// Latches the per-pipe IS/EX operand buffers (at the issue/execute
    /// boundary, one cycle after the register read).
    fn latch_is_ex(&mut self, pipe: Pipe, slots: [Option<Vals<N>>; 2]) {
        for (slot, values) in slots.into_iter().enumerate() {
            if let Some(values) = values {
                let node = Node::IsExOp {
                    pipe,
                    slot: slot as u8,
                };
                self.schedule(self.cycle + 1, node, values, false);
            }
        }
    }

    fn schedule(&mut self, at: u64, node: Node, values: Vals<N>, precharged: bool) {
        self.pending.push(
            at.max(self.cycle + 1),
            PendingEvent {
                node,
                values,
                precharged,
            },
        );
    }

    fn ready_cycle(&self, forward_at: u64) -> u64 {
        if self.config.forwarding {
            forward_at
        } else {
            forward_at + 2
        }
    }

    fn push_retire(
        &mut self,
        addr: u32,
        insn: Insn,
        complete_at: u64,
        wb: Option<Vals<N>>,
        pipe: Option<Pipe>,
    ) {
        self.retire_queue.push_back(RetireEntry {
            addr,
            insn,
            complete_at,
            wb,
            pipe,
            is_nop: matches!(insn.kind, InsnKind::Nop),
        });
    }

    fn redirect(&mut self, target: u32, resume_at: u64) {
        self.frontend.clear();
        self.pc = target;
        self.fetch_ready_at = resume_at;
        self.stats.taken_branches += 1;
    }

    /// Issues one instruction in every lane: reads operands (driving the
    /// shared buses), executes eagerly, emits/schedules node events and
    /// enqueues the retirement. Returns `true` when the front end was
    /// redirected.
    fn dispatch<O: PipelineObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        insn: Insn,
        addr: u32,
        bus_base: u8,
        preferred_pipe: Pipe,
    ) -> Result<bool, Stop> {
        let cycle = self.cycle;
        // A split outcome would need per-lane squashing, which the
        // shared control path cannot express.
        let cond_pass = match insn.kind {
            InsnKind::Nop | InsnKind::Trig { .. } | InsnKind::Halt => true,
            _ => self.agree(&"conditional outcome differs across lanes", |_, lane| {
                insn.cond.passes(lane.flags)
            })?,
        };
        match insn.kind {
            InsnKind::Nop => {
                // A never-executed conditional with zero-valued operands:
                // drives zeros on the operand buses (and keeps the
                // read-port nodes cycling with data-independent values),
                // latches nothing, and resets the WB bus at retirement.
                if self.config.nop_drives_operand_buses {
                    self.drive_operand_buses(observer, &[[0; N]; 2], bus_base);
                }
                self.push_retire(addr, insn, cycle + self.config.alu_latency, None, None);
                Ok(false)
            }
            InsnKind::Trig { high } => {
                observer.trigger(cycle, high);
                self.push_retire(addr, insn, cycle + 1, None, None);
                Ok(false)
            }
            InsnKind::Halt => {
                self.halted = true;
                self.push_retire(addr, insn, cycle + 1, None, None);
                Ok(false)
            }
            InsnKind::Dp {
                op,
                set_flags,
                rd,
                rn,
                op2,
            } => {
                let rn_vals = rn.map(|r| self.operands(r, addr));
                // Operand-2 evaluation through the immediate path or the
                // barrel shifter.
                let (rm_vals, rs_vals, shifted) = match op2 {
                    Operand2::Imm(_) => (None, None, false),
                    Operand2::Reg(rm) => (Some(self.operands(rm, addr)), None, false),
                    Operand2::ShiftedReg { rm, amount, .. } => {
                        let rs_vals = match amount {
                            ShiftAmount::Imm(_) => None,
                            ShiftAmount::Reg(rs) => Some(self.operands(rs, addr)),
                        };
                        (Some(self.operands(rm, addr)), rs_vals, true)
                    }
                };
                let (rm, rs) = (rm_vals.unwrap_or([0; N]), rs_vals.unwrap_or([0; N]));
                let op2_out: [(u32, bool); N] = self.each(|l, lane| match op2 {
                    Operand2::Imm(v) => (v, lane.flags.c),
                    Operand2::Reg(_) => (rm[l], lane.flags.c),
                    Operand2::ShiftedReg { kind, amount, .. } => {
                        let amount = match amount {
                            ShiftAmount::Imm(n) => u32::from(n),
                            ShiftAmount::Reg(_) => rs[l] & 0xff,
                        };
                        let out = apply_shift(kind, rm[l], amount, lane.flags.c);
                        (out.value, out.carry)
                    }
                });
                let op2_vals = op2_out.map(|(value, _)| value);
                let mut buses = BusList::new();
                buses.push(rn_vals);
                buses.push(rm_vals);
                buses.push(rs_vals);
                self.drive_operand_buses(observer, buses.as_slice(), bus_base);

                let pipe = if shifted { Pipe::Alu0 } else { preferred_pipe };
                let latency = if shifted {
                    self.config.shift_latency
                } else {
                    self.config.alu_latency
                };
                if !cond_pass {
                    // Condition failed: occupies the pipe as a bubble.
                    self.push_retire(addr, insn, cycle + latency, None, None);
                    return Ok(false);
                }
                // IS/EX buffers latch only for instructions that proceed
                // to execute.
                self.latch_is_ex(
                    pipe,
                    [Some(rn_vals.unwrap_or(op2_vals)), rn_vals.map(|_| op2_vals)],
                );
                if shifted {
                    self.schedule(cycle + latency, Node::ShiftBuf, op2_vals, true);
                }
                let writes_flags = set_flags || op.is_compare();
                let active = self.active();
                let mut out = [0; N];
                let rn = rn_vals.unwrap_or([0; N]);
                for (l, lane) in self.lanes[..active].iter_mut().enumerate() {
                    let result = eval_dp(op, rn[l], op2_vals[l], op2_out[l].1, lane.flags);
                    out[l] = result.value;
                    if writes_flags {
                        lane.flags = result.flags;
                    }
                }
                self.schedule(cycle + latency, Node::AluOut(pipe), out, true);
                if writes_flags {
                    self.flags_ready = cycle + 1;
                }
                match rd {
                    Some(Reg::PC) => {
                        // mov pc, … acts as an indirect branch.
                        let target = self.branch_target(&out)?;
                        self.redirect(target, cycle + 1);
                        self.push_retire(addr, insn, cycle + latency, None, Some(pipe));
                        return Ok(true);
                    }
                    Some(rd) => {
                        self.write_reg(rd, &out, cycle + latency);
                        self.push_retire(addr, insn, cycle + latency, Some(out), Some(pipe));
                    }
                    // Compare/test: flags only.
                    None => self.push_retire(addr, insn, cycle + latency, None, Some(pipe)),
                }
                Ok(false)
            }
            InsnKind::Mul {
                op: _,
                set_flags,
                rd,
                rm,
                rs,
                ra,
            } => {
                let rm_vals = self.operands(rm, addr);
                let rs_vals = self.operands(rs, addr);
                let ra_vals = ra.map(|r| self.operands(r, addr));
                let mut buses = BusList::new();
                buses.push(Some(rm_vals));
                buses.push(Some(rs_vals));
                buses.push(ra_vals);
                self.drive_operand_buses(observer, buses.as_slice(), bus_base);
                let latency = self.config.mul_latency;
                if !cond_pass {
                    self.push_retire(addr, insn, cycle + latency, None, None);
                    return Ok(false);
                }
                self.latch_is_ex(Pipe::Alu0, [Some(rm_vals), Some(rs_vals)]);
                let values =
                    self.each(|l, _| eval_mul(rm_vals[l], rs_vals[l], ra_vals.map(|v| v[l])));
                if set_flags {
                    let active = self.active();
                    for (lane, &value) in self.lanes[..active].iter_mut().zip(&values) {
                        lane.flags.n = value >> 31 != 0;
                        lane.flags.z = value == 0;
                    }
                    self.flags_ready = cycle + 1;
                }
                self.schedule(cycle + latency, Node::AluOut(Pipe::Alu0), values, true);
                self.write_reg(rd, &values, cycle + latency);
                self.push_retire(addr, insn, cycle + latency, Some(values), Some(Pipe::Alu0));
                Ok(false)
            }
            InsnKind::Mem {
                dir,
                size,
                rd,
                addr: mode,
            } => {
                let base_vals = self.operands(mode.base, addr);
                let (offset_bus, offsets): (_, [i64; N]) = match mode.offset {
                    MemOffset::Imm(imm) => (None, [i64::from(imm); N]),
                    MemOffset::Reg {
                        rm,
                        kind,
                        amount,
                        sub,
                    } => {
                        let rm_vals = self.operands(rm, addr);
                        let offsets = self.each(|l, lane| {
                            let shifted =
                                apply_shift(kind, rm_vals[l], u32::from(amount), lane.flags.c);
                            let shifted = i64::from(shifted.value);
                            if sub {
                                -shifted
                            } else {
                                shifted
                            }
                        });
                        (Some(rm_vals), offsets)
                    }
                };
                let effective = self.each(|l, _| (i64::from(base_vals[l]) + offsets[l]) as u32);
                let access = match mode.index {
                    sca_isa::IndexMode::PostIndex => base_vals,
                    _ => effective,
                };

                // Buses: base, then offset register, then store data.
                let data_vals = (dir == MemDir::Store).then(|| self.operands(rd, addr));
                let mut buses = BusList::new();
                buses.push(Some(base_vals));
                buses.push(offset_bus);
                buses.push(data_vals);
                self.drive_operand_buses(observer, buses.as_slice(), bus_base);

                if !cond_pass {
                    let complete_at = cycle + self.config.load_latency;
                    self.push_retire(addr, insn, complete_at, None, None);
                    return Ok(false);
                }

                // Address generation happens in the issue stage (paper,
                // Section 3.2), so base writeback is fast.
                if mode.writes_base() {
                    self.write_reg(mode.base, &effective, cycle + 1);
                }

                self.latch_is_ex(Pipe::Lsu, [Some(access), data_vals]);

                let penalty = self.dcache_access(&access)?;
                if penalty > 0 {
                    self.stats.dcache_misses += 1;
                    self.lsu_ready_at = cycle + 1 + penalty;
                }
                let complete_at = cycle + self.config.load_latency + penalty;

                match dir {
                    MemDir::Load => {
                        let loaded: [(u32, u32); N] = self.try_each(|l, lane| {
                            let value = match size {
                                MemSize::Word => lane.mem.read_u32(access[l])?,
                                MemSize::Byte => u32::from(lane.mem.read_u8(access[l])?),
                                MemSize::Half => u32::from(lane.mem.read_u16(access[l])?),
                            };
                            Ok((value, lane.mem.containing_word(access[l])?))
                        })?;
                        let values = loaded.map(|(value, _)| value);
                        self.schedule(complete_at, Node::Mdr, loaded.map(|(_, word)| word), false);
                        if size.is_subword() && self.config.align_buffer {
                            self.schedule(complete_at, Node::AlignBuf, values, false);
                        }
                        if rd == Reg::PC {
                            let target = self.branch_target(&values)?;
                            self.redirect(target, complete_at);
                            self.push_retire(addr, insn, complete_at, None, Some(Pipe::Lsu));
                            return Ok(true);
                        }
                        self.write_reg(rd, &values, complete_at);
                        self.push_retire(addr, insn, complete_at, Some(values), Some(Pipe::Lsu));
                    }
                    MemDir::Store => {
                        let data = data_vals.expect("stores read their data register");
                        let stored: [(u32, u32); N] = self.try_each(|l, lane| {
                            let (at, value) = (access[l], data[l]);
                            match size {
                                MemSize::Word => lane.mem.write_u32(at, value)?,
                                MemSize::Byte => lane.mem.write_u8(at, value as u8)?,
                                MemSize::Half => lane.mem.write_u16(at, value as u16)?,
                            }
                            let sub = match size {
                                MemSize::Byte => value & 0xff,
                                _ => value & 0xffff,
                            };
                            Ok((lane.mem.containing_word(at)?, sub))
                        })?;
                        // The MDR carries the full merged word even for
                        // sub-word stores (paper, Section 4.1).
                        self.schedule(complete_at, Node::Mdr, stored.map(|(word, _)| word), false);
                        if size.is_subword() && self.config.align_buffer {
                            let subs = stored.map(|(_, sub)| sub);
                            self.schedule(complete_at, Node::AlignBuf, subs, false);
                        }
                        self.push_retire(addr, insn, complete_at, None, None);
                    }
                }
                Ok(false)
            }
            InsnKind::MemMulti {
                dir,
                base,
                writeback,
                regs,
                mode,
            } => {
                let base_vals = self.operands(base, addr);
                let n = regs.len() as u32;
                let start = base_vals.map(|base| match mode {
                    MemMultiMode::Ia => base,
                    MemMultiMode::Db => base.wrapping_sub(4 * n),
                });
                self.drive_operand_buses(observer, &[base_vals], bus_base);
                if !cond_pass {
                    let complete_at = cycle + self.config.load_latency;
                    self.push_retire(addr, insn, complete_at, None, None);
                    return Ok(false);
                }
                self.latch_is_ex(Pipe::Lsu, [Some(start), None]);

                // Base writeback is resolved by the AGU in the issue
                // stage; a load that also targets the base lets the
                // loaded value win (writeback suppressed).
                if writeback && !(dir == MemDir::Load && regs.contains(base)) {
                    let new_base = match mode {
                        MemMultiMode::Ia => base_vals.map(|base| base.wrapping_add(4 * n)),
                        MemMultiMode::Db => start,
                    };
                    self.write_reg(base, &new_base, cycle + 1);
                }

                // One LSU beat per register, lowest register at the
                // lowest address; each beat moves a full word through the
                // MDR.
                let mut penalty_total: u64 = 0;
                let mut last_values = [0; N];
                let mut redirect_target: Option<(u32, u64)> = None;
                for (i, reg) in regs.iter().enumerate() {
                    let beat_addrs = start.map(|start| start.wrapping_add(4 * i as u32));
                    let penalty = self.dcache_access(&beat_addrs)?;
                    if penalty > 0 {
                        self.stats.dcache_misses += 1;
                    }
                    penalty_total += penalty;
                    let beat_complete = cycle + self.config.load_latency + i as u64 + penalty_total;
                    let values = match dir {
                        MemDir::Load => {
                            self.try_each(|l, lane| lane.mem.read_u32(beat_addrs[l]))?
                        }
                        MemDir::Store => {
                            let values = self.operands(reg, addr);
                            self.try_each(|l, lane| {
                                lane.mem.write_u32(beat_addrs[l], values[l])?;
                                Ok(values[l])
                            })?
                        }
                    };
                    self.schedule(beat_complete, Node::Mdr, values, false);
                    if dir == MemDir::Load {
                        if reg == Reg::PC {
                            redirect_target = Some((self.branch_target(&values)?, beat_complete));
                        } else {
                            self.write_reg(reg, &values, beat_complete);
                        }
                    }
                    last_values = values;
                }
                let beats = u64::from(n.max(1));
                let complete = cycle + self.config.load_latency + beats - 1 + penalty_total;
                self.lsu_ready_at = cycle + beats + penalty_total;
                let wb = (dir == MemDir::Load).then_some(last_values);
                self.push_retire(addr, insn, complete, wb, Some(Pipe::Lsu));
                if let Some((target, at)) = redirect_target {
                    self.redirect(target, at);
                    return Ok(true);
                }
                Ok(false)
            }
            InsnKind::MulLong {
                signed,
                rd_hi,
                rd_lo,
                rm,
                rs,
            } => {
                let rm_vals = self.operands(rm, addr);
                let rs_vals = self.operands(rs, addr);
                self.drive_operand_buses(observer, &[rm_vals, rs_vals], bus_base);
                // The 64-bit result drains through the write-back path
                // over two cycles (lo, then hi).
                let latency = self.config.mul_latency + 1;
                if !cond_pass {
                    self.push_retire(addr, insn, cycle + latency, None, None);
                    return Ok(false);
                }
                self.latch_is_ex(Pipe::Alu0, [Some(rm_vals), Some(rs_vals)]);
                let product = self.each(|l, _| {
                    let (rm, rs) = (rm_vals[l], rs_vals[l]);
                    if signed {
                        (i64::from(rm as i32) * i64::from(rs as i32)) as u64
                    } else {
                        u64::from(rm) * u64::from(rs)
                    }
                });
                let lo = product.map(|p| p as u32);
                let hi = product.map(|p| (p >> 32) as u32);
                self.schedule(cycle + latency - 1, Node::AluOut(Pipe::Alu0), lo, true);
                self.schedule(cycle + latency, Node::AluOut(Pipe::Alu0), hi, true);
                self.write_reg(rd_lo, &lo, cycle + latency - 1);
                self.write_reg(rd_hi, &hi, cycle + latency);
                self.push_retire(addr, insn, cycle + latency, Some(hi), Some(Pipe::Alu0));
                Ok(false)
            }
            InsnKind::Branch { link, offset } => {
                self.push_retire(addr, insn, cycle + 1, None, None);
                if !cond_pass {
                    return Ok(false);
                }
                if link {
                    self.write_reg(Reg::LR, &[addr.wrapping_add(4); N], cycle + 1);
                }
                let target = addr
                    .wrapping_add(4)
                    .wrapping_add((offset as u32).wrapping_mul(4));
                self.redirect(target, cycle + 1);
                Ok(true)
            }
            InsnKind::Bx { rm } => {
                let rm_vals = self.operands(rm, addr);
                self.drive_operand_buses(observer, &[rm_vals], bus_base);
                self.push_retire(addr, insn, cycle + 1, None, None);
                if !cond_pass {
                    return Ok(false);
                }
                let target = self.branch_target(&rm_vals)?;
                self.redirect(target, cycle + 1);
                Ok(true)
            }
        }
    }

    // ---- fetch stage -----------------------------------------------------

    fn fetch<O: PipelineObserver + ?Sized>(&mut self, observer: &mut O) -> Result<(), Stop> {
        let cycle = self.cycle;
        if cycle < self.fetch_ready_at {
            return Ok(());
        }
        let mut fetched = 0u8;
        while fetched < self.config.fetch_width as u8
            && self.frontend.len() < self.config.frontend_capacity
        {
            let addr = self.pc;
            // Lanes share the program image, so fetched words (and
            // fetch-fault status) must agree everywhere.
            let word = self.agree(
                &"fetched instruction word differs across lanes",
                |_, lane| lane.mem.read_u32(addr).ok(),
            )?;
            let Some(word) = word else {
                // Running off the image: stop fetching; issue faults only
                // if execution actually gets here.
                break;
            };
            let penalty = self.agree(&"icache penalty differs across lanes", |_, lane| {
                lane.icache.access(addr)
            })?;
            if penalty > 0 {
                self.stats.icache_misses += 1;
                self.fetch_ready_at = cycle + penalty;
            }
            self.emit(observer, Node::FetchWord(fetched), &[word; N], false);
            self.frontend.push_back(FrontendEntry {
                addr,
                insn: decode(word).map_err(|_| word),
                ready_at: cycle + self.config.frontend_latency + penalty,
            });
            self.pc = addr.wrapping_add(4);
            fetched += 1;
            if penalty > 0 {
                break;
            }
        }
        Ok(())
    }
}

/// Structural legality of a dual-issue pair, independent of the pairing
/// policy: read-port budget, write-port (WAW) conflicts, intra-group
/// RAW/flag dependences, and a taken-branch guard.
fn pair_structurally_legal(config: &UarchConfig, older: &Insn, younger: &Insn) -> bool {
    if older.read_ports() + younger.read_ports() > config.rf_read_ports {
        return false;
    }
    if older.writes().intersects(younger.writes()) || older.writes().intersects(younger.reads()) {
        return false;
    }
    if older.sets_flags() && (younger.reads_flags() || younger.sets_flags()) {
        return false;
    }
    // Both needing the shifter/multiplier pipe or both needing the LSU
    // is illegal; the measured policy already excludes these, but custom
    // policies must not break the structural model.
    let needs_pipe0 = |i: &Insn| matches!(i.class(), InsnClass::Shift | InsnClass::Mul);
    !((needs_pipe0(older) && needs_pipe0(younger)) || (older.is_mem() && younger.is_mem()))
}

/// Pipe for the younger instruction of a dual-issued pair.
fn younger_default_pipe(older: &Insn, younger: &Insn) -> Pipe {
    let older_takes_alu0 = matches!(
        older.class(),
        InsnClass::Mov | InsnClass::Alu | InsnClass::AluImm | InsnClass::Shift | InsnClass::Mul
    );
    let younger_needs_alu0 = matches!(younger.class(), InsnClass::Shift | InsnClass::Mul);
    if younger_needs_alu0 || !older_takes_alu0 {
        Pipe::Alu0
    } else {
        Pipe::Alu1
    }
}
