//! The lane-group abstraction both synthesis bodies run over: one
//! execution on a scalar [`Cpu`] (one lane) or on a lockstep [`CpuBlock`]
//! (up to [`sca_uarch::MAX_LANES`] lanes sharing one pipeline walk).

use sca_uarch::{BlockObserver, Cpu, CpuBlock, PipelineObserver, UarchError};

/// A simulator running one execution of a lane group into recorder `R`.
pub(crate) trait Lanes<R> {
    /// Restarts lanes `0..seeds.len()` at `entry`, one scramble seed each.
    fn restart(&mut self, entry: u32, seeds: &[u64]);

    /// Lane `lane`'s CPU, for staging its input.
    fn lane_mut(&mut self, lane: usize) -> &mut Cpu;

    /// Runs the restarted lanes to `halt` into `recorder`. `Ok(false)`
    /// reports lockstep divergence (a block reports lane faults the same
    /// way, so only a scalar run returns `Err`).
    fn execute(&mut self, recorder: &mut R) -> Result<bool, UarchError>;
}

impl<R: PipelineObserver> Lanes<R> for Cpu {
    fn restart(&mut self, entry: u32, seeds: &[u64]) {
        debug_assert_eq!(seeds.len(), 1, "a scalar CPU is one lane");
        self.restart_seeded(entry, seeds[0]);
    }

    fn lane_mut(&mut self, _lane: usize) -> &mut Cpu {
        self
    }

    fn execute(&mut self, recorder: &mut R) -> Result<bool, UarchError> {
        self.run(recorder).map(|_| true)
    }
}

impl<R: BlockObserver> Lanes<R> for CpuBlock {
    fn restart(&mut self, entry: u32, seeds: &[u64]) {
        self.restart_seeded(entry, seeds);
    }

    fn lane_mut(&mut self, lane: usize) -> &mut Cpu {
        CpuBlock::lane_mut(self, lane)
    }

    fn execute(&mut self, recorder: &mut R) -> Result<bool, UarchError> {
        Ok(self.run(recorder).is_ok())
    }
}
