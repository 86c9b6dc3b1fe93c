//! The group dispatcher shared by every campaign worker (and the node
//! audit in `sca-core`).
//!
//! A group of more than one consecutive trace goes through the worker's
//! lockstep block while it still has one; everything else runs trace by
//! trace on the scalar lane. A lockstep divergence means the lanes'
//! microarchitectural state was perturbed mid-run, so the block is
//! retired for good ("poisoned") and the group is re-run scalar, whose
//! per-trace results never depend on such history. Nothing of a diverged
//! group reaches the worker's outputs.

/// A worker's simulation lanes: the scalar lane `S`, always present, and
/// an optional lockstep block `B`.
#[derive(Clone, Debug)]
pub struct LaneGroup<S, B> {
    /// The scalar lane.
    pub scalar: S,
    /// The lockstep block, until a group diverges.
    pub block: Option<B>,
}

impl<S, B> LaneGroup<S, B> {
    /// Runs one group of `count` consecutive traces. `lockstep` tries
    /// the whole group on the block and reports whether it committed;
    /// `scalar` synthesizes the trace at one offset. Both write to the
    /// caller's output state `out`. Returns whether this group poisoned
    /// the block.
    ///
    /// # Errors
    ///
    /// Propagates the first scalar error.
    pub fn run<C, E>(
        &mut self,
        out: &mut C,
        count: usize,
        lockstep: impl FnOnce(&mut B, &mut C) -> bool,
        mut scalar: impl FnMut(&mut S, &mut C, usize) -> Result<(), E>,
    ) -> Result<bool, E> {
        let mut poisoned = false;
        if count > 1 {
            if let Some(block) = self.block.as_mut() {
                if lockstep(block, out) {
                    return Ok(false);
                }
                self.block = None;
                poisoned = true;
            }
        }
        for offset in 0..count {
            scalar(&mut self.scalar, out, offset)?;
        }
        Ok(poisoned)
    }
}
