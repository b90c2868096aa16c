//! Compile-once, serve-many program images.
//!
//! [`ProgramImage`] captures everything [`crate::Shift`] needs to stamp out
//! guest instances of an already-compiled program: the loaded
//! [`shift_machine::MachineSeed`] (decoded code and pristine memory, shared
//! between instances) plus the per-function spans the profiler attributes
//! cycles to. Building it once and spawning N instances costs one
//! compile+link+load plus N reference-count bumps — the pristine page table
//! is shared copy-on-write (DESIGN.md §15), so a spawn is O(1) in image
//! size and instances pay only for pages they dirty.

use std::sync::Arc;

use shift_compiler::CompiledProgram;
use shift_machine::{FuncSpan, Injection, Machine, MachineSeed};

/// A prepared, shareable program image: the product of one compile + link +
/// load, ready to spawn any number of independent guest instances.
///
/// The type is cheap to clone and safe to share across threads (wrap it in
/// an [`Arc`] or let scoped workers borrow it); spawned instances never
/// write back into the image.
#[derive(Clone, Debug)]
pub struct ProgramImage {
    seed: MachineSeed,
    func_spans: Arc<[FuncSpan]>,
}

impl ProgramImage {
    /// Prepares an image from a compiled program: loads the memory image
    /// once and freezes the profiler's function table.
    pub fn new(compiled: &CompiledProgram) -> ProgramImage {
        ProgramImage {
            seed: MachineSeed::new(&compiled.image),
            func_spans: compiled.func_spans().into(),
        }
    }

    /// Spawns a fresh pristine instance: new CPU at the entry point, cold
    /// caches, zeroed stats, code shared with every sibling.
    pub fn spawn(&self) -> Machine {
        self.seed.spawn()
    }

    /// Spawns a fresh instance with a fault-injection schedule pre-armed
    /// (see [`MachineSeed::spawn_injected`]): the chaos-harness and
    /// replay-log path into the fleet.
    pub fn spawn_injected(&self, injections: &[(u64, Injection)]) -> Machine {
        self.seed.spawn_injected(injections)
    }

    /// A stable digest of the pristine image: the state digest a fresh
    /// spawn starts from. Replay logs record it so a replay against the
    /// wrong program (or a drifted compiler) is caught up front instead of
    /// surfacing as a baffling divergence.
    pub fn pristine_digest(&self) -> u64 {
        self.seed.spawn().state_digest()
    }

    /// The profiler function table of the compiled program.
    pub fn func_spans(&self) -> Vec<FuncSpan> {
        self.func_spans.to_vec()
    }

    /// Pristine pages resident in the image. Under copy-on-write sharing
    /// (DESIGN.md §15) these are shared with every spawn, not copied — see
    /// [`ProgramImage::shared_pages`] / [`ProgramImage::owned_pages`].
    pub fn resident_pages(&self) -> usize {
        self.seed.resident_pages()
    }

    /// Resident pristine pages every spawn shares by reference.
    pub fn shared_pages(&self) -> usize {
        self.seed.shared_pages()
    }

    /// Pages a spawn privately owns up front — always 0 for a frozen image;
    /// instances pay only for pages they dirty.
    pub fn owned_pages(&self) -> usize {
        self.seed.owned_pages()
    }

    /// Static code size in instructions.
    pub fn insn_count(&self) -> usize {
        self.seed.insn_count()
    }
}
