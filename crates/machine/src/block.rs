//! Pre-decoded superblock program: straight-line instruction runs flattened
//! into a micro-op arena for the block driver.
//!
//! The per-instruction stepper in [`crate::Machine`] pays fixed costs on
//! every instruction: a bounds-checked fetch, a budget compare, an `ip`
//! store, and four read-modify-writes into [`crate::Stats`]. A
//! [`BlockProgram`] removes all of them from straight-line code: every
//! basic block is decoded **once** (at [`crate::MachineSeed`] build time)
//! into a flat arena of uniform [`MicroOp`]s whose qualifying predicate,
//! provenance label, and base cycle cost ride alongside the operation, and
//! the block driver walks a block with a plain slice iterator, folding
//! retire accounting into stack-local accumulators that are flushed exactly
//! once per block. The arena is index-aligned with the code, so the stepper
//! fetches its micro-ops from it too.
//!
//! Everything here is a **host-speed detail**: both drivers run the same
//! per-opcode semantics over the same micro-ops, so a superblock executes
//! the same architectural steps, charges the same modelled cycles, and
//! raises the same faults as the stepper, instruction for instruction. The
//! differential proptests in
//! `crates/machine/tests/block_props.rs` and the golden fixture in
//! `tests/perf_invariance.rs` enforce this bit-identity.
//!
//! See DESIGN.md §13 for the discovery rules, the boundary-check contract,
//! and the driver-selection diagram.

use shift_isa::{CostModel, Insn, Op, Provenance};

/// Number of provenance labels (accumulator array width).
pub(crate) const NPROV: usize = Provenance::ALL.len();

/// A decoded instruction in the superblock arena.
///
/// "Uniform" means every field a driver needs is pre-resolved here, in
/// one contiguous record: the operation payload (whose register operands are
/// already architectural indices — `Gpr`/`Pr`/`Br` are `repr(u8)`), the
/// qualifying predicate, the provenance label for cycle attribution, and the
/// base cycle cost. Neither driver touches `code` or the cost model to
/// fetch an instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MicroOp {
    /// The operation, verbatim from the decoded [`Insn`].
    pub op: Op,
    /// Qualifying predicate (architectural index; `p0` = always execute).
    pub qp: shift_isa::Pr,
    /// Provenance label for retire attribution.
    pub prov: Provenance,
    /// Precomputed *effective* base cycles: `CostModel::base`, except that
    /// unconditional control transfers (`jmp`, `call`, `jmp.br`) carry
    /// `branch_taken` — whenever they execute they take, so neither driver
    /// special-cases them at retire time.
    pub base: u32,
}

/// One entry of a block's precomputed *full-pass* retire accounting:
/// `insns` instructions costing `cycles` cycles, attributed to provenance
/// index `prov`, assuming an undeviated pass (every predicate on, no memory
/// stalls, `chk.s` falling through). The block driver merges these entries when
/// a block completes and records only *deviations* from the assumption as
/// they happen, so conforming micro-ops retire with zero accounting work.
/// Blocks touch one or two provenance labels in practice, so the sparse
/// form merges in a couple of adds where a dense `[u64; NPROV]` merge would
/// pay for every label on every block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProvAcct {
    /// `Provenance::index()` of the attributed label.
    pub prov: u8,
    /// Total base cycles for the entry's instructions.
    pub cycles: u32,
    /// Number of instructions attributed.
    pub insns: u32,
}

/// One basic block: a maximal straight-line run of instructions that control
/// can only enter at the top.
///
/// A block ends at the first control-transfer instruction (`jmp`, `call`,
/// `jmp.br`, `chk.s`, `halt`), at a `syscall` (the runtime gets `&mut
/// Machine` and may re-arm any boundary-checked state), or just before the
/// next leader (an instruction some branch targets).
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Instruction index of the block's first instruction, which is also
    /// the offset of its first micro-op in [`BlockProgram::uops`].
    pub start: u32,
    /// Number of instructions (== micro-ops) in the block.
    pub len: u32,
    /// First entry of this block's full-pass accounting in
    /// [`BlockProgram::accts`].
    pub acct_start: u32,
    /// Number of accounting entries (distinct provenance labels touched).
    pub acct_len: u32,
}

/// The whole code image pre-decoded into superblocks.
///
/// Built once per [`crate::MachineSeed`] and shared by every spawned
/// instance through `Arc` — decode cost is paid at load time, never on the
/// execution path. Guest code is immutable (`Arc<[Insn]>`; the ISA has no
/// code store), so the program can never go stale while a machine runs; the
/// only invalidation path is [`crate::Machine::flush_superblocks`], which
/// rebuilds the tables wholesale.
#[derive(Clone, Debug)]
pub(crate) struct BlockProgram {
    /// All blocks, ordered by `start`.
    pub blocks: Box<[Block]>,
    /// Flat micro-op arena, index-aligned with the code: `uops[ip]` is
    /// instruction `ip`, and block `b` owns `uops[b.start .. b.start + b.len]`.
    pub uops: Box<[MicroOp]>,
    /// Sparse precomputed full-pass accounting; block `b` owns
    /// `accts[b.acct_start .. b.acct_start + b.acct_len]`.
    pub accts: Box<[ProvAcct]>,
    /// Map from instruction index to owning block index.
    block_of: Box<[u32]>,
}

impl BlockProgram {
    /// Decodes `code` into superblocks.
    ///
    /// Discovery is a single linear pass (plus a leader marking pass): a
    /// *leader* is the entry point, any static branch target (`jmp`, `call`,
    /// `chk.s` recovery), or the instruction after any block terminator —
    /// so every statically-known control transfer lands on a block start.
    /// Indirect targets (`jmp.br`) cannot be enumerated statically; an
    /// indirect jump into the middle of a block is legal and simply executes
    /// on the stepper until it rejoins a leader.
    pub fn build(code: &[Insn], cost: &CostModel) -> BlockProgram {
        let n = code.len();
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        for (ip, insn) in code.iter().enumerate() {
            match insn.op {
                Op::Jmp { target } | Op::Call { target, .. } | Op::ChkS { target, .. }
                    if target <= n =>
                {
                    leader[target] = true;
                }
                _ => {}
            }
            if is_terminator(&insn.op) {
                leader[ip + 1] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut uops = Vec::with_capacity(n);
        let mut accts = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut start = 0usize;
        while start < n {
            // A block runs to the next leader; every terminator's successor
            // is a leader, so no block runs past a terminator.
            let mut end = start + 1;
            while end < n && !leader[end] {
                end += 1;
            }
            let mut cycles_by_prov = [0u64; NPROV];
            let mut insns_by_prov = [0u64; NPROV];
            for insn in &code[start..end] {
                let base = cost.base(&insn.op);
                // Unconditional transfers always take when they execute, so
                // their effective retire cost is `branch_taken`, not the
                // fall-through cost `CostModel::base` gives them.
                let effective = match insn.op {
                    Op::Jmp { .. } | Op::Call { .. } | Op::JmpBr { .. } => cost.branch_taken,
                    _ => base,
                };
                // The full-pass accounting charges every micro-op its
                // effective base cost. Where the real cost deviates — a
                // memory stall, a taken `chk.s`, a squashed slot — the
                // block driver records the deviation as it happens, and an
                // early exit settles the entered prefix, against this same
                // baseline.
                cycles_by_prov[insn.prov.index()] += effective;
                insns_by_prov[insn.prov.index()] += 1;
                uops.push(MicroOp {
                    op: insn.op,
                    qp: insn.qp,
                    prov: insn.prov,
                    base: u32::try_from(effective).expect("base cost fits u32"),
                });
            }
            let acct_start = accts.len() as u32;
            for p in 0..NPROV {
                if insns_by_prov[p] != 0 {
                    accts.push(ProvAcct {
                        prov: p as u8,
                        cycles: u32::try_from(cycles_by_prov[p])
                            .expect("block cycle total fits u32"),
                        insns: u32::try_from(insns_by_prov[p]).expect("block insn total fits u32"),
                    });
                }
            }
            let acct_len = accts.len() as u32 - acct_start;
            let bid = blocks.len() as u32;
            for slot in &mut block_of[start..end] {
                *slot = bid;
            }
            blocks.push(Block {
                start: start as u32,
                len: (end - start) as u32,
                acct_start,
                acct_len,
            });
            start = end;
        }

        BlockProgram {
            blocks: blocks.into_boxed_slice(),
            uops: uops.into_boxed_slice(),
            accts: accts.into_boxed_slice(),
            block_of: block_of.into_boxed_slice(),
        }
    }

    /// The block whose first instruction is `ip`, if any. Mid-block and
    /// out-of-range addresses return `None` (the caller falls back to the
    /// stepper, which raises `BadIp` for the latter).
    #[inline]
    pub fn block_starting_at(&self, ip: usize) -> Option<u32> {
        let &bid = self.block_of.get(ip)?;
        let blk = &self.blocks[bid as usize];
        (blk.start as usize == ip).then_some(bid)
    }

    /// Number of decoded blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Returns `true` when `op` always ends a superblock: control transfers
/// (the next instruction depends on machine state) and `syscall` (the
/// runtime may re-arm boundary-checked machine state mid-call).
fn is_terminator(op: &Op) -> bool {
    op.is_control() || matches!(op, Op::Syscall { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::{AluOp, Gpr};

    fn decode(code: &[Insn]) -> BlockProgram {
        BlockProgram::build(code, &CostModel::ITANIUM2)
    }

    #[test]
    fn every_instruction_lands_in_exactly_one_block() {
        let code = vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
            Insn::new(Op::Jmp { target: 3 }),
            Insn::new(Op::Nop),
            Insn::new(Op::Halt),
        ];
        let prog = decode(&code);
        let total: u32 = prog.blocks.iter().map(|b| b.len).sum();
        assert_eq!(total as usize, code.len());
        for (ip, insn) in code.iter().enumerate() {
            assert_eq!(prog.uops[ip].op, insn.op, "the arena is index-aligned with the code");
            let bid = prog.block_of[ip] as usize;
            let b = &prog.blocks[bid];
            assert!(
                (b.start..b.start + b.len).contains(&(ip as u32)),
                "insn {ip} not inside its block"
            );
        }
    }

    #[test]
    fn branch_targets_become_leaders() {
        let code = vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
            Insn::new(Op::MovI { dst: Gpr::R2, imm: 2 }),
            Insn::new(Op::Jmp { target: 1 }), // back-edge into insn 1
        ];
        let prog = decode(&code);
        assert!(prog.block_starting_at(1).is_some(), "jump target must start a block");
        assert!(prog.block_starting_at(2).is_none(), "insn 2 is mid-block");
        assert!(prog.block_starting_at(0).is_some());
    }

    #[test]
    fn terminators_end_blocks() {
        let code = vec![
            Insn::new(Op::Syscall { num: 1 }),
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 }),
            Insn::new(Op::Halt),
        ];
        let prog = decode(&code);
        assert_eq!(prog.block_count(), 2);
        assert_eq!(prog.blocks[0].len, 1, "syscall terminates its block");
        assert_eq!(prog.blocks[1].len, 2);
    }

    #[test]
    fn pure_blocks_precompute_static_accounting() {
        let cost = CostModel::ITANIUM2;
        let code = vec![
            Insn::new(Op::MovI { dst: Gpr::R1, imm: 1 << 40 }), // long movl
            Insn::new(Op::Alu { op: AluOp::Add, dst: Gpr::R2, src1: Gpr::R1, src2: Gpr::R1 }),
            Insn::new(Op::Jmp { target: 0 }),
        ];
        let prog = decode(&code);
        assert_eq!(prog.block_count(), 1);
        let b = &prog.blocks[0];
        assert_eq!(b.acct_len, 1, "single-provenance block compresses to one entry");
        let a = &prog.accts[b.acct_start as usize];
        assert_eq!(usize::from(a.prov), Provenance::Original.index());
        assert_eq!(u64::from(a.insns), 3);
        assert_eq!(u64::from(a.cycles), cost.movl + cost.alu + cost.branch_taken);
    }

    #[test]
    fn out_of_range_and_empty_code_are_handled() {
        let prog = decode(&[]);
        assert_eq!(prog.block_count(), 0);
        assert!(prog.block_starting_at(0).is_none());
        let prog = decode(&[Insn::new(Op::Halt)]);
        assert!(prog.block_starting_at(7).is_none());
    }
}
