//! # shift-compiler — lowering, register allocation, and the SHIFT pass
//!
//! The pipeline mirrors the paper's GCC integration (§4.2): IR is lowered to
//! machine code over virtual registers, liveness-driven linear-scan
//! allocation assigns physical registers (reserving `r28–r31` and `p6/p7`
//! for instrumentation), and **then** the SHIFT pass instruments loads,
//! stores and compares on the allocated code — "after register allocation,
//! before scheduling", exactly where the paper inserts its phase so it
//! cannot interfere with either.
//!
//! ## Example
//!
//! ```
//! use shift_compiler::{Compiler, Mode, ShiftOptions};
//! use shift_ir::ProgramBuilder;
//! use shift_machine::{Exit, Machine, NullOs};
//! use shift_tagmap::Granularity;
//!
//! let mut pb = ProgramBuilder::new();
//! pb.func("main", 0, |f| {
//!     let v = f.iconst(41);
//!     let r = f.addi(v, 1);
//!     f.ret(Some(r));
//! });
//! let program = pb.build().unwrap();
//!
//! let compiled = Compiler::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
//!     .compile(&program)
//!     .unwrap();
//! let mut machine = Machine::new(&compiled.image);
//! // `main`'s return value becomes the exit status via the entry stub; the
//! // stub's `exit` syscall needs a real runtime, so run with a tiny OS that
//! // accepts it:
//! struct ExitOs;
//! impl shift_machine::Os for ExitOs {
//!     fn syscall(&mut self, m: &mut Machine, num: u32) -> shift_machine::SysResult {
//!         assert_eq!(num, shift_isa::sys::EXIT);
//!         let status = m.cpu.gpr(shift_isa::Gpr::ARG0).value as i64;
//!         shift_machine::SysResult::Stop(Exit::Halted(status))
//!     }
//! }
//! assert_eq!(machine.run(&mut ExitOs, 100_000), Exit::Halted(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instrument;
pub mod link;
pub mod lower;
pub mod peephole;
pub mod regalloc;
pub mod shadow;
pub mod vcode;

use std::collections::HashMap;

use shift_ir::{validate_linked, GlobalId, Program, ValidateError};
use shift_isa::{Gpr, Op};
use shift_machine::{layout, FuncSpan, Image};
use shift_tagmap::Granularity;

pub use instrument::{InstrumentStats, NatGen, ShiftOptions, NAT_SRC};
pub use link::LinkError;
pub use lower::LowerError;
pub use vcode::{CInsn, COp, Label, VR};

/// An address guaranteed to be invalid (unimplemented bits set), used by the
/// entry stub's speculative load to manufacture the kept NaT-source register
/// (§4.1, Figure 5 instructions ①–②).
pub const NAT_GEN_ADDR: u64 = 1 << 45;

/// Compilation mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Plain code generation, no taint tracking (the experiments' baseline).
    Uninstrumented,
    /// SHIFT taint tracking with the given options.
    Shift(ShiftOptions),
    /// Software-only taint tracking: register taint lives in a reserved
    /// register bitmask and every instruction carries explicit propagation
    /// code — the LIFT-style ablation of SHIFT's NaT reuse (see
    /// [`shadow`]).
    Shadow(Granularity),
}

/// Compilation failure.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// The IR program is structurally invalid or has unresolved calls.
    Validate(ValidateError),
    /// Lowering failed.
    Lower(LowerError),
    /// Linking failed.
    Link(LinkError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Validate(e) => write!(f, "invalid program: {e}"),
            CompileError::Lower(e) => write!(f, "lowering error: {e}"),
            CompileError::Link(e) => write!(f, "link error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ValidateError> for CompileError {
    fn from(e: ValidateError) -> Self {
        CompileError::Validate(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

impl From<LinkError> for CompileError {
    fn from(e: LinkError) -> Self {
        CompileError::Link(e)
    }
}

/// The compiler.
#[derive(Clone, Copy, Debug)]
pub struct Compiler {
    mode: Mode,
}

/// A fully compiled, linked program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The loadable image.
    pub image: Image,
    /// Instruction ranges `[start, end)` per function (includes `_start`).
    pub func_ranges: HashMap<String, (usize, usize)>,
    /// Final addresses of globals, by name.
    pub global_addrs: HashMap<String, u64>,
    /// Aggregated instrumentation statistics (zero when uninstrumented).
    pub stats: InstrumentStats,
}

impl CompiledProgram {
    /// Static size, in instructions, of the named function.
    pub fn func_size(&self, name: &str) -> Option<usize> {
        self.func_ranges.get(name).map(|(s, e)| e - s)
    }

    /// A disassembly listing of the whole image.
    pub fn disasm(&self) -> String {
        shift_isa::disasm_listing(&self.image.code, 0)
    }

    /// The per-function spans the profiler attributes cycles to.
    pub fn func_spans(&self) -> Vec<FuncSpan> {
        self.func_ranges
            .iter()
            .map(|(name, &(start, end))| FuncSpan { name: name.clone(), start, end })
            .collect()
    }
}

impl Compiler {
    /// Creates a compiler in the given mode.
    pub fn new(mode: Mode) -> Compiler {
        Compiler { mode }
    }

    /// Convenience constructor for the uninstrumented baseline.
    pub fn baseline() -> Compiler {
        Compiler::new(Mode::Uninstrumented)
    }

    /// The configured mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Compiles a linked IR program into a loadable image. The program must
    /// define `main` (taking no parameters); its return value becomes the
    /// process exit status.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on invalid IR, failed lowering, or unresolved
    /// symbols.
    pub fn compile(&self, program: &Program) -> Result<CompiledProgram, CompileError> {
        validate_linked(program)?;

        // ---- global layout ------------------------------------------------
        let mut global_addrs_by_id: HashMap<GlobalId, u64> = HashMap::new();
        let mut global_addrs: HashMap<String, u64> = HashMap::new();
        let mut cursor = layout::GLOBALS_BASE;
        let mut data: Vec<(u64, Vec<u8>)> = Vec::new();
        for (i, g) in program.globals.iter().enumerate() {
            global_addrs_by_id.insert(GlobalId(i as u32), cursor);
            global_addrs.insert(g.name.clone(), cursor);
            if !g.init.is_empty() {
                data.push((cursor, g.init.clone()));
            }
            cursor += g.size.div_ceil(16) * 16;
        }
        let data_len = cursor - layout::DATA_BASE;

        // ---- per-function pipeline ----------------------------------------
        let mut funcs: Vec<(String, Vec<CInsn<Gpr>>)> = Vec::new();
        funcs.push(("_start".into(), self.entry_stub()));
        let mut stats = InstrumentStats::default();
        for f in &program.funcs {
            let lowered = lower::lower_fn(f, &global_addrs_by_id)?;
            let allocated = regalloc::allocate(&lowered);
            let code = match &self.mode {
                Mode::Uninstrumented => strip_sanitize_cost(allocated.code),
                Mode::Shift(opts) => {
                    let (code, s) = instrument::instrument(&allocated.code, opts);
                    stats = merge(stats, s);
                    code
                }
                Mode::Shadow(gran) => shadow::instrument_shadow(&allocated.code, *gran),
            };
            let (code, _) = peephole::peephole(code);
            funcs.push((f.name.clone(), code));
        }

        // ---- link ----------------------------------------------------------
        let linked = link::link(&funcs)?;
        let mut builder = Image::builder()
            .code(linked.code)
            .entry(0)
            .map(layout::DATA_BASE, data_len.max(shift_machine::PAGE_SIZE));
        for (addr, bytes) in data {
            builder = builder.data(addr, bytes);
        }
        let mut image = builder.build();
        image.symbols = linked.symbols;

        Ok(CompiledProgram { image, func_ranges: linked.ranges, global_addrs, stats })
    }

    /// The program entry stub: materialize the NaT-source register (baseline
    /// instrumented mode only), call `main`, and exit with its return value.
    fn entry_stub(&self) -> Vec<CInsn<Gpr>> {
        let mut code = Vec::new();
        if let Mode::Shift(opts) = &self.mode {
            if !opts.set_clr && opts.nat_gen == instrument::NatGen::Kept {
                // movl r31 = <invalid>; ld8.s r31 = [r31] → r31 is NaT, 0.
                instrument::emit_nat_gen(&mut code);
            }
        }
        code.push(CInsn::new(COp::Call("main".into())).glued());
        code.push(CInsn::isa(Op::Mov { dst: Gpr::ARG0, src: Gpr::RET }).glued());
        code.push(CInsn::isa(Op::Syscall { num: shift_isa::sys::EXIT }).glued());
        code.push(CInsn::isa(Op::Halt).glued());
        code
    }
}

/// In uninstrumented builds, `Sanitize` markers (lowered to `tclr`) would
/// execute as enhancement instructions that baseline hardware lacks; they
/// are semantically no-ops without taint, so drop them for a fair baseline.
fn strip_sanitize_cost(code: Vec<CInsn<Gpr>>) -> Vec<CInsn<Gpr>> {
    code.into_iter().filter(|i| !matches!(i.op, COp::Isa(Op::Tclr { .. }))).collect()
}

fn merge(a: InstrumentStats, b: InstrumentStats) -> InstrumentStats {
    InstrumentStats {
        loads: a.loads + b.loads,
        stores: a.stores + b.stores,
        cmps_relaxed: a.cmps_relaxed + b.cmps_relaxed,
        cmps_nat_aware: a.cmps_nat_aware + b.cmps_nat_aware,
        cmps_skipped: a.cmps_skipped + b.cmps_skipped,
        stores_laundered: a.stores_laundered + b.stores_laundered,
        sanitizes: a.sanitizes + b.sanitizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_ir::ProgramBuilder;
    use shift_machine::{Exit, Machine, Os, SysResult};
    use shift_tagmap::Granularity;

    /// A minimal OS accepting only `exit`.
    pub struct ExitOs;

    impl Os for ExitOs {
        fn syscall(&mut self, m: &mut shift_machine::Machine, num: u32) -> SysResult {
            assert_eq!(num, shift_isa::sys::EXIT, "test programs only exit");
            SysResult::Stop(Exit::Halted(m.cpu.gpr(Gpr::ARG0).value as i64))
        }
    }

    fn run(program: &Program, mode: Mode) -> (Machine, Exit) {
        let compiled = Compiler::new(mode).compile(program).unwrap();
        let mut m = Machine::new(&compiled.image);
        let exit = m.run(&mut ExitOs, 10_000_000);
        (m, exit)
    }

    fn modes() -> Vec<Mode> {
        vec![
            Mode::Uninstrumented,
            Mode::Shift(ShiftOptions::baseline(Granularity::Byte)),
            Mode::Shift(ShiftOptions::baseline(Granularity::Word)),
            Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)),
            Mode::Shift(ShiftOptions {
                set_clr: true,
                nat_cmp: false,
                ..ShiftOptions::baseline(Granularity::Byte)
            }),
        ]
    }

    #[test]
    fn arithmetic_program_agrees_across_all_modes() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, |f| {
            let a = f.iconst(6);
            let b = f.iconst(7);
            let c = f.mul(a, b);
            f.ret(Some(c));
        });
        let p = pb.build().unwrap();
        for mode in modes() {
            let (_, exit) = run(&p, mode);
            assert_eq!(exit, Exit::Halted(42), "{mode:?}");
        }
    }

    #[test]
    fn memory_program_agrees_across_all_modes() {
        // Sum an array through memory: exercises the load/store templates.
        let mut pb = ProgramBuilder::new();
        let g = pb.global("arr", 80, (0u8..80).collect());
        pb.func("main", 0, move |f| {
            let base = f.global_addr(g);
            let sum = f.iconst(0);
            f.for_up(shift_ir::Rhs::Imm(0), shift_ir::Rhs::Imm(80), |f, i| {
                let addr = f.add(base, i);
                let v = f.load1(addr, 0);
                let s = f.add(sum, v);
                f.assign(sum, s);
            });
            let folded = f.bini(shift_isa::AluOp::And, sum, 0xff);
            f.ret(Some(folded));
        });
        let p = pb.build().unwrap();
        let expect = (0u64..80).sum::<u64>() & 0xff;
        for mode in modes() {
            let (_, exit) = run(&p, mode);
            assert_eq!(exit, Exit::Halted(expect as i64), "{mode:?}");
        }
    }

    #[test]
    fn calls_and_stack_agree_across_all_modes() {
        let mut pb = ProgramBuilder::new();
        pb.func("fib", 1, |f| {
            let n = f.param(0);
            f.if_cmp(shift_isa::CmpRel::Le, n, shift_ir::Rhs::Imm(1), |f| {
                f.ret(Some(n));
            });
            let n1 = f.addi(n, -1);
            let a = f.call("fib", &[n1]);
            let n2 = f.addi(n, -2);
            let b = f.call("fib", &[n2]);
            let s = f.add(a, b);
            f.ret(Some(s));
        });
        pb.func("main", 0, |f| {
            let ten = f.iconst(10);
            let r = f.call("fib", &[ten]);
            f.ret(Some(r));
        });
        let p = pb.build().unwrap();
        for mode in modes() {
            let (_, exit) = run(&p, mode);
            assert_eq!(exit, Exit::Halted(55), "{mode:?}");
        }
    }

    #[test]
    fn instrumented_code_is_larger_and_slower() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global_zeroed("buf", 256);
        pb.func("main", 0, move |f| {
            let base = f.global_addr(g);
            f.for_up(shift_ir::Rhs::Imm(0), shift_ir::Rhs::Imm(256), |f, i| {
                let addr = f.add(base, i);
                f.store1(i, addr, 0);
            });
            let zero = f.iconst(0);
            f.ret(Some(zero));
        });
        let p = pb.build().unwrap();
        let plain = Compiler::baseline().compile(&p).unwrap();
        let shifted = Compiler::new(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)))
            .compile(&p)
            .unwrap();
        assert!(shifted.image.insn_count() > plain.image.insn_count() * 2);

        let (mp, ep) = {
            let mut m = Machine::new(&plain.image);
            let e = m.run(&mut ExitOs, 10_000_000);
            (m, e)
        };
        let (mi, ei) = run(&p, Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
        assert_eq!(ep, Exit::Halted(0));
        assert_eq!(ei, Exit::Halted(0));
        assert!(
            mi.stats.cycles > mp.stats.cycles * 2,
            "instrumented {} vs plain {}",
            mi.stats.cycles,
            mp.stats.cycles
        );
        assert!(mi.stats.instrumentation_cycles() > 0);
        assert_eq!(mp.stats.instrumentation_cycles(), 0);
    }

    #[test]
    fn differential_against_interpreter() {
        // A mixed program: locals, globals, loops, calls, sub-word memory.
        let mut pb = ProgramBuilder::new();
        let g = pb.global_zeroed("scratch", 128);
        pb.func("mix", 2, move |f| {
            let a = f.param(0);
            let b = f.param(1);
            let base = f.global_addr(g);
            let acc = f.iconst(0);
            f.for_up(shift_ir::Rhs::Imm(0), shift_ir::Rhs::Reg(a), |f, i| {
                let x = f.mul(i, b);
                let idx = f.andi(x, 0x78);
                let addr = f.add(base, idx);
                f.store4(x, addr, 0);
                let v = f.load4(addr, 0);
                let s = f.add(acc, v);
                f.assign(acc, s);
            });
            f.ret(Some(acc));
        });
        pb.func("main", 0, |f| {
            let a = f.iconst(13);
            let b = f.iconst(37);
            let r = f.call("mix", &[a, b]);
            let folded = f.bini(shift_isa::AluOp::And, r, 0xffff);
            f.ret(Some(folded));
        });
        let p = pb.build().unwrap();
        let oracle = {
            let mut pb2 = ProgramBuilder::new();
            pb2.func("wrap", 0, |f| f.ret(None));
            let _ = pb2;
            shift_ir::interp::run_func(&p, "mix", &[13, 37]).unwrap().unwrap()
        };
        let expect = oracle & 0xffff;
        for mode in modes() {
            let (_, exit) = run(&p, mode);
            assert_eq!(exit, Exit::Halted(expect), "{mode:?}");
        }
    }

    #[test]
    fn enhancement_modes_shrink_code_and_cycles() {
        // String-ish workload: byte loads/stores and compares.
        let mut pb = ProgramBuilder::new();
        let g = pb.global("s", 64, b"the quick brown fox jumps over the lazy dog".to_vec());
        let d = pb.global_zeroed("d", 64);
        pb.func("main", 0, move |f| {
            let src = f.global_addr(g);
            let dst = f.global_addr(d);
            let n = f.iconst(0);
            f.loop_(|f| {
                let sa = f.add(src, n);
                let c = f.load1(sa, 0);
                let da = f.add(dst, n);
                f.store1(c, da, 0);
                f.if_cmp(shift_isa::CmpRel::Eq, c, shift_ir::Rhs::Imm(0), |f| f.break_());
                let n2 = f.addi(n, 1);
                f.assign(n, n2);
            });
            f.ret(Some(n));
        });
        let p = pb.build().unwrap();

        let cycles = |mode: Mode| {
            let (m, exit) = run(&p, mode);
            assert!(matches!(exit, Exit::Halted(_)), "{mode:?}: {exit}");
            m.stats.cycles
        };
        let base = cycles(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));
        let set_clr = cycles(Mode::Shift(ShiftOptions {
            set_clr: true,
            nat_cmp: false,
            ..ShiftOptions::baseline(Granularity::Byte)
        }));
        let both = cycles(Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)));
        let plain = cycles(Mode::Uninstrumented);
        assert!(base > set_clr, "set/clear must help: {base} vs {set_clr}");
        assert!(set_clr > both, "nat-aware compare must help more: {set_clr} vs {both}");
        assert!(both > plain);
    }
}
