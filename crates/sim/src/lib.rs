#![warn(missing_docs)]
//! Cycle-counting instruction-set simulator for the dual-bank VLIW DSP.
//!
//! The paper evaluates its algorithms by executing compiled code "on the
//! instruction-set simulator of our model DSP architecture" and counting
//! cycles (§4). This simulator does the same: every functional unit has
//! a single-cycle latency, so one [`VliwInst`] retires per cycle and the
//! cycle count *is* the executed-instruction count.
//!
//! Within a cycle, all operand reads happen before any write commits —
//! the semantics the compaction pass relies on when it packs
//! anti-dependent operations into one instruction.
//!
//! The simulator enforces the memory-bank discipline: in the normal
//! (single-ported) configuration, the MU0 slot may only hold bank-X
//! operations and MU1 only bank-Y operations. The *Ideal* configuration
//! of the paper — a dual-ported memory — is modelled by
//! [`SimOptions::dual_ported`], which lets either unit reach either
//! bank.
//!
//! # Execution model
//!
//! [`Simulator::run`] does once per run what does not depend on the
//! machine state: it validates the program (bank discipline, entry and
//! branch targets) and decodes every bundle into a flat array of
//! operations in commit order. Each cycle then only evaluates those
//! operations, commits their writes from fixed inline buffers, and
//! counts one execution of the bundle's pc. The operation, load, store,
//! unit and dual-memory statistics are derived at halt as each bundle's
//! execution count times its static facts; the stack high-water mark is
//! updated only on bundles that write a stack pointer. A reference
//! stepper that re-reads every slot each cycle is kept in the tests as
//! the executable specification.

use dsp_machine::{
    AReg, AddrOp, Bank, CmpKind, FReg, FpBinKind, FpOp, IReg, InstAddr, IntBinKind, IntOp,
    IntOperand, MemAddr, MemOp, PcuOp, Reg, VliwProgram, Word, NUM_REGS_PER_FILE,
};

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Model a dual-ported memory: either memory unit may access either
    /// bank (the paper's *Ideal* configuration).
    pub dual_ported: bool,
    /// Cycle budget before aborting (runaway guard).
    pub fuel: u64,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            dual_ported: false,
            fuel: 2_000_000_000,
        }
    }
}

/// Statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles executed (== VLIW instructions retired).
    pub cycles: u64,
    /// Total operations executed across all slots.
    pub ops: u64,
    /// Memory loads performed.
    pub loads: u64,
    /// Memory stores performed.
    pub stores: u64,
    /// Cycles in which both memory units were busy — the parallelism the
    /// paper's techniques try to create.
    pub dual_mem_cycles: u64,
    /// Cycles in which both memory units hit the *same* bank. Only a
    /// dual-ported (Ideal) memory allows this; the count is exactly the
    /// bandwidth real banked hardware could not have delivered.
    pub bank_conflict_cycles: u64,
    /// High-water mark of the bank-X stack, in words above its base.
    pub max_stack_x: u32,
    /// High-water mark of the bank-Y stack, in words above its base.
    pub max_stack_y: u32,
    /// Operations executed per functional unit, indexed like
    /// [`dsp_machine::FuncUnit::ALL`].
    pub unit_ops: [u64; dsp_machine::NUM_FUNC_UNITS],
}

impl SimStats {
    /// Mean occupied slots per cycle — a VLIW utilization figure.
    #[must_use]
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.cycles as f64
        }
    }

    /// The larger of the two stack high-water marks, used as the `S`
    /// term of the paper's memory-cost model.
    #[must_use]
    pub fn max_stack_words(&self) -> u32 {
        self.max_stack_x.max(self.max_stack_y)
    }
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program failed static validation.
    Invalid(String),
    /// An access fell outside the bank.
    AddrOutOfRange {
        /// Program counter.
        pc: u32,
        /// The bank accessed.
        bank: Bank,
        /// The offending word address.
        addr: i64,
    },
    /// The program counter left the instruction memory without halting.
    PcOutOfRange {
        /// The bad program counter.
        pc: u32,
    },
    /// `ret` with an empty hardware call stack.
    CallStackUnderflow {
        /// Program counter.
        pc: u32,
    },
    /// `call` with the hardware call stack already full.
    CallStackOverflow {
        /// Program counter.
        pc: u32,
    },
    /// The cycle budget was exhausted.
    FuelExhausted,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid(e) => write!(f, "invalid program: {e}"),
            SimError::AddrOutOfRange { pc, bank, addr } => {
                write!(f, "address {addr} out of range for bank {bank} at pc {pc}")
            }
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            SimError::CallStackUnderflow { pc } => {
                write!(f, "call-stack underflow at pc {pc}")
            }
            SimError::CallStackOverflow { pc } => {
                write!(f, "call-stack overflow at pc {pc}")
            }
            SimError::FuelExhausted => write!(f, "cycle budget exhausted"),
        }
    }
}

impl std::error::Error for SimError {}

/// The machine state of the simulator.
pub struct Simulator<'p> {
    program: &'p VliwProgram,
    options: SimOptions,
    /// Every register file in one array, indexed by flat register
    /// numbers (see [`A0`]).
    regs: [Word; NUM_FLAT_REGS],
    /// Data memory, indexed by `Bank as usize`.
    mem: [Vec<Word>; 2],
    call_stack: Vec<u32>,
    pc: u32,
    halted: bool,
    cycles: u64,
    /// Executions of each bundle, indexed by pc.
    counts: Vec<u64>,
    /// Stack high-water marks of banks X and Y, in words above the base.
    max_stack: [u32; 2],
}

/// Hardware call-stack depth (the DSP56001 has a 15-deep one; we are a
/// little more generous for recursive benchmarks).
const CALL_STACK_DEPTH: usize = 4096;

/// First flat register number of the address file; the integer file
/// follows at [`I0`], the float file at [`F0`], and [`ZERO`] last.
const A0: usize = 0;
const I0: usize = NUM_REGS_PER_FILE;
const F0: usize = 2 * NUM_REGS_PER_FILE;
/// A register that always reads zero. Addressing modes without a base
/// or index register read it instead; no decoded operation writes it.
const ZERO: u8 = (3 * NUM_REGS_PER_FILE) as u8;
/// The register array's length: one slot per `u8`, so indexing it with
/// a flat register number needs no bounds check. Slots past [`ZERO`]
/// are never read or written.
const NUM_FLAT_REGS: usize = 256;
const SP_X: usize = A0 + AReg::SP_X.0 as usize;
const SP_Y: usize = A0 + AReg::SP_Y.0 as usize;

/// A program decoded once per [`Simulator::run`]: `bundles[pc]` holds
/// pc's operations as a range of `ops`.
struct Code {
    bundles: Vec<Bundle>,
    ops: Vec<Op>,
}

struct Bundle {
    /// Operations in commit order: `du0 du1 fpu0 fpu1 au0 au1 mu0 mu1`.
    ops: std::ops::Range<usize>,
    next: Next,
    /// Whether an operation writes `SP_X` or `SP_Y`: the stack
    /// high-water mark can only move on such bundles.
    writes_sp: bool,
}

/// The bundle's program-control operation.
enum Next {
    Fall,
    Jump(u32),
    /// Taken when `regs[cond] != 0` is `nonzero`.
    Branch {
        cond: u8,
        nonzero: bool,
        target: u32,
    },
    Call(u32),
    Ret,
    Halt,
}

/// A decoded operation; registers are flat register numbers.
#[derive(Clone, Copy)]
enum Op {
    /// Compute `val` from the pre-cycle state; write it to `dst` at commit.
    Write { dst: u8, val: Val },
    /// Read the bank; write the word to `dst` at commit.
    Load { dst: u8, bank: Bank, ea: Ea },
    /// Write `regs[src]` to the bank at commit.
    Store { src: u8, bank: Bank, ea: Ea },
}

#[derive(Clone, Copy)]
enum Val {
    IntBin(IntBinKind, u8, Operand),
    IntCmp(CmpKind, u8, Operand),
    IntNeg(u8),
    IntNot(u8),
    FpBin(FpBinKind, u8, u8),
    FpCmp(CmpKind, u8, u8),
    /// `acc + a * b`.
    Mac(u8, u8, u8),
    FpNeg(u8),
    IntToFp(u8),
    FpToInt(u8),
    /// An immediate of any register file.
    Imm(Word),
    /// A raw word copy within or across register files.
    Copy(u8),
    /// Address arithmetic `base + index`, wrapping.
    AddrAdd(u8, Operand),
}

/// A register or an immediate right-hand operand.
#[derive(Clone, Copy)]
enum Operand {
    Reg(u8),
    Imm(i32),
}

/// The effective address `regs[base]` (unsigned) + `regs[index]`
/// (signed) + `offset`, every [`MemAddr`] mode in one form.
#[derive(Clone, Copy)]
struct Ea {
    base: u8,
    index: u8,
    offset: i64,
}

impl Code {
    fn decode(program: &VliwProgram) -> Code {
        let mut code = Code {
            bundles: Vec::with_capacity(program.insts.len()),
            ops: Vec::new(),
        };
        for inst in &program.insts {
            let start = code.ops.len();
            code.ops
                .extend([inst.du0, inst.du1].into_iter().flatten().map(decode_int));
            code.ops
                .extend([inst.fpu0, inst.fpu1].into_iter().flatten().map(decode_fp));
            code.ops
                .extend([inst.au0, inst.au1].into_iter().flatten().map(decode_addr));
            code.ops
                .extend([inst.mu0, inst.mu1].into_iter().flatten().map(decode_mem));
            let writes_sp = code.ops[start..].iter().any(|op| {
                matches!(op, Op::Write { dst, .. } | Op::Load { dst, .. }
                    if usize::from(*dst) == SP_X || usize::from(*dst) == SP_Y)
            });
            let branch = |cond, nonzero, target: InstAddr| Next::Branch {
                cond: ireg(cond),
                nonzero,
                target: target.0,
            };
            let next = match inst.pcu {
                None => Next::Fall,
                Some(PcuOp::Jump(t)) => Next::Jump(t.0),
                Some(PcuOp::BranchNz { cond, target }) => branch(cond, true, target),
                Some(PcuOp::BranchZ { cond, target }) => branch(cond, false, target),
                Some(PcuOp::Call(t)) => Next::Call(t.0),
                Some(PcuOp::Ret) => Next::Ret,
                Some(PcuOp::Halt) => Next::Halt,
            };
            code.bundles.push(Bundle {
                ops: start..code.ops.len(),
                next,
                writes_sp,
            });
        }
        code
    }
}

/// The flat number of register `index` of the file starting at `file`.
///
/// # Panics
///
/// If `index` lies outside the file. The compiler and the binary
/// decoder only produce in-range registers; a hand-built program that
/// does not would otherwise alias another file.
fn flat(file: usize, index: u8) -> u8 {
    assert!(
        usize::from(index) < NUM_REGS_PER_FILE,
        "register index {index} outside its file"
    );
    (file + usize::from(index)) as u8
}

fn areg(r: AReg) -> u8 {
    flat(A0, r.0)
}

fn ireg(r: IReg) -> u8 {
    flat(I0, r.0)
}

fn freg(r: FReg) -> u8 {
    flat(F0, r.0)
}

fn reg(r: Reg) -> u8 {
    match r {
        Reg::Addr(r) => areg(r),
        Reg::Int(r) => ireg(r),
        Reg::Float(r) => freg(r),
    }
}

fn operand(o: IntOperand) -> Operand {
    match o {
        IntOperand::Reg(r) => Operand::Reg(ireg(r)),
        IntOperand::Imm(v) => Operand::Imm(v),
    }
}

fn decode_int(op: IntOp) -> Op {
    let (dst, val) = match op {
        IntOp::Bin {
            kind,
            dst,
            lhs,
            rhs,
        } => (dst, Val::IntBin(kind, ireg(lhs), operand(rhs))),
        IntOp::Cmp {
            kind,
            dst,
            lhs,
            rhs,
        } => (dst, Val::IntCmp(kind, ireg(lhs), operand(rhs))),
        IntOp::MovImm { dst, imm } => (dst, Val::Imm(Word::from_i32(imm))),
        IntOp::Mov { dst, src } => (dst, Val::Copy(ireg(src))),
        IntOp::Neg { dst, src } => (dst, Val::IntNeg(ireg(src))),
        IntOp::Not { dst, src } => (dst, Val::IntNot(ireg(src))),
    };
    Op::Write {
        dst: ireg(dst),
        val,
    }
}

fn decode_fp(op: FpOp) -> Op {
    let (dst, val) = match op {
        FpOp::Bin {
            kind,
            dst,
            lhs,
            rhs,
        } => (freg(dst), Val::FpBin(kind, freg(lhs), freg(rhs))),
        FpOp::Mac { dst, a, b } => (freg(dst), Val::Mac(freg(dst), freg(a), freg(b))),
        FpOp::Cmp {
            kind,
            dst,
            lhs,
            rhs,
        } => (ireg(dst), Val::FpCmp(kind, freg(lhs), freg(rhs))),
        FpOp::MovImm { dst, imm } => (freg(dst), Val::Imm(Word::from_f32(imm))),
        FpOp::Mov { dst, src } => (freg(dst), Val::Copy(freg(src))),
        FpOp::Neg { dst, src } => (freg(dst), Val::FpNeg(freg(src))),
        FpOp::CvtItoF { dst, src } => (freg(dst), Val::IntToFp(ireg(src))),
        FpOp::CvtFtoI { dst, src } => (ireg(dst), Val::FpToInt(freg(src))),
    };
    Op::Write { dst, val }
}

fn decode_addr(op: AddrOp) -> Op {
    let (dst, val) = match op {
        AddrOp::Lea { dst, addr } => (areg(dst), Val::Imm(Word(addr))),
        AddrOp::AddIndex { dst, base, index } => (
            areg(dst),
            Val::AddrAdd(areg(base), Operand::Reg(ireg(index))),
        ),
        AddrOp::AddImm { dst, base, imm } => {
            (areg(dst), Val::AddrAdd(areg(base), Operand::Imm(imm)))
        }
        AddrOp::Mov { dst, src } => (areg(dst), Val::Copy(areg(src))),
        AddrOp::ToInt { dst, src } => (ireg(dst), Val::Copy(areg(src))),
        AddrOp::FromInt { dst, src } => (areg(dst), Val::Copy(ireg(src))),
    };
    Op::Write { dst, val }
}

fn decode_mem(op: MemOp) -> Op {
    let ea = |addr| {
        let (base, index, offset) = match addr {
            MemAddr::Absolute(a) => (ZERO, ZERO, i64::from(a)),
            MemAddr::Base { base, offset } => (areg(base), ZERO, i64::from(offset)),
            MemAddr::AbsIndex { addr, index } => (ZERO, ireg(index), i64::from(addr)),
            MemAddr::BaseIndex {
                base,
                index,
                offset,
            } => (areg(base), ireg(index), i64::from(offset)),
        };
        Ea {
            base,
            index,
            offset,
        }
    };
    match op {
        MemOp::Load { dst, addr, bank } => Op::Load {
            dst: reg(dst),
            bank,
            ea: ea(addr),
        },
        MemOp::Store { src, addr, bank } => Op::Store {
            src: reg(src),
            bank,
            ea: ea(addr),
        },
    }
}

impl<'p> Simulator<'p> {
    /// Create a simulator with memories initialized from the program
    /// images and the stack pointers pointing at their bases.
    #[must_use]
    pub fn new(program: &'p VliwProgram, options: SimOptions) -> Simulator<'p> {
        let bank = |image: &[Word], stack_base: u32| {
            let size = (stack_base + program.stack_words) as usize;
            let mut mem = vec![Word::ZERO; size.max(image.len())];
            mem[..image.len()].copy_from_slice(image);
            mem
        };
        let mut regs = [Word::ZERO; NUM_FLAT_REGS];
        regs[SP_X] = Word(program.x_stack_base);
        regs[SP_Y] = Word(program.y_stack_base);
        Simulator {
            program,
            options,
            regs,
            mem: [
                bank(&program.x_image.init, program.x_stack_base),
                bank(&program.y_image.init, program.y_stack_base),
            ],
            call_stack: Vec::new(),
            pc: program.entry.0,
            halted: false,
            cycles: 0,
            counts: vec![0; program.insts.len()],
            max_stack: [0; 2],
        }
    }

    /// Run until `halt` or an error. Once halted, a further call
    /// returns the same statistics.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on validation failure, out-of-range
    /// accesses, call-stack errors, or fuel exhaustion.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        self.program
            .validate(self.options.dual_ported)
            .map_err(SimError::Invalid)?;
        let code = Code::decode(self.program);
        self.execute(&code)?;
        Ok(self.stats())
    }

    fn execute(&mut self, code: &Code) -> Result<(), SimError> {
        while !self.halted {
            if self.cycles >= self.options.fuel {
                return Err(SimError::FuelExhausted);
            }
            let pc = self.pc;
            let bundle = code
                .bundles
                .get(pc as usize)
                .ok_or(SimError::PcOutOfRange { pc })?;
            self.cycles += 1;
            self.counts[pc as usize] += 1;

            // Read every operand before any result commits. A bundle
            // holds at most eight register writes and two stores.
            let mut reg_writes = [(0u8, Word::ZERO); 8];
            let mut mem_writes = [(Bank::X, 0usize, Word::ZERO); 2];
            let (mut n_reg, mut n_mem) = (0, 0);
            for op in &code.ops[bundle.ops.clone()] {
                match *op {
                    Op::Write { dst, val } => {
                        reg_writes[n_reg] = (dst, self.eval(val));
                        n_reg += 1;
                    }
                    Op::Load { dst, bank, ea } => {
                        let a = self.effective(ea, bank, pc)?;
                        reg_writes[n_reg] = (dst, self.mem[bank as usize][a]);
                        n_reg += 1;
                    }
                    Op::Store { src, bank, ea } => {
                        let a = self.effective(ea, bank, pc)?;
                        mem_writes[n_mem] = (bank, a, self.regs[usize::from(src)]);
                        n_mem += 1;
                    }
                }
            }
            // A branch reads its condition before the commit, like every
            // operand; a call's or return's stack errors come after it.
            let mut next_pc = pc + 1;
            match bundle.next {
                Next::Jump(target) => next_pc = target,
                Next::Branch {
                    cond,
                    nonzero,
                    target,
                } if self.regs[usize::from(cond)].is_truthy() == nonzero => next_pc = target,
                _ => {}
            }

            for &(dst, w) in &reg_writes[..n_reg] {
                self.regs[usize::from(dst)] = w;
            }
            for &(bank, a, w) in &mem_writes[..n_mem] {
                self.mem[bank as usize][a] = w;
            }
            match bundle.next {
                Next::Call(target) => {
                    if self.call_stack.len() >= CALL_STACK_DEPTH {
                        return Err(SimError::CallStackOverflow { pc });
                    }
                    self.call_stack.push(pc + 1);
                    next_pc = target;
                }
                Next::Ret => {
                    next_pc = self
                        .call_stack
                        .pop()
                        .ok_or(SimError::CallStackUnderflow { pc })?;
                }
                Next::Halt => self.halted = true,
                _ => {}
            }
            self.pc = next_pc;
            if bundle.writes_sp {
                let hx = self.regs[SP_X].0.saturating_sub(self.program.x_stack_base);
                let hy = self.regs[SP_Y].0.saturating_sub(self.program.y_stack_base);
                self.max_stack[0] = self.max_stack[0].max(hx);
                self.max_stack[1] = self.max_stack[1].max(hy);
            }
        }
        Ok(())
    }

    fn eval(&self, val: Val) -> Word {
        let r = |i: u8| self.regs[usize::from(i)];
        let operand = |o: Operand| match o {
            Operand::Reg(i) => r(i).as_i32(),
            Operand::Imm(v) => v,
        };
        match val {
            Val::IntBin(kind, lhs, rhs) => {
                Word::from_i32(eval_ibin(kind, r(lhs).as_i32(), operand(rhs)))
            }
            Val::IntCmp(kind, lhs, rhs) => {
                Word::from_i32(i32::from(eval_icmp(kind, r(lhs).as_i32(), operand(rhs))))
            }
            Val::IntNeg(src) => Word::from_i32(r(src).as_i32().wrapping_neg()),
            Val::IntNot(src) => Word::from_i32(!r(src).as_i32()),
            Val::FpBin(kind, lhs, rhs) => {
                Word::from_f32(eval_fbin(kind, r(lhs).as_f32(), r(rhs).as_f32()))
            }
            Val::FpCmp(kind, lhs, rhs) => {
                Word::from_i32(i32::from(eval_fcmp(kind, r(lhs).as_f32(), r(rhs).as_f32())))
            }
            Val::Mac(acc, a, b) => Word::from_f32(r(acc).as_f32() + r(a).as_f32() * r(b).as_f32()),
            Val::FpNeg(src) => Word::from_f32(-r(src).as_f32()),
            Val::IntToFp(src) => Word::from_f32(r(src).as_i32() as f32),
            Val::FpToInt(src) => Word::from_i32(r(src).as_f32() as i32),
            Val::Imm(w) => w,
            Val::Copy(src) => r(src),
            Val::AddrAdd(base, index) => Word(r(base).0.wrapping_add(operand(index) as u32)),
        }
    }

    fn effective(&self, ea: Ea, bank: Bank, pc: u32) -> Result<usize, SimError> {
        let addr = i64::from(self.regs[usize::from(ea.base)].0)
            + i64::from(self.regs[usize::from(ea.index)].as_i32())
            + ea.offset;
        match usize::try_from(addr) {
            Ok(a) if a < self.mem[bank as usize].len() => Ok(a),
            _ => Err(SimError::AddrOutOfRange { pc, bank, addr }),
        }
    }

    /// The run's statistics: each bundle's static facts times its
    /// execution count.
    fn stats(&self) -> SimStats {
        let mut stats = SimStats {
            cycles: self.cycles,
            max_stack_x: self.max_stack[0],
            max_stack_y: self.max_stack[1],
            ..SimStats::default()
        };
        for (inst, &n) in self.program.insts.iter().zip(&self.counts) {
            if n == 0 {
                continue;
            }
            stats.ops += n * inst.op_count() as u64;
            for op in [inst.mu0, inst.mu1].into_iter().flatten() {
                if op.is_store() {
                    stats.stores += n;
                } else {
                    stats.loads += n;
                }
            }
            if let (Some(a), Some(b)) = (inst.mu0, inst.mu1) {
                stats.dual_mem_cycles += n;
                if a.bank() == b.bank() {
                    stats.bank_conflict_cycles += n;
                }
            }
            // In `FuncUnit::ALL` order.
            let occupied = [
                inst.pcu.is_some(),
                inst.mu0.is_some(),
                inst.mu1.is_some(),
                inst.au0.is_some(),
                inst.au1.is_some(),
                inst.du0.is_some(),
                inst.du1.is_some(),
                inst.fpu0.is_some(),
                inst.fpu1.is_some(),
            ];
            for (ops, busy) in stats.unit_ops.iter_mut().zip(occupied) {
                if busy {
                    *ops += n;
                }
            }
        }
        stats
    }

    /// Read the contents of a named data symbol from its home bank.
    #[must_use]
    pub fn read_symbol(&self, name: &str) -> Option<Vec<Word>> {
        let sym = self.program.symbol(name)?;
        let start = sym.addr as usize;
        Some(self.mem[sym.home as usize][start..start + sym.size as usize].to_vec())
    }

    /// Read the *secondary* copy of a duplicated symbol (same address,
    /// other bank). Returns `None` for non-duplicated symbols.
    #[must_use]
    pub fn read_symbol_copy(&self, name: &str) -> Option<Vec<Word>> {
        let sym = self.program.symbol(name)?;
        if !sym.duplicated {
            return None;
        }
        let start = sym.addr as usize;
        Some(self.mem[sym.home.other() as usize][start..start + sym.size as usize].to_vec())
    }

    /// Snapshot every data symbol's final contents, in symbol-table
    /// order: the simulator side of a differential comparison against
    /// the reference interpreter's global state. Duplicated symbols read
    /// from their home bank (the copies' coherence is a separate
    /// invariant, checked via [`Simulator::read_symbol_copy`]).
    #[must_use]
    pub fn snapshot_symbols(&self) -> Vec<(String, Vec<Word>)> {
        self.program
            .symbols
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    self.read_symbol(&s.name).expect("symbol table name"),
                )
            })
            .collect()
    }

    /// Current value of an integer register (for tests).
    #[must_use]
    pub fn ireg(&self, i: usize) -> Word {
        self.regs[I0..F0][i]
    }
}

// The arithmetic helpers are shared with the IR interpreter so the two
// execution engines can never drift apart.
use dsp_ir::interp::{eval_fbin, eval_fcmp, eval_ibin, eval_icmp};

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::spec::Spec;
    use super::*;
    use dsp_machine::{DataImage, DataSymbol, FuncUnit, Label, VliwFunction, VliwInst};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn program(insts: Vec<VliwInst>) -> VliwProgram {
        VliwProgram {
            insts,
            entry: InstAddr(0),
            x_image: DataImage::default(),
            y_image: DataImage::default(),
            x_static_words: 16,
            y_static_words: 16,
            x_stack_base: 16,
            y_stack_base: 16,
            stack_words: 64,
            symbols: vec![
                DataSymbol {
                    name: "vx".into(),
                    addr: 0,
                    size: 4,
                    home: Bank::X,
                    duplicated: false,
                },
                DataSymbol {
                    name: "vy".into(),
                    addr: 0,
                    size: 4,
                    home: Bank::Y,
                    duplicated: false,
                },
            ],
            functions: vec![VliwFunction {
                name: "main".into(),
                start: InstAddr(0),
                len: 0,
            }],
            labels: vec![Label {
                name: "main".into(),
                addr: InstAddr(0),
            }],
        }
    }

    fn halt() -> VliwInst {
        let mut i = VliwInst::new();
        i.pcu = Some(PcuOp::Halt);
        i
    }

    #[test]
    fn parallel_loads_one_cycle() {
        // movi r1,#7 ; store it to both banks ; load both back ; halt
        let mut setup = VliwInst::new();
        setup.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 7,
        });
        let mut stores = VliwInst::new();
        stores.mu0 = Some(MemOp::Store {
            src: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(2),
            bank: Bank::X,
        });
        stores.mu1 = Some(MemOp::Store {
            src: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(3),
            bank: Bank::Y,
        });
        let mut loads = VliwInst::new();
        loads.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(2)),
            addr: MemAddr::Absolute(2),
            bank: Bank::X,
        });
        loads.mu1 = Some(MemOp::Load {
            dst: Reg::Int(IReg(3)),
            addr: MemAddr::Absolute(3),
            bank: Bank::Y,
        });
        let p = program(vec![setup, stores, loads, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(stats.cycles, 4);
        assert_eq!(stats.dual_mem_cycles, 2);
        assert_eq!(sim.ireg(2).as_i32(), 7);
        assert_eq!(sim.ireg(3).as_i32(), 7);
    }

    #[test]
    fn bank_conflict_detected() {
        let mut bad = VliwInst::new();
        bad.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(0),
            bank: Bank::Y, // wrong slot
        });
        let p = program(vec![bad, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert!(matches!(sim.run(), Err(SimError::Invalid(_))));
        // Dual-ported (Ideal) memory accepts it.
        let mut sim = Simulator::new(
            &p,
            SimOptions {
                dual_ported: true,
                ..SimOptions::default()
            },
        );
        assert!(sim.run().is_ok());
    }

    #[test]
    fn reads_before_writes_within_cycle() {
        // r1 = 5; then in ONE cycle: r2 = r1 + 0 || r1 = 9.
        // r2 must see the old r1 (5), not 9.
        let mut setup = VliwInst::new();
        setup.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 5,
        });
        let mut both = VliwInst::new();
        both.du0 = Some(IntOp::Bin {
            kind: IntBinKind::Add,
            dst: IReg(2),
            lhs: IReg(1),
            rhs: IntOperand::Imm(0),
        });
        both.du1 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 9,
        });
        let p = program(vec![setup, both, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        assert_eq!(sim.ireg(2).as_i32(), 5);
        assert_eq!(sim.ireg(1).as_i32(), 9);
    }

    #[test]
    fn call_and_ret_use_hardware_stack() {
        // 0: call 3
        // 1: halt           <- return lands here
        // 2: (unreachable)
        // 3: movi r1, 42
        // 4: ret
        let mut call = VliwInst::new();
        call.pcu = Some(PcuOp::Call(InstAddr(3)));
        let mut movi = VliwInst::new();
        movi.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 42,
        });
        let mut ret = VliwInst::new();
        ret.pcu = Some(PcuOp::Ret);
        let p = program(vec![call, halt(), halt(), movi, ret]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(sim.ireg(1).as_i32(), 42);
        assert_eq!(stats.cycles, 4); // call, movi, ret, halt
    }

    #[test]
    fn ret_without_call_underflows() {
        let mut ret = VliwInst::new();
        ret.pcu = Some(PcuOp::Ret);
        let p = program(vec![ret]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert!(matches!(
            sim.run(),
            Err(SimError::CallStackUnderflow { pc: 0 })
        ));
    }

    #[test]
    fn branches_select_path() {
        // 0: movi r1, 0
        // 1: bz r1 -> 3
        // 2: movi r2, 1 (skipped)
        // 3: halt
        let mut a = VliwInst::new();
        a.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 0,
        });
        let mut b = VliwInst::new();
        b.pcu = Some(PcuOp::BranchZ {
            cond: IReg(1),
            target: InstAddr(3),
        });
        let mut c = VliwInst::new();
        c.du0 = Some(IntOp::MovImm {
            dst: IReg(2),
            imm: 1,
        });
        let p = program(vec![a, b, c, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(sim.ireg(2).as_i32(), 0);
        assert_eq!(stats.cycles, 3);
    }

    #[test]
    fn out_of_range_access_caught() {
        let mut bad = VliwInst::new();
        bad.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(10_000),
            bank: Bank::X,
        });
        let p = program(vec![bad, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert!(matches!(
            sim.run(),
            Err(SimError::AddrOutOfRange { bank: Bank::X, .. })
        ));
    }

    #[test]
    fn fuel_guard() {
        let mut spin = VliwInst::new();
        spin.pcu = Some(PcuOp::Jump(InstAddr(0)));
        let p = program(vec![spin]);
        let mut sim = Simulator::new(
            &p,
            SimOptions {
                fuel: 100,
                ..SimOptions::default()
            },
        );
        assert_eq!(sim.run(), Err(SimError::FuelExhausted));
    }

    #[test]
    fn float_pipeline_and_mac() {
        // f1 = 2.0, f2 = 3.0; f3 = 0; f3 += f1*f2 (mac); ftoi r1, f3.
        let mut a = VliwInst::new();
        a.fpu0 = Some(FpOp::MovImm {
            dst: FReg(1),
            imm: 2.0,
        });
        a.fpu1 = Some(FpOp::MovImm {
            dst: FReg(2),
            imm: 3.0,
        });
        let mut b = VliwInst::new();
        b.fpu0 = Some(FpOp::MovImm {
            dst: FReg(3),
            imm: 0.5,
        });
        let mut c = VliwInst::new();
        c.fpu0 = Some(FpOp::Mac {
            dst: FReg(3),
            a: FReg(1),
            b: FReg(2),
        });
        let mut d = VliwInst::new();
        d.fpu0 = Some(FpOp::CvtFtoI {
            dst: IReg(1),
            src: FReg(3),
        });
        let p = program(vec![a, b, c, d, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        assert_eq!(sim.ireg(1).as_i32(), 6); // 0.5 + 6.0 truncated
    }

    #[test]
    fn stack_high_water_tracked() {
        // Bump SP_X by 10, then back down.
        let mut up = VliwInst::new();
        up.au0 = Some(AddrOp::AddImm {
            dst: AReg::SP_X,
            base: AReg::SP_X,
            imm: 10,
        });
        let mut down = VliwInst::new();
        down.au0 = Some(AddrOp::AddImm {
            dst: AReg::SP_X,
            base: AReg::SP_X,
            imm: -10,
        });
        let p = program(vec![up, down, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(stats.max_stack_x, 10);
        assert_eq!(stats.max_stack_y, 0);
        assert_eq!(stats.max_stack_words(), 10);
    }

    #[test]
    fn symbol_readback() {
        let mut st = VliwInst::new();
        st.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 11,
        });
        let mut st2 = VliwInst::new();
        st2.mu1 = Some(MemOp::Store {
            src: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(1),
            bank: Bank::Y,
        });
        let p = program(vec![st, st2, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        let vy = sim.read_symbol("vy").unwrap();
        assert_eq!(vy[1].as_i32(), 11);
        assert!(sim.read_symbol_copy("vy").is_none());
    }

    #[test]
    fn indexed_addressing_modes() {
        // r1 = 2 (index); store 99 at X[base 4 + r1]; load it back via
        // BaseIndex with a0 = 4.
        let mut a = VliwInst::new();
        a.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 2,
        });
        a.du1 = Some(IntOp::MovImm {
            dst: IReg(2),
            imm: 99,
        });
        a.au0 = Some(AddrOp::Lea {
            dst: AReg(0),
            addr: 3,
        });
        let mut b = VliwInst::new();
        b.mu0 = Some(MemOp::Store {
            src: Reg::Int(IReg(2)),
            addr: MemAddr::AbsIndex {
                addr: 4,
                index: IReg(1),
            },
            bank: Bank::X,
        });
        let mut c = VliwInst::new();
        c.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(3)),
            addr: MemAddr::BaseIndex {
                base: AReg(0),
                index: IReg(1),
                offset: 1,
            },
            bank: Bank::X,
        });
        let p = program(vec![a, b, c, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        sim.run().unwrap();
        assert_eq!(sim.ireg(3).as_i32(), 99); // 3 + 2 + 1 == 4 + 2
    }

    #[test]
    fn stats_utilization() {
        let mut a = VliwInst::new();
        a.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 1,
        });
        a.du1 = Some(IntOp::MovImm {
            dst: IReg(2),
            imm: 2,
        });
        let p = program(vec![a, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let stats = sim.run().unwrap();
        assert_eq!(stats.ops, 3);
        assert!((stats.ops_per_cycle() - 1.5).abs() < 1e-9);
    }

    /// Run `p` on the reference stepper and on the simulator: both must
    /// return the same result and leave the same registers and memories.
    fn run_both(p: &VliwProgram, options: SimOptions) -> Result<SimStats, SimError> {
        let mut spec = Spec::new(p, options);
        let mut sim = Simulator::new(p, options);
        let want = spec.run();
        let got = sim.run();
        let context = || format!("{options:?}\n{}", p.disassemble());
        assert_eq!(got, want, "result differs from the spec\n{}", context());
        assert_eq!(sim.regs[A0..I0], spec.aregs, "address file\n{}", context());
        assert_eq!(sim.regs[I0..F0], spec.iregs, "integer file\n{}", context());
        assert_eq!(
            sim.regs[F0..usize::from(ZERO)],
            spec.fregs,
            "float file\n{}",
            context()
        );
        assert_eq!(sim.mem[0], spec.mem_x, "bank X\n{}", context());
        assert_eq!(sim.mem[1], spec.mem_y, "bank Y\n{}", context());
        got
    }

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    fn small(rng: &mut TestRng, lo: i32, hi: i32) -> i32 {
        lo + rng.below((hi - lo) as u64) as i32
    }

    /// A random program over every operation kind and addressing mode,
    /// with in-range control-flow targets, a small fuel budget and either
    /// memory configuration. Register and address choices are narrow so
    /// operations depend on each other and addresses fall both inside
    /// and outside the 80-word banks.
    fn random_case(rng: &mut TestRng) -> (VliwProgram, SimOptions) {
        let n = rng.usize_in(1..12);
        let options = SimOptions {
            dual_ported: rng.chance(50),
            fuel: rng.below(200),
        };
        let a = |rng: &mut TestRng| pick(rng, &[AReg(0), AReg(1), AReg(2), AReg::SP_X, AReg::SP_Y]);
        let i = |rng: &mut TestRng| IReg(rng.below(5) as u8);
        let f = |rng: &mut TestRng| FReg(rng.below(4) as u8);
        let any_reg = |rng: &mut TestRng| match rng.below(3) {
            0 => Reg::Addr(a(rng)),
            1 => Reg::Int(i(rng)),
            _ => Reg::Float(f(rng)),
        };
        let operand = |rng: &mut TestRng| {
            if rng.chance(50) {
                IntOperand::Reg(i(rng))
            } else {
                IntOperand::Imm(small(rng, -4, 40))
            }
        };
        let int_kinds = [
            IntBinKind::Add,
            IntBinKind::Sub,
            IntBinKind::Mul,
            IntBinKind::Div,
            IntBinKind::Rem,
            IntBinKind::And,
            IntBinKind::Or,
            IntBinKind::Xor,
            IntBinKind::Shl,
            IntBinKind::Shr,
        ];
        let cmp_kinds = [
            CmpKind::Eq,
            CmpKind::Ne,
            CmpKind::Lt,
            CmpKind::Le,
            CmpKind::Gt,
            CmpKind::Ge,
        ];
        let fp_kinds = [
            FpBinKind::Add,
            FpBinKind::Sub,
            FpBinKind::Mul,
            FpBinKind::Div,
        ];
        let int_op = |rng: &mut TestRng| match rng.below(6) {
            0 => IntOp::Bin {
                kind: pick(rng, &int_kinds),
                dst: i(rng),
                lhs: i(rng),
                rhs: operand(rng),
            },
            1 => IntOp::Cmp {
                kind: pick(rng, &cmp_kinds),
                dst: i(rng),
                lhs: i(rng),
                rhs: operand(rng),
            },
            2 => IntOp::MovImm {
                dst: i(rng),
                imm: small(rng, -4, 90),
            },
            3 => IntOp::Mov {
                dst: i(rng),
                src: i(rng),
            },
            4 => IntOp::Neg {
                dst: i(rng),
                src: i(rng),
            },
            _ => IntOp::Not {
                dst: i(rng),
                src: i(rng),
            },
        };
        let fp_op = |rng: &mut TestRng| match rng.below(8) {
            0 => FpOp::Bin {
                kind: pick(rng, &fp_kinds),
                dst: f(rng),
                lhs: f(rng),
                rhs: f(rng),
            },
            1 => FpOp::Mac {
                dst: f(rng),
                a: f(rng),
                b: f(rng),
            },
            2 => FpOp::Cmp {
                kind: pick(rng, &cmp_kinds),
                dst: i(rng),
                lhs: f(rng),
                rhs: f(rng),
            },
            3 => FpOp::MovImm {
                dst: f(rng),
                imm: small(rng, -8, 8) as f32 * 0.75,
            },
            4 => FpOp::Mov {
                dst: f(rng),
                src: f(rng),
            },
            5 => FpOp::Neg {
                dst: f(rng),
                src: f(rng),
            },
            6 => FpOp::CvtItoF {
                dst: f(rng),
                src: i(rng),
            },
            _ => FpOp::CvtFtoI {
                dst: i(rng),
                src: f(rng),
            },
        };
        let addr_op = |rng: &mut TestRng| match rng.below(6) {
            0 => AddrOp::Lea {
                dst: a(rng),
                addr: rng.below(90) as u32,
            },
            1 => AddrOp::AddIndex {
                dst: a(rng),
                base: a(rng),
                index: i(rng),
            },
            2 => AddrOp::AddImm {
                dst: a(rng),
                base: a(rng),
                imm: small(rng, -8, 12),
            },
            3 => AddrOp::Mov {
                dst: a(rng),
                src: a(rng),
            },
            4 => AddrOp::ToInt {
                dst: i(rng),
                src: a(rng),
            },
            _ => AddrOp::FromInt {
                dst: a(rng),
                src: i(rng),
            },
        };
        let mem_addr = |rng: &mut TestRng| match rng.below(4) {
            0 => MemAddr::Absolute(rng.below(90) as u32),
            1 => MemAddr::Base {
                base: a(rng),
                offset: small(rng, -4, 20),
            },
            2 => MemAddr::AbsIndex {
                addr: small(rng, -4, 80),
                index: i(rng),
            },
            _ => MemAddr::BaseIndex {
                base: a(rng),
                index: i(rng),
                offset: small(rng, -4, 8),
            },
        };
        // Single-ported programs keep each slot's own bank, except for
        // a rare violation that validation must reject.
        let mem_op = |rng: &mut TestRng, own: Bank| {
            let bank = if options.dual_ported || rng.chance(3) {
                pick(rng, &Bank::ALL)
            } else {
                own
            };
            if rng.chance(50) {
                MemOp::Load {
                    dst: any_reg(rng),
                    addr: mem_addr(rng),
                    bank,
                }
            } else {
                MemOp::Store {
                    src: any_reg(rng),
                    addr: mem_addr(rng),
                    bank,
                }
            }
        };
        let target = |rng: &mut TestRng| InstAddr(rng.below(n as u64) as u32);
        let pcu_op = |rng: &mut TestRng| match rng.below(6) {
            0 => PcuOp::Jump(target(rng)),
            1 => PcuOp::BranchNz {
                cond: i(rng),
                target: target(rng),
            },
            2 => PcuOp::BranchZ {
                cond: i(rng),
                target: target(rng),
            },
            3 => PcuOp::Call(target(rng)),
            4 => PcuOp::Ret,
            _ => PcuOp::Halt,
        };
        let slot = |rng: &mut TestRng| rng.chance(45);
        let insts = (0..n)
            .map(|_| VliwInst {
                pcu: slot(rng).then(|| pcu_op(rng)),
                mu0: slot(rng).then(|| mem_op(rng, Bank::X)),
                mu1: slot(rng).then(|| mem_op(rng, Bank::Y)),
                au0: slot(rng).then(|| addr_op(rng)),
                au1: slot(rng).then(|| addr_op(rng)),
                du0: slot(rng).then(|| int_op(rng)),
                du1: slot(rng).then(|| int_op(rng)),
                fpu0: slot(rng).then(|| fp_op(rng)),
                fpu1: slot(rng).then(|| fp_op(rng)),
            })
            .collect();
        (program(insts), options)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        #[test]
        fn matches_spec_on_random_programs(
            (p, options) in BoxedStrategy::new(random_case)
        ) {
            run_both(&p, options).ok();
        }
    }

    /// Every cell of the benchmark matrix, compiled by the back end:
    /// same statistics, registers, memories and symbol snapshot.
    #[test]
    fn matches_spec_on_benchmark_matrix() {
        let mut cells = 0;
        for bench in dsp_workloads::all() {
            let ir = dsp_workloads::runner::frontend(&bench).expect("benchmark parses");
            for strategy in dsp_backend::Strategy::ALL {
                let out = dsp_backend::compile_ir(&ir, strategy).expect("benchmark compiles");
                let options = SimOptions {
                    dual_ported: strategy.dual_ported(),
                    ..SimOptions::default()
                };
                let stats = run_both(&out.program, options);
                assert!(stats.is_ok(), "{} [{strategy}]: {stats:?}", bench.name);
                cells += 1;
            }
        }
        assert_eq!(cells, 161);
    }

    #[test]
    fn falling_off_the_end_is_pc_out_of_range() {
        let p = program(vec![VliwInst::new(), VliwInst::new()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        assert_eq!(sim.run(), Err(SimError::PcOutOfRange { pc: 2 }));
    }

    #[test]
    fn recursion_past_the_call_stack_depth_overflows() {
        let mut call = VliwInst::new();
        call.pcu = Some(PcuOp::Call(InstAddr(0)));
        let p = program(vec![call]);
        let err = run_both(&p, SimOptions::default());
        assert_eq!(err, Err(SimError::CallStackOverflow { pc: 0 }));
        let mut sim = Simulator::new(&p, SimOptions::default());
        let _ = sim.run();
        assert_eq!(sim.call_stack.len(), CALL_STACK_DEPTH);
    }

    #[test]
    fn fuel_is_exact() {
        // r1 = 3; loop: r1 -= 1; bnz r1 loop; halt — 1 + 3 * 2 + 1 cycles.
        let mut init = VliwInst::new();
        init.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 3,
        });
        let mut dec = VliwInst::new();
        dec.du0 = Some(IntOp::Bin {
            kind: IntBinKind::Sub,
            dst: IReg(1),
            lhs: IReg(1),
            rhs: IntOperand::Imm(1),
        });
        let mut back = VliwInst::new();
        back.pcu = Some(PcuOp::BranchNz {
            cond: IReg(1),
            target: InstAddr(1),
        });
        let p = program(vec![init, dec, back, halt()]);
        let with_fuel = |fuel| {
            run_both(
                &p,
                SimOptions {
                    fuel,
                    ..SimOptions::default()
                },
            )
        };
        assert_eq!(with_fuel(8).map(|s| s.cycles), Ok(8));
        assert_eq!(with_fuel(7), Err(SimError::FuelExhausted));
    }

    #[test]
    fn stack_high_water_follows_loads_and_from_int() {
        // Raise SP_X to 40 by a load and SP_Y to 23 by `FromInt`, each
        // lowered back to its base (16) by the next bundle, so only the
        // raising bundle sees the peak.
        let bundle = |fill: &dyn Fn(&mut VliwInst)| {
            let mut inst = VliwInst::new();
            fill(&mut inst);
            inst
        };
        let lower = |sp: AReg, by: i32| {
            bundle(&|i| {
                i.au0 = Some(AddrOp::AddImm {
                    dst: sp,
                    base: sp,
                    imm: -by,
                })
            })
        };
        let p = program(vec![
            bundle(&|i| {
                i.du0 = Some(IntOp::MovImm {
                    dst: IReg(1),
                    imm: 40,
                });
                i.du1 = Some(IntOp::MovImm {
                    dst: IReg(2),
                    imm: 23,
                });
            }),
            bundle(&|i| {
                i.mu0 = Some(MemOp::Store {
                    src: Reg::Int(IReg(1)),
                    addr: MemAddr::Absolute(2),
                    bank: Bank::X,
                })
            }),
            bundle(&|i| {
                i.mu0 = Some(MemOp::Load {
                    dst: Reg::Addr(AReg::SP_X),
                    addr: MemAddr::Absolute(2),
                    bank: Bank::X,
                })
            }),
            lower(AReg::SP_X, 24),
            bundle(&|i| {
                i.au0 = Some(AddrOp::FromInt {
                    dst: AReg::SP_Y,
                    src: IReg(2),
                })
            }),
            lower(AReg::SP_Y, 7),
            halt(),
        ]);
        let stats = run_both(&p, SimOptions::default()).unwrap();
        assert_eq!((stats.max_stack_x, stats.max_stack_y), (24, 7));
    }

    #[test]
    fn dual_ported_same_bank_bundle_counts() {
        let mut both_x = VliwInst::new();
        both_x.mu0 = Some(MemOp::Load {
            dst: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(0),
            bank: Bank::X,
        });
        both_x.mu1 = Some(MemOp::Store {
            src: Reg::Int(IReg(1)),
            addr: MemAddr::Absolute(1),
            bank: Bank::X,
        });
        let p = program(vec![both_x, halt()]);
        let options = SimOptions {
            dual_ported: true,
            ..SimOptions::default()
        };
        let stats = run_both(&p, options).unwrap();
        assert_eq!(stats.cycles, 2);
        assert_eq!(stats.dual_mem_cycles, 1);
        assert_eq!(stats.bank_conflict_cycles, 1);
        assert_eq!((stats.loads, stats.stores), (1, 1));
        let mut units = [0; dsp_machine::NUM_FUNC_UNITS];
        for unit in [FuncUnit::Mu0, FuncUnit::Mu1, FuncUnit::Pcu] {
            units[FuncUnit::ALL.iter().position(|&u| u == unit).unwrap()] = 1;
        }
        assert_eq!(stats.unit_ops, units);
    }

    #[test]
    fn second_run_after_halt_returns_the_same_stats() {
        let mut up = VliwInst::new();
        up.au0 = Some(AddrOp::AddImm {
            dst: AReg::SP_X,
            base: AReg::SP_X,
            imm: 3,
        });
        up.du0 = Some(IntOp::MovImm {
            dst: IReg(1),
            imm: 1,
        });
        let p = program(vec![up, halt()]);
        let mut sim = Simulator::new(&p, SimOptions::default());
        let first = sim.run().unwrap();
        assert_eq!(first.cycles, 2);
        assert_eq!(sim.run(), Ok(first));
    }

    #[test]
    #[should_panic(expected = "outside its file")]
    fn register_outside_its_file_panics() {
        let mut bad = VliwInst::new();
        bad.du0 = Some(IntOp::MovImm {
            dst: IReg(NUM_REGS_PER_FILE as u8),
            imm: 1,
        });
        let p = program(vec![halt(), bad]);
        let _ = Simulator::new(&p, SimOptions::default()).run();
    }
}
