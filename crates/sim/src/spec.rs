//! The executable specification of the simulator: a direct, one-bundle-
//! at-a-time stepper that re-reads every slot of every bundle each cycle
//! and accumulates every statistic as it goes. [`crate::Simulator`] must
//! agree with it on every result, statistic, register and memory word;
//! the tests in `lib.rs` check that on random programs and on the whole
//! benchmark matrix.

use crate::{SimError, SimOptions, SimStats, CALL_STACK_DEPTH};
use dsp_ir::interp::{eval_fbin, eval_fcmp, eval_ibin, eval_icmp};
use dsp_machine::{
    AddrOp, Bank, FpOp, IntOp, IntOperand, MemAddr, MemOp, PcuOp, Reg, VliwProgram, Word,
    NUM_REGS_PER_FILE,
};

/// The machine state of the reference stepper.
pub(crate) struct Spec<'p> {
    program: &'p VliwProgram,
    options: SimOptions,
    pub(crate) aregs: [Word; NUM_REGS_PER_FILE],
    pub(crate) iregs: [Word; NUM_REGS_PER_FILE],
    pub(crate) fregs: [Word; NUM_REGS_PER_FILE],
    pub(crate) mem_x: Vec<Word>,
    pub(crate) mem_y: Vec<Word>,
    call_stack: Vec<u32>,
    pc: u32,
    halted: bool,
    stats: SimStats,
}

impl<'p> Spec<'p> {
    pub(crate) fn new(program: &'p VliwProgram, options: SimOptions) -> Spec<'p> {
        let x_size = (program.x_stack_base + program.stack_words) as usize;
        let y_size = (program.y_stack_base + program.stack_words) as usize;
        let mut mem_x = vec![Word::ZERO; x_size.max(program.x_image.init.len())];
        let mut mem_y = vec![Word::ZERO; y_size.max(program.y_image.init.len())];
        mem_x[..program.x_image.init.len()].copy_from_slice(&program.x_image.init);
        mem_y[..program.y_image.init.len()].copy_from_slice(&program.y_image.init);
        let mut sim = Spec {
            program,
            options,
            aregs: [Word::ZERO; NUM_REGS_PER_FILE],
            iregs: [Word::ZERO; NUM_REGS_PER_FILE],
            fregs: [Word::ZERO; NUM_REGS_PER_FILE],
            mem_x,
            mem_y,
            call_stack: Vec::new(),
            pc: program.entry.0,
            halted: false,
            stats: SimStats::default(),
        };
        sim.aregs[dsp_machine::AReg::SP_X.index()] = Word(program.x_stack_base);
        sim.aregs[dsp_machine::AReg::SP_Y.index()] = Word(program.y_stack_base);
        sim
    }

    pub(crate) fn run(&mut self) -> Result<SimStats, SimError> {
        self.program
            .validate(self.options.dual_ported)
            .map_err(SimError::Invalid)?;
        while !self.halted {
            if self.stats.cycles >= self.options.fuel {
                return Err(SimError::FuelExhausted);
            }
            self.step()?;
        }
        Ok(self.stats.clone())
    }

    fn step(&mut self) -> Result<(), SimError> {
        let pc = self.pc;
        let inst = self
            .program
            .insts
            .get(pc as usize)
            .ok_or(SimError::PcOutOfRange { pc })?;
        inst.check_bank_discipline(self.options.dual_ported)
            .expect("run() validated the bank discipline of every bundle");
        self.stats.cycles += 1;
        self.stats.ops += inst.op_count() as u64;
        if inst.mem_op_count() == 2 {
            self.stats.dual_mem_cycles += 1;
            let bank_of = |op: &Option<MemOp>| match op {
                Some(MemOp::Load { bank, .. } | MemOp::Store { bank, .. }) => Some(*bank),
                None => None,
            };
            if bank_of(&inst.mu0) == bank_of(&inst.mu1) {
                self.stats.bank_conflict_cycles += 1;
            }
        }
        for (idx, unit) in dsp_machine::FuncUnit::ALL.iter().enumerate() {
            let occupied = match unit {
                dsp_machine::FuncUnit::Pcu => inst.pcu.is_some(),
                dsp_machine::FuncUnit::Mu0 => inst.mu0.is_some(),
                dsp_machine::FuncUnit::Mu1 => inst.mu1.is_some(),
                dsp_machine::FuncUnit::Au0 => inst.au0.is_some(),
                dsp_machine::FuncUnit::Au1 => inst.au1.is_some(),
                dsp_machine::FuncUnit::Du0 => inst.du0.is_some(),
                dsp_machine::FuncUnit::Du1 => inst.du1.is_some(),
                dsp_machine::FuncUnit::Fpu0 => inst.fpu0.is_some(),
                dsp_machine::FuncUnit::Fpu1 => inst.fpu1.is_some(),
            };
            if occupied {
                self.stats.unit_ops[idx] += 1;
            }
        }

        // Phase 1: read everything and compute results against pre-state.
        let mut reg_writes: Vec<(Reg, Word)> = Vec::new();
        let mut mem_writes: Vec<(Bank, u32, Word)> = Vec::new();
        let mut next_pc = pc + 1;
        let mut push_ra: Option<u32> = None;
        let mut pop_ra = false;

        for op in [&inst.du0, &inst.du1].into_iter().flatten() {
            let (dst, w) = self.eval_int(op);
            reg_writes.push((Reg::Int(dst), w));
        }
        for op in [&inst.fpu0, &inst.fpu1].into_iter().flatten() {
            let (dst, w) = self.eval_fp(op);
            reg_writes.push((dst, w));
        }
        for op in [&inst.au0, &inst.au1].into_iter().flatten() {
            let (dst, w) = self.eval_addr(op);
            reg_writes.push((dst, w));
        }
        for op in [&inst.mu0, &inst.mu1].into_iter().flatten() {
            match op {
                MemOp::Load { dst, addr, bank } => {
                    let a = self.effective(addr, pc, *bank)?;
                    let w = self.mem(*bank)[a as usize];
                    self.stats.loads += 1;
                    reg_writes.push((*dst, w));
                }
                MemOp::Store { src, addr, bank } => {
                    let a = self.effective(addr, pc, *bank)?;
                    let w = self.read_reg(*src);
                    self.stats.stores += 1;
                    mem_writes.push((*bank, a, w));
                }
            }
        }
        if let Some(op) = &inst.pcu {
            match op {
                PcuOp::Jump(t) => next_pc = t.0,
                PcuOp::BranchNz { cond, target } => {
                    if self.iregs[cond.index()].is_truthy() {
                        next_pc = target.0;
                    }
                }
                PcuOp::BranchZ { cond, target } => {
                    if !self.iregs[cond.index()].is_truthy() {
                        next_pc = target.0;
                    }
                }
                PcuOp::Call(t) => {
                    push_ra = Some(pc + 1);
                    next_pc = t.0;
                }
                PcuOp::Ret => pop_ra = true,
                PcuOp::Halt => {
                    self.halted = true;
                }
            }
        }

        // Phase 2: commit.
        for (r, w) in reg_writes {
            self.write_reg(r, w);
        }
        for (bank, a, w) in mem_writes {
            self.mem_mut(bank)[a as usize] = w;
        }
        if let Some(ra) = push_ra {
            if self.call_stack.len() >= CALL_STACK_DEPTH {
                return Err(SimError::CallStackOverflow { pc });
            }
            self.call_stack.push(ra);
        }
        if pop_ra {
            next_pc = self
                .call_stack
                .pop()
                .ok_or(SimError::CallStackUnderflow { pc })?;
        }
        self.pc = next_pc;

        // Stack high-water tracking.
        let spx = self.aregs[dsp_machine::AReg::SP_X.index()].0;
        let spy = self.aregs[dsp_machine::AReg::SP_Y.index()].0;
        let hx = spx.saturating_sub(self.program.x_stack_base);
        let hy = spy.saturating_sub(self.program.y_stack_base);
        self.stats.max_stack_x = self.stats.max_stack_x.max(hx);
        self.stats.max_stack_y = self.stats.max_stack_y.max(hy);
        Ok(())
    }

    fn eval_int(&self, op: &IntOp) -> (dsp_machine::IReg, Word) {
        let iop = |o: IntOperand| match o {
            IntOperand::Reg(r) => self.iregs[r.index()].as_i32(),
            IntOperand::Imm(v) => v,
        };
        match *op {
            IntOp::Bin {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let v = eval_ibin(kind, self.iregs[lhs.index()].as_i32(), iop(rhs));
                (dst, Word::from_i32(v))
            }
            IntOp::Cmp {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let v = eval_icmp(kind, self.iregs[lhs.index()].as_i32(), iop(rhs));
                (dst, Word::from_i32(i32::from(v)))
            }
            IntOp::MovImm { dst, imm } => (dst, Word::from_i32(imm)),
            IntOp::Mov { dst, src } => (dst, self.iregs[src.index()]),
            IntOp::Neg { dst, src } => (
                dst,
                Word::from_i32(self.iregs[src.index()].as_i32().wrapping_neg()),
            ),
            IntOp::Not { dst, src } => (dst, Word::from_i32(!self.iregs[src.index()].as_i32())),
        }
    }

    fn eval_fp(&self, op: &FpOp) -> (Reg, Word) {
        match *op {
            FpOp::Bin {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.fregs[lhs.index()].as_f32();
                let b = self.fregs[rhs.index()].as_f32();
                (Reg::Float(dst), Word::from_f32(eval_fbin(kind, a, b)))
            }
            FpOp::Mac { dst, a, b } => {
                let acc = self.fregs[dst.index()].as_f32();
                let v = acc + self.fregs[a.index()].as_f32() * self.fregs[b.index()].as_f32();
                (Reg::Float(dst), Word::from_f32(v))
            }
            FpOp::Cmp {
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let a = self.fregs[lhs.index()].as_f32();
                let b = self.fregs[rhs.index()].as_f32();
                (
                    Reg::Int(dst),
                    Word::from_i32(i32::from(eval_fcmp(kind, a, b))),
                )
            }
            FpOp::MovImm { dst, imm } => (Reg::Float(dst), Word::from_f32(imm)),
            FpOp::Mov { dst, src } => (Reg::Float(dst), self.fregs[src.index()]),
            FpOp::Neg { dst, src } => (
                Reg::Float(dst),
                Word::from_f32(-self.fregs[src.index()].as_f32()),
            ),
            FpOp::CvtItoF { dst, src } => (
                Reg::Float(dst),
                Word::from_f32(self.iregs[src.index()].as_i32() as f32),
            ),
            FpOp::CvtFtoI { dst, src } => (
                Reg::Int(dst),
                Word::from_i32(self.fregs[src.index()].as_f32() as i32),
            ),
        }
    }

    fn eval_addr(&self, op: &AddrOp) -> (Reg, Word) {
        match *op {
            AddrOp::Lea { dst, addr } => (Reg::Addr(dst), Word(addr)),
            AddrOp::AddIndex { dst, base, index } => {
                let v = (self.aregs[base.index()].0 as i64
                    + i64::from(self.iregs[index.index()].as_i32())) as u32;
                (Reg::Addr(dst), Word(v))
            }
            AddrOp::AddImm { dst, base, imm } => {
                let v = (self.aregs[base.index()].0 as i64 + i64::from(imm)) as u32;
                (Reg::Addr(dst), Word(v))
            }
            AddrOp::Mov { dst, src } => (Reg::Addr(dst), self.aregs[src.index()]),
            AddrOp::ToInt { dst, src } => (Reg::Int(dst), self.aregs[src.index()]),
            AddrOp::FromInt { dst, src } => (Reg::Addr(dst), self.iregs[src.index()]),
        }
    }

    fn effective(&self, addr: &MemAddr, pc: u32, bank: Bank) -> Result<u32, SimError> {
        let a: i64 = match *addr {
            MemAddr::Absolute(a) => i64::from(a),
            MemAddr::Base { base, offset } => {
                i64::from(self.aregs[base.index()].0) + i64::from(offset)
            }
            MemAddr::AbsIndex { addr, index } => {
                i64::from(addr) + i64::from(self.iregs[index.index()].as_i32())
            }
            MemAddr::BaseIndex {
                base,
                index,
                offset,
            } => {
                i64::from(self.aregs[base.index()].0)
                    + i64::from(self.iregs[index.index()].as_i32())
                    + i64::from(offset)
            }
        };
        let size = self.mem(bank).len() as i64;
        if a < 0 || a >= size {
            return Err(SimError::AddrOutOfRange { pc, bank, addr: a });
        }
        Ok(a as u32)
    }

    fn mem(&self, bank: Bank) -> &[Word] {
        match bank {
            Bank::X => &self.mem_x,
            Bank::Y => &self.mem_y,
        }
    }

    fn mem_mut(&mut self, bank: Bank) -> &mut [Word] {
        match bank {
            Bank::X => &mut self.mem_x,
            Bank::Y => &mut self.mem_y,
        }
    }

    fn read_reg(&self, r: Reg) -> Word {
        match r {
            Reg::Addr(r) => self.aregs[r.index()],
            Reg::Int(r) => self.iregs[r.index()],
            Reg::Float(r) => self.fregs[r.index()],
        }
    }

    fn write_reg(&mut self, r: Reg, w: Word) {
        match r {
            Reg::Addr(r) => self.aregs[r.index()] = w,
            Reg::Int(r) => self.iregs[r.index()] = w,
            Reg::Float(r) => self.fregs[r.index()] = w,
        }
    }
}
