//! A bytecode disassembler: `Display` for [`Program`] produces a stable,
//! readable listing — one instruction per line with resolved access
//! expressions and fused-op side tables — used by the golden-listing
//! tests to pin the optimizer's output on small fixtures, so a peephole
//! regression shows up as a plain-text diff.

use std::fmt;

use crate::compile::{Access, Extent, LaneBody, MacSpec, Op, Program};

/// Renders one access site as `buf[base + r2*4 + v1*8]`.
struct Acc<'a>(&'a Program, u32);

impl fmt::Display for Acc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prog = self.0;
        let acc: &Access = &prog.accesses[self.1 as usize];
        write!(f, "{}[", prog.buffers[acc.buf as usize].name())?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, " + ")
            }
        };
        if acc.base != 0 {
            sep(f)?;
            write!(f, "{}", acc.base)?;
        }
        for &(r, stride) in &prog.reg_pool[acc.regs.range()] {
            sep(f)?;
            write!(f, "r{r}*{stride}")?;
        }
        for &(s, stride) in &prog.slot_pool[acc.slots.range()] {
            sep(f)?;
            write!(f, "v{s}*{stride}")?;
        }
        if first {
            write!(f, "0")?;
        }
        write!(f, "]")
    }
}

fn mac_line(f: &mut fmt::Formatter<'_>, prog: &Program, id: u32, sp: &MacSpec) -> fmt::Result {
    let cast = |c: Option<(tir::DataType, bool)>| match c {
        Some((dt, _)) => format!(" as {dt}"),
        None => String::new(),
    };
    writeln!(
        f,
        "  mac{}: {} = {} {:?} ({}{} {:?} {}{})",
        id,
        Acc(prog, sp.acc),
        Acc(prog, sp.acc),
        sp.k2,
        Acc(prog, sp.a),
        cast(sp.a_cast),
        sp.k1,
        Acc(prog, sp.b),
        cast(sp.b_cast),
    )
}

impl fmt::Display for Program {
    /// One instruction per line (`pc: mnemonic operands`), followed by
    /// the fused-op side tables when present.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program {} ({} ops, {} regs, {} slots, {} loops{})",
            self.func_name,
            self.ops.len(),
            self.num_regs,
            self.num_slots,
            self.num_loops,
            if self.optimized { ", optimized" } else { "" },
        )?;
        for (pc, op) in self.ops.iter().enumerate() {
            write!(f, "{pc:4}: ")?;
            match op {
                Op::Const { dst, val } => writeln!(f, "const r{dst} = {val}")?,
                Op::LoadVar { dst, slot } => writeln!(f, "load_var r{dst} = v{slot}")?,
                Op::SetVar { slot, src } => writeln!(f, "set_var v{slot} = r{src}")?,
                Op::ThrowUnknownIntrinsic { name } => {
                    writeln!(f, "throw_unknown_intrinsic {}", self.names[*name as usize])?;
                }
                Op::Cast {
                    dst, src, dtype, ..
                } => {
                    writeln!(f, "cast r{dst} = r{src} as {dtype}")?;
                }
                Op::Bin { kind, dst, a, b } => {
                    writeln!(f, "bin r{dst} = r{a} {kind:?} r{b}")?;
                }
                Op::Cmp { op, dst, a, b } => writeln!(f, "cmp r{dst} = r{a} {op:?} r{b}")?,
                Op::Not { dst, src } => writeln!(f, "not r{dst} = !r{src}")?,
                Op::Call {
                    dst,
                    f: func,
                    first,
                    n,
                } => {
                    writeln!(f, "call r{dst} = {func:?}(r{first}..r{})", first + n)?;
                }
                Op::Load { dst, access } => {
                    writeln!(f, "load r{dst} = {}", Acc(self, *access))?;
                }
                Op::Store { access, val } => {
                    writeln!(f, "store {} = r{val}", Acc(self, *access))?;
                }
                Op::Tick => writeln!(f, "tick")?,
                Op::Jump { target } => writeln!(f, "jump {target}")?,
                Op::JumpIfZero { reg, target } => writeln!(f, "jump_if_zero r{reg} -> {target}")?,
                Op::ForSetup {
                    loop_id,
                    extent,
                    var,
                    end,
                } => {
                    let extent = match extent {
                        Extent::Lit(n) => n.to_string(),
                        Extent::Reg(r) => format!("r{r}"),
                    };
                    writeln!(f, "for_setup L{loop_id} v{var} extent={extent} end={end}")?;
                }
                Op::ForNext { loop_id, var, body } => {
                    writeln!(f, "for_next L{loop_id} v{var} body={body}")?;
                }
                Op::ResetReduceFlag => writeln!(f, "reset_reduce_flag")?,
                Op::UpdateReduceFlag { reg } => writeln!(f, "update_reduce_flag r{reg}")?,
                Op::JumpIfReduceFlagFalse { target } => {
                    writeln!(f, "jump_if_reduce_flag_false -> {target}")?;
                }
                Op::AllocBuf { buf } => {
                    writeln!(f, "alloc_buf {}", self.buffers[*buf as usize].name())?;
                }
                Op::BinStore { kind, a, b, access } => {
                    writeln!(f, "bin_store {} = r{a} {kind:?} r{b}", Acc(self, *access))?;
                }
                Op::StoreConst { access, val } => {
                    writeln!(f, "store_const {} = {val}", Acc(self, *access))?;
                }
                Op::FusedMac { spec } => writeln!(f, "fused_mac mac{spec}")?,
                Op::MacLanes { spec } => {
                    let sp = &self.lane_specs[*spec as usize];
                    write!(f, "mac_lanes L{} v{}", sp.loop_id, sp.var)?;
                    match sp.body {
                        LaneBody::Mac(m) => write!(f, " mac{m}")?,
                        LaneBody::Fill(a, v) => write!(f, " fill {} = {v}", Acc(self, a))?,
                        LaneBody::Copy(src, dst) => {
                            write!(f, " copy {} = {}", Acc(self, dst), Acc(self, src))?;
                        }
                    }
                    match &sp.guard {
                        Some(g) => {
                            let flags: Vec<String> =
                                g.flags.iter().map(|s| format!("v{s}")).collect();
                            writeln!(
                                f,
                                " guard[{}] init {} = {}",
                                flags.join(","),
                                Acc(self, g.access),
                                g.val
                            )?;
                        }
                        None => writeln!(f)?,
                    }
                }
            }
        }
        for (i, sp) in self.mac_specs.iter().enumerate() {
            mac_line(f, self, i as u32, sp)?;
        }
        Ok(())
    }
}
