//! Loop-invariant code motion on packages.
//!
//! The paper's stated advantage of regions over traces is loop-level
//! optimization scope (Sections 1–2); it leaves the loop transformations
//! themselves as future work ("various classic, ILP, and loop
//! optimizations could also be applied", Section 5.4). This pass is that
//! extension: pure instructions whose operands do not change inside a
//! natural loop of a package are hoisted into a fresh preheader.
//!
//! Hoisting conditions (classic, with package-specific additions):
//!
//! * the instruction is pure (speculation-safe in this ISA — no traps);
//! * every operand is loop-invariant (no definition inside the loop);
//! * its destination has exactly one definition in the loop and is not
//!   live into the header (hoisting must not clobber a value the loop
//!   first *reads*);
//! * **package side-entrance rule**: the function has no incoming links
//!   and the loop header is not a package entry block — a side entrance
//!   would jump past the preheader (the same reason the paper's Section
//!   5.4 notes that eliminating side entrances increases optimization
//!   scope).

use std::collections::BTreeSet;
use vp_isa::{BlockId, CodeRef, Inst};
use vp_program::loops::natural_loops;
use vp_program::{Block, Cfg, Function, Liveness, Terminator};

/// Runs LICM on one package function. `entries` are the package's entry
/// blocks (launch-point targets), which must not acquire a preheader.
/// Returns the number of instructions hoisted.
pub fn hoist_loop_invariants(f: &mut Function, entries: &[BlockId]) -> usize {
    let mut hoisted_total = 0;
    // Loops are recomputed after each preheader insertion (block ids shift
    // relationships); iterate until no loop yields a hoist.
    loop {
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        let loops = natural_loops(&cfg);
        let mut did = 0;

        for l in &loops {
            if entries.contains(&l.header) {
                continue;
            }
            // Definitions inside the loop, per register.
            let mut def_count = vec![0u32; vp_isa::reg::NUM_REGS];
            for &b in &l.body {
                for inst in &f.block(b).insts {
                    for d in inst.defs() {
                        def_count[d.index()] += 1;
                    }
                }
                for d in f.block(b).term.defs() {
                    def_count[d.index()] += 1;
                }
            }

            // Collect hoistable instructions in deterministic order,
            // honouring dependences among themselves: repeat until stable
            // within this loop.
            let mut hoisted: Vec<Inst> = Vec::new();
            let mut moved = true;
            while moved {
                moved = false;
                for &b in &l.body {
                    let block = f.block(b);
                    let candidate = block.insts.iter().position(|inst| {
                        if inst.is_mem() || matches!(inst, Inst::Consume { .. }) {
                            return false;
                        }
                        let defs = inst.defs();
                        let Some(&d) = defs.first() else { return false };
                        inst.uses().iter().all(|u| def_count[u.index()] == 0)
                            && def_count[d.index()] == 1
                            && !live.live_in(l.header).contains(d)
                    });
                    if let Some(i) = candidate {
                        let inst = f.block_mut(b).insts.remove(i);
                        for dreg in inst.defs() {
                            def_count[dreg.index()] = 0;
                        }
                        hoisted.push(inst);
                        moved = true;
                    }
                }
            }
            if hoisted.is_empty() {
                continue;
            }

            // Build the preheader and retarget the non-latch predecessors.
            did += hoisted.len();
            let header = l.header;
            let latches: BTreeSet<BlockId> = l.latches.iter().copied().collect();
            let pre = f.push_block(Block {
                insts: hoisted,
                term: Terminator::Goto(CodeRef {
                    func: f.id,
                    block: header,
                }),
            });
            let self_id = f.id;
            for (bid, _) in f.blocks_iter().map(|(b, _)| (b, ())).collect::<Vec<_>>() {
                if bid == pre || latches.contains(&bid) {
                    continue;
                }
                retarget(f.block_mut(bid), self_id, header, pre);
            }
            // One structural change per outer iteration keeps the analyses
            // coherent.
            break;
        }

        hoisted_total += did;
        if did == 0 {
            return hoisted_total;
        }
    }
}

/// Rewrites intra-function transfers `-> header` into `-> pre`.
fn retarget(block: &mut Block, func: vp_isa::FuncId, header: BlockId, pre: BlockId) {
    let is_header = |r: &CodeRef| r.func == func && r.block == header;
    let new_ref = CodeRef { func, block: pre };
    match &mut block.term {
        Terminator::Goto(t) if is_header(t) => *t = new_ref,
        Terminator::Br {
            taken, not_taken, ..
        } => {
            if is_header(taken) {
                *taken = new_ref;
            }
            if is_header(not_taken) {
                *not_taken = new_ref;
            }
        }
        Terminator::Call { ret_to, .. } | Terminator::CallThrough { ret_to, .. }
            if *ret_to == header =>
        {
            *ret_to = pre;
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::{AluOp, FuncId, Reg, Src};
    use vp_program::{FuncKind, ProgramBuilder};

    /// main: acc = 0; for i in 0..50 { inv = 7*9; acc += inv + i } halt.
    fn invariant_loop() -> vp_program::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let (i, acc, inv, seven) = (Reg::int(20), Reg::int(21), Reg::int(22), Reg::int(23));
            f.li(acc, 0);
            f.li(seven, 7);
            f.for_range(i, 0, 50, |f| {
                f.alu(AluOp::Mul, inv, seven, Src::Imm(9)); // invariant
                f.add(acc, acc, inv);
                f.add(acc, acc, i);
            });
            f.halt();
        });
        pb.build()
    }

    fn run(p: &vp_program::Program) -> u64 {
        use vp_exec::{Executor, RunConfig};
        let layout = vp_program::Layout::natural(p);
        let mut ex = Executor::new(p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        ex.reg(Reg::int(21))
    }

    #[test]
    fn invariant_multiply_is_hoisted_and_semantics_hold() {
        let mut p = invariant_loop();
        let before = run(&p);
        let f = p.func_mut(FuncId(0));
        f.kind = FuncKind::Package { phase: 0 };
        let hoisted = hoist_loop_invariants(f, &[]);
        assert!(hoisted >= 1, "the multiply must hoist");
        p.validate().unwrap();
        assert_eq!(run(&p), before, "LICM must preserve the result");
        // The multiply no longer sits in the loop body.
        let cfg = Cfg::new(p.func(FuncId(0)));
        let loops = natural_loops(&cfg);
        for l in &loops {
            for &b in &l.body {
                for inst in &p.func(FuncId(0)).block(b).insts {
                    assert!(
                        !matches!(inst, Inst::Alu { op: AluOp::Mul, .. }),
                        "multiply still inside the loop"
                    );
                }
            }
        }
    }

    #[test]
    fn loop_carried_values_stay_put() {
        let mut p = invariant_loop();
        let f = p.func_mut(FuncId(0));
        f.kind = FuncKind::Package { phase: 0 };
        hoist_loop_invariants(f, &[]);
        // acc += ... is loop-carried and must remain in the body.
        let cfg = Cfg::new(p.func(FuncId(0)));
        let loops = natural_loops(&cfg);
        let in_loop_adds: usize = loops
            .iter()
            .flat_map(|l| l.body.iter())
            .map(|&b| {
                p.func(FuncId(0))
                    .block(b)
                    .insts
                    .iter()
                    .filter(|i| matches!(i, Inst::Alu { op: AluOp::Add, .. }))
                    .count()
            })
            .sum();
        assert!(in_loop_adds >= 2, "loop-carried adds must not hoist");
    }

    #[test]
    fn entry_headers_are_skipped() {
        let mut p = invariant_loop();
        let f = p.func_mut(FuncId(0));
        f.kind = FuncKind::Package { phase: 0 };
        // Claim every block is an entry: nothing may be hoisted.
        let all: Vec<BlockId> = f.block_ids().collect();
        assert_eq!(hoist_loop_invariants(f, &all), 0);
    }

    #[test]
    fn values_live_into_header_are_not_clobbered() {
        // x is read before being rewritten in the loop: the rewrite must
        // not hoist (it would clobber the pre-loop value).
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let (i, x, acc) = (Reg::int(20), Reg::int(21), Reg::int(22));
            f.li(x, 100);
            f.li(acc, 0);
            f.for_range(i, 0, 10, |f| {
                f.add(acc, acc, x); // reads x (old value on iter 0)
                f.alu(AluOp::Mul, x, Reg::int(23), Src::Imm(3)); // writes x
            });
            f.halt();
        });
        let mut p = pb.build();
        let before = run(&p);
        let f = p.func_mut(FuncId(0));
        f.kind = FuncKind::Package { phase: 0 };
        hoist_loop_invariants(f, &[]);
        assert_eq!(run(&p), before, "x's first read must still see 100");
    }
}
