//! `130.li` — a lisp-interpreter workload.
//!
//! Reproduces the paper's 130.li anecdote (Section 5.1): "a few weakly
//! executed callers call an important callee. Only one caller is hot
//! enough to be detected and the callee gets inlined into it. This prevents
//! the callee from being a root function and thus 10% of the execution is
//! missed." Here `eval_expr` is the important callee: `cmd_math` (hot) and
//! the weak `cmd_gc`/`cmd_io` all call it.
//!
//! Inputs: A — mixed command script (SPEC train), B — six-queens
//! (self-recursive solver), C — reduced reference (longer mixed script).

use crate::util::{add_service, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

/// Input selector matching Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// SPEC train: mixed commands.
    A,
    /// 6 queens: recursion dominated.
    B,
    /// Reduced ref: longer mixed run.
    C,
}

/// Builds the workload.
pub fn build(input: Input, scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x11_30);
    let mut pb = ProgramBuilder::new();

    let heap_cells = 4096usize;
    // Heap cells: low 2 bits tag (0 = number, 1 = pair, 2 = symbol),
    // upper bits payload / next index.
    let heap: Vec<u64> = random_words(&mut r, heap_cells, 1 << 20)
        .iter()
        .map(|w| (w << 2) | (w % 5).min(2))
        .collect();
    let heap_base = pb.data(heap);
    let iobuf_base = pb.zeros(1024);

    // eval_expr(base=arg0, n=arg1) -> arg0: the important callee.
    let eval_expr = pb.declare("eval_expr");
    pb.define(eval_expr, |f| {
        let (base, n) = (Reg::arg(0), Reg::arg(1));
        let i = Reg::int(24);
        let cell = Reg::int(25);
        let tag = Reg::int(26);
        let acc = Reg::int(27);
        let a = Reg::int(28);
        f.li(acc, 0);
        f.for_range(i, 0, Src::Reg(n), |f| {
            f.and(a, i, (4096 - 1) as i64);
            f.shl(a, a, 3);
            f.add(a, a, base);
            f.load(cell, a, 0);
            f.and(tag, cell, 3);
            let c0 = f.cond(Cond::Eq, tag, Src::Imm(0));
            f.if_else(
                c0,
                |f| {
                    // number: arithmetic
                    f.shr(Reg::int(29), cell, 2);
                    f.add(acc, acc, Reg::int(29));
                },
                |f| {
                    let c1 = f.cond(Cond::Eq, tag, Src::Imm(1));
                    f.if_else(
                        c1,
                        |f| {
                            // pair: follow the cdr once
                            f.shr(Reg::int(29), cell, 2);
                            f.and(Reg::int(29), Reg::int(29), (4096 - 1) as i64);
                            f.shl(Reg::int(29), Reg::int(29), 3);
                            f.add(Reg::int(29), Reg::int(29), base);
                            f.load(Reg::int(30), Reg::int(29), 0);
                            f.shr(Reg::int(30), Reg::int(30), 2);
                            f.xor(acc, acc, Reg::int(30));
                        },
                        |f| {
                            // symbol: hash-ish mix
                            f.shr(Reg::int(29), cell, 2);
                            f.mul(Reg::int(29), Reg::int(29), 31);
                            f.add(acc, acc, Reg::int(29));
                        },
                    );
                },
            );
        });
        f.mov(Reg::ARG0, acc);
        f.ret();
    });

    // cmd_math: the hot caller — evaluates many expressions.
    let cmd_math = pb.declare("cmd_math");
    pb.define(cmd_math, |f| {
        let reps = Reg::int(40);
        let sum = Reg::int(41);
        f.li(sum, 0);
        f.for_range(reps, 0, 8, |f| {
            f.call_args(eval_expr, &[Src::Imm(heap_base as i64), Src::Imm(200)]);
            f.add(sum, sum, Reg::ARG0);
        });
        f.mov(Reg::ARG0, sum);
        f.ret();
    });

    // cmd_gc: weak caller — a short mark burst plus one big evaluation.
    // The burst stays below the BBB candidate threshold, so cmd_gc itself
    // is never detected and its call to eval_expr keeps running original
    // code after packing — the paper's 130.li coverage-loss anecdote.
    let cmd_gc = pb.declare("cmd_gc");
    pb.define(cmd_gc, |f| {
        let i = Reg::int(40);
        let a = Reg::int(41);
        let w = Reg::int(42);
        f.for_range(i, 0, 12, |f| {
            f.shl(a, i, 3);
            f.add(a, a, Src::Imm(heap_base as i64));
            f.load(w, a, 0);
            f.or(w, w, 4); // mark bit
            f.store(w, a, 0);
        });
        f.call_args(eval_expr, &[Src::Imm(heap_base as i64), Src::Imm(3000)]);
        f.ret();
    });

    // cmd_io: weak caller — a short buffer shuffle plus one evaluation.
    let cmd_io = pb.declare("cmd_io");
    pb.define(cmd_io, |f| {
        let i = Reg::int(40);
        let a = Reg::int(41);
        let w = Reg::int(42);
        f.for_range(i, 0, 12, |f| {
            f.and(a, i, 1023);
            f.shl(a, a, 3);
            f.add(a, a, Src::Imm(iobuf_base as i64));
            f.load(w, a, 0);
            f.add(w, w, i);
            f.store(w, a, 0);
        });
        f.call_args(eval_expr, &[Src::Imm(heap_base as i64), Src::Imm(3000)]);
        f.ret();
    });

    // solve(row=arg0, cols=arg1, d1=arg2, d2=arg3, n in r12) — N-queens,
    // self-recursive.
    let solve = pb.declare("solve");
    pb.define(solve, |f| {
        let (row, cols, d1, d2) = (Reg::arg(0), Reg::arg(1), Reg::arg(2), Reg::arg(3));
        let nq = Reg::int(12);
        let done = f.cond(Cond::Geu, row, Src::Reg(nq));
        f.if_(done, |f| {
            f.li(Reg::ARG0, 1);
            f.ret();
        });
        let col = Reg::int(24);
        let bit = Reg::int(25);
        let conflict = Reg::int(26);
        let count = Reg::int(27);
        let t = Reg::int(28);
        f.li(count, 0);
        f.frame_alloc(6);
        f.for_range(col, 0, Src::Reg(nq), |f| {
            f.li(bit, 1);
            f.shl(bit, bit, Src::Reg(col));
            // conflict = cols & bit | d1 & (bit << row) | d2 & (bit >> ...)
            f.and(conflict, cols, bit);
            f.add(t, col, row);
            f.li(Reg::int(29), 1);
            f.shl(Reg::int(29), Reg::int(29), Src::Reg(t));
            f.and(Reg::int(29), d1, Reg::int(29));
            f.or(conflict, conflict, Reg::int(29));
            f.sub(t, col, row);
            f.add(t, t, 16);
            f.li(Reg::int(29), 1);
            f.shl(Reg::int(29), Reg::int(29), Src::Reg(t));
            f.and(Reg::int(29), d2, Reg::int(29));
            f.or(conflict, conflict, Reg::int(29));
            let free = f.cond(Cond::Eq, conflict, Src::Imm(0));
            f.if_(free, |f| {
                // spill caller state
                f.spill(row, 0);
                f.spill(cols, 1);
                f.spill(d1, 2);
                f.spill(d2, 3);
                f.spill(col, 4);
                f.spill(count, 5);
                // recurse(row+1, cols|bit, ...)
                f.or(Reg::arg(1), cols, bit);
                f.add(t, col, row);
                f.li(Reg::int(29), 1);
                f.shl(Reg::int(29), Reg::int(29), Src::Reg(t));
                f.or(Reg::arg(2), d1, Reg::int(29));
                f.sub(t, col, row);
                f.add(t, t, 16);
                f.li(Reg::int(29), 1);
                f.shl(Reg::int(29), Reg::int(29), Src::Reg(t));
                f.or(Reg::arg(3), d2, Reg::int(29));
                f.addi(Reg::arg(0), row, 1);
                f.call(solve);
                f.mov(t, Reg::ARG0);
                // reload
                f.reload(row, 0);
                f.reload(cols, 1);
                f.reload(d1, 2);
                f.reload(d2, 3);
                f.reload(col, 4);
                f.reload(count, 5);
                f.add(count, count, t);
            });
        });
        f.frame_free(6);
        f.mov(Reg::ARG0, count);
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "li", 4, 60);

    let main = pb.declare("main");
    let script_len: i64 = match input {
        Input::A => 60 * scale,
        Input::B => 0,
        Input::C => 170 * scale,
    };
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 11);
        // Reader / initialization.
        svc.burst(f, salt);
        svc.burst(f, salt);
        match input {
            Input::A | Input::C => {
                let k = Reg::int(56);
                let sel = Reg::int(57);
                f.for_range(k, 0, script_len, |f| {
                    // 95% math, 2.5% gc, 2.5% io — deterministic schedule.
                    f.rem(sel, k, 40);
                    let is_gc = f.cond(Cond::Eq, sel, Src::Imm(7));
                    f.if_else(
                        is_gc,
                        |f| f.call(cmd_gc),
                        |f| {
                            let is_io = f.cond(Cond::Eq, sel, Src::Imm(23));
                            f.if_else(is_io, |f| f.call(cmd_io), |f| f.call(cmd_math));
                        },
                    );
                });
            }
            Input::B => {
                let reps = Reg::int(56);
                let total = Reg::int(57);
                f.li(total, 0);
                let n_reps = 12 * scale;
                f.for_range(reps, 0, n_reps, |f| {
                    f.li(Reg::int(12), 6);
                    f.call_args(solve, &[Src::Imm(0), Src::Imm(0), Src::Imm(0), Src::Imm(0)]);
                    f.add(total, total, Reg::ARG0);
                });
            }
        }
        // Printer / teardown.
        svc.burst(f, salt);
        svc.burst(f, salt);
        f.halt();
    });
    pb.set_entry(main);
    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_exec::{Executor, RunConfig};
    use vp_isa::Reg;
    use vp_program::Layout;

    #[test]
    fn input_a_runs() {
        let p = build(Input::A, 1);
        let layout = Layout::natural(&p);
        let stats = Executor::new(&p, &layout)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert_eq!(stats.stop, vp_exec::StopReason::Halted);
        assert!(stats.retired > 200_000);
    }

    #[test]
    fn queens_solver_counts_solutions() {
        // 6-queens has exactly 4 solutions.
        let p = build(Input::B, 1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        // total accumulated in r57 = 4 per repetition × 12 reps
        assert_eq!(ex.reg(Reg::int(57)), 4 * 12);
    }

    #[test]
    fn input_c_is_longer_than_a() {
        let (pa, pc) = (build(Input::A, 1), build(Input::C, 1));
        let (la, lc) = (Layout::natural(&pa), Layout::natural(&pc));
        let sa = Executor::new(&pa, &la)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        let sc = Executor::new(&pc, &lc)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert!(sc.retired > sa.retired * 2);
    }
}
