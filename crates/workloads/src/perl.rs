//! `134.perl` — an interpreter workload.
//!
//! The paper's Section 3.3.4 motivates package linking with "a perl
//! interpreter where the command execution loop may serve as the root
//! function for different packages specialized for different types of
//! commands, such as string or numeric processing". The script here is
//! *phased*: a long numeric stretch, then a long string stretch, then a
//! matching stretch — three hot spots all rooted at `run_script`.
//!
//! Inputs: A — all three phases, long; B — string-dominated, short;
//! C — numeric-dominated, very short (mirroring Table 1's 1512M/28M/8M).

use crate::util::{add_service, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

/// Input selector matching Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Train 1: numeric, then string, then match phases.
    A,
    /// Train 2: string-heavy.
    B,
    /// Train 3: numeric-heavy, shortest.
    C,
}

/// Builds the workload.
pub fn build(input: Input, scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x13_34);
    let mut pb = ProgramBuilder::new();

    let buf_words = 2048usize;
    let text = pb.data(random_words(&mut r, buf_words, 1 << 8));
    let scratch = pb.zeros(buf_words);
    let needle = pb.data(random_words(&mut r, 8, 1 << 8));

    // do_numeric(reps=arg0)
    let do_numeric = pb.declare("do_numeric");
    pb.define(do_numeric, |f| {
        let reps = Reg::arg(0);
        let i = Reg::int(24);
        let x = Reg::int(25);
        let y = Reg::int(26);
        f.li(x, 3);
        f.for_range(i, 0, Src::Reg(reps), |f| {
            f.mul(x, x, 1103515245);
            f.add(x, x, 12345);
            f.shr(y, x, 16);
            f.and(y, y, 1023);
            let odd = f.cond(Cond::Ne, y, Src::Imm(0));
            f.if_(odd, |f| {
                f.rem(Reg::int(27), x, Src::Reg(y));
                f.add(x, x, Reg::int(27));
            });
        });
        f.mov(Reg::ARG0, x);
        f.ret();
    });

    // do_string(len=arg0): copy + transform a buffer region.
    let do_string = pb.declare("do_string");
    pb.define(do_string, |f| {
        let len = Reg::arg(0);
        let i = Reg::int(24);
        let a = Reg::int(25);
        let w = Reg::int(26);
        f.for_range(i, 0, Src::Reg(len), |f| {
            f.and(a, i, (2048 - 1) as i64);
            f.shl(a, a, 3);
            f.add(a, a, Src::Imm(text as i64));
            f.load(w, a, 0);
            // "upcase": branch on character class
            let lower = f.cond(Cond::Geu, w, Src::Imm(97));
            f.if_(lower, |f| f.addi(w, w, -32));
            f.and(a, i, (2048 - 1) as i64);
            f.shl(a, a, 3);
            f.add(a, a, Src::Imm(scratch as i64));
            f.store(w, a, 0);
        });
        f.ret();
    });

    // do_match(len=arg0): scan for an 8-word needle.
    let do_match = pb.declare("do_match");
    pb.define(do_match, |f| {
        let len = Reg::arg(0);
        let i = Reg::int(24);
        let j = Reg::int(25);
        let a = Reg::int(26);
        let w = Reg::int(27);
        let nw = Reg::int(28);
        let hits = Reg::int(29);
        f.li(hits, 0);
        f.for_range(i, 0, Src::Reg(len), |f| {
            // compare up to 8 positions; mismatch breaks via flag
            let matched = Reg::int(30);
            f.li(matched, 1);
            f.for_range(j, 0, 8, |f| {
                f.add(a, i, j);
                f.and(a, a, (2048 - 1) as i64);
                f.shl(a, a, 3);
                f.add(a, a, Src::Imm(text as i64));
                f.load(w, a, 0);
                f.shl(a, j, 3);
                f.add(a, a, Src::Imm(needle as i64));
                f.load(nw, a, 0);
                let ne = f.cond(Cond::Ne, w, Src::Reg(nw));
                f.if_(ne, |f| f.li(matched, 0));
            });
            let hit = f.cond(Cond::Ne, matched, Src::Imm(0));
            f.if_(hit, |f| f.addi(hits, hits, 1));
        });
        f.mov(Reg::ARG0, hits);
        f.ret();
    });

    // run_script(script kind schedule is compiled in): the command loop —
    // the shared root function.
    let run_script = pb.declare("run_script");
    // arg0 = command count, arg1 = phase selector (0 num, 1 str, 2 match)
    pb.define(run_script, |f| {
        let (count, kind) = (Reg::arg(0), Reg::arg(1));
        let k = Reg::int(40);
        let saved_kind = Reg::int(41);
        let saved_count = Reg::int(42);
        f.mov(saved_kind, kind);
        // `count` arrives in r4 = ARG0, which every call below clobbers:
        // copy it out first.
        f.mov(saved_count, count);
        f.for_range(k, 0, Src::Reg(saved_count), |f| {
            let is_num = f.cond(Cond::Eq, saved_kind, Src::Imm(0));
            f.if_else(
                is_num,
                |f| f.call_args(do_numeric, &[Src::Imm(80)]),
                |f| {
                    let is_str = f.cond(Cond::Eq, saved_kind, Src::Imm(1));
                    f.if_else(
                        is_str,
                        |f| f.call_args(do_string, &[Src::Imm(80)]),
                        |f| f.call_args(do_match, &[Src::Imm(20)]),
                    );
                },
            );
        });
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "perl", 5, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 17);
        // Script compilation.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        let phases: Vec<(i64, i64)> = match input {
            Input::A => vec![(0, 900 * scale), (1, 900 * scale), (2, 550 * scale)],
            Input::B => vec![(1, 700 * scale), (2, 250 * scale)],
            Input::C => vec![(0, 650 * scale)],
        };
        for (kind, count) in phases {
            f.call_args(run_script, &[Src::Imm(count), Src::Imm(kind)]);
            // Between script sections: I/O flush, garbage collection.
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        f.halt();
    });
    pb.set_entry(main);
    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_exec::{Executor, RunConfig};
    use vp_program::Layout;

    #[test]
    fn all_inputs_run_to_completion() {
        for input in [Input::A, Input::B, Input::C] {
            let p = build(input, 1);
            p.validate().unwrap();
            let layout = Layout::natural(&p);
            let stats = Executor::new(&p, &layout)
                .run(|_| {}, &RunConfig::default())
                .unwrap();
            assert_eq!(stats.stop, vp_exec::StopReason::Halted, "{input:?}");
        }
    }

    #[test]
    fn input_sizes_are_ordered_like_table1() {
        let sizes: Vec<u64> = [Input::A, Input::B, Input::C]
            .iter()
            .map(|&i| {
                let p = build(i, 1);
                let layout = Layout::natural(&p);
                Executor::new(&p, &layout)
                    .run(|_| {}, &RunConfig::default())
                    .unwrap()
                    .retired
            })
            .collect();
        assert!(sizes[0] > sizes[1], "A > B");
        assert!(sizes[1] > sizes[2], "B > C");
    }
}
