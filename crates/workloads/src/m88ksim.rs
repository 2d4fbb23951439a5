//! `124.m88ksim` — a CPU simulator workload.
//!
//! The paper singles this benchmark out: it "has two phases for loading a
//! binary, each with the same launch point"; without linking one of the two
//! loader packages is unreachable (Section 5.1). We reproduce exactly that
//! structure: `load_binary` is called twice on binaries with *opposite*
//! relocation-flag biases — the same static branch flips bias between the
//! phases, so the software filter records two distinct hot spots rooted at
//! the same function — followed by a long fetch-decode-execute simulation
//! phase.

use crate::util::{add_service, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

/// Builds the workload; `scale` multiplies all loop counts (1 = full).
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x88_88);
    let mut pb = ProgramBuilder::new();

    let bin_words = 30_000 * scale as usize;
    // Binary 1: ~98.5% of words carry the relocation flag (low bit set) —
    // rare enough on the other side that the direct-copy path stays Cold
    // in this phase's region.
    let bin1: Vec<u64> = random_words(&mut r, bin_words, 1 << 16)
        .iter()
        .map(|w| (w << 1) | ((w % 64 != 0) as u64))
        .collect();
    // Binary 2: only ~1.5% relocatable — the same static branch, flipped.
    let bin2: Vec<u64> = random_words(&mut r, bin_words, 1 << 16)
        .iter()
        .map(|w| (w << 1) | ((w % 64 == 0) as u64))
        .collect();
    // Simulated program: 4096 words of opcode-encoded instructions.
    let sim_prog: Vec<u64> = random_words(&mut r, 4096, 1 << 24);

    let bin1_base = pb.data(bin1);
    let bin2_base = pb.data(bin2);
    let simp_base = pb.data(sim_prog);
    let image_base = pb.zeros(bin_words);
    let data_base = pb.zeros(4096);

    // load_binary(dst=arg0, src=arg1, n=arg2, reloc=arg3)
    let load_binary = pb.declare("load_binary");
    pb.define(load_binary, |f| {
        let (dst, src, n, reloc) = (Reg::arg(0), Reg::arg(1), Reg::arg(2), Reg::arg(3));
        let i = Reg::int(24);
        let w = Reg::int(25);
        let flag = Reg::int(26);
        let a = Reg::int(27);
        f.for_range(i, 0, Src::Reg(n), |f| {
            f.shl(a, i, 3);
            f.add(a, a, src);
            f.load(w, a, 0);
            f.and(flag, w, 1);
            // The phase-defining branch: relocate or copy directly.
            let c = f.cond(Cond::Ne, flag, Src::Imm(0));
            f.if_else(
                c,
                |f| {
                    // Relocate: adjust by the relocation base.
                    f.shr(w, w, 1);
                    f.add(w, w, reloc);
                },
                |f| {
                    f.shr(w, w, 1);
                },
            );
            f.shl(a, i, 3);
            f.add(a, a, dst);
            f.store(w, a, 0);
        });
        f.ret();
    });

    // simulate(prog=arg0, data=arg1, steps=arg2): fetch-decode-execute.
    let simulate = pb.declare("simulate");
    pb.define(simulate, |f| {
        let (prog, data, steps) = (Reg::arg(0), Reg::arg(1), Reg::arg(2));
        let pc = Reg::int(24);
        let acc = Reg::int(25);
        let w = Reg::int(26);
        let op = Reg::int(27);
        let addr = Reg::int(28);
        let t = Reg::int(29);
        let k = Reg::int(30);
        f.li(pc, 0);
        f.li(acc, 0);
        f.for_range(k, 0, Src::Reg(steps), |f| {
            // fetch
            f.and(t, pc, 4095);
            f.shl(addr, t, 3);
            f.add(addr, addr, prog);
            f.load(w, addr, 0);
            f.and(op, w, 7);
            f.addi(pc, pc, 1);
            // decode ladder
            f.switch(
                op,
                vec![
                    (
                        0,
                        Box::new(|f: &mut vp_program::FunctionBuilder| {
                            f.shr(Reg::int(31), Reg::int(26), 3);
                            f.add(Reg::int(25), Reg::int(25), Reg::int(31));
                        }),
                    ),
                    (
                        1,
                        Box::new(|f: &mut vp_program::FunctionBuilder| {
                            f.shr(Reg::int(31), Reg::int(26), 3);
                            f.sub(Reg::int(25), Reg::int(25), Reg::int(31));
                        }),
                    ),
                    (
                        2,
                        Box::new(move |f: &mut vp_program::FunctionBuilder| {
                            // load from data
                            f.shr(Reg::int(31), Reg::int(26), 3);
                            f.and(Reg::int(31), Reg::int(31), 4095);
                            f.shl(Reg::int(31), Reg::int(31), 3);
                            f.add(Reg::int(31), Reg::int(31), data);
                            f.load(Reg::int(32), Reg::int(31), 0);
                            f.add(Reg::int(25), Reg::int(25), Reg::int(32));
                        }),
                    ),
                    (
                        3,
                        Box::new(move |f: &mut vp_program::FunctionBuilder| {
                            // store to data
                            f.shr(Reg::int(31), Reg::int(26), 3);
                            f.and(Reg::int(31), Reg::int(31), 4095);
                            f.shl(Reg::int(31), Reg::int(31), 3);
                            f.add(Reg::int(31), Reg::int(31), data);
                            f.store(Reg::int(25), Reg::int(31), 0);
                        }),
                    ),
                    (
                        4,
                        Box::new(|f: &mut vp_program::FunctionBuilder| {
                            // conditional jump when acc negative
                            let c = f.cond(Cond::Lt, Reg::int(25), Src::Imm(0));
                            f.if_(c, |f| {
                                f.shr(Reg::int(31), Reg::int(26), 3);
                                f.and(Reg::int(31), Reg::int(31), 4095);
                                f.mov(Reg::int(24), Reg::int(31));
                                f.li(Reg::int(25), 1);
                            });
                        }),
                    ),
                ],
                |f| {
                    // nop-like: slight mix
                    f.xor(Reg::int(25), Reg::int(25), 13);
                },
            );
        });
        f.mov(Reg::ARG0, acc);
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "m88k", 6, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 5);
        // Startup: command parsing, symbol tables — never hot.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        // Phase 1: load binary 1 (relocation-heavy).
        f.call_args(
            load_binary,
            &[
                Src::Imm(image_base as i64),
                Src::Imm(bin1_base as i64),
                Src::Imm(bin_words as i64),
                Src::Imm(0x4000),
            ],
        );
        // Inter-load housekeeping.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        // Phase 2: load binary 2 (mostly direct copy) — same launch point,
        // flipped branch bias.
        f.call_args(
            load_binary,
            &[
                Src::Imm(image_base as i64),
                Src::Imm(bin2_base as i64),
                Src::Imm(bin_words as i64),
                Src::Imm(0x8000),
            ],
        );
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        // Phase 3: simulate.
        f.call_args(
            simulate,
            &[
                Src::Imm(simp_base as i64),
                Src::Imm(data_base as i64),
                Src::Imm(60_000 * scale),
            ],
        );
        // Teardown / statistics dump.
        for _ in 0..3 {
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
    fn builds_and_runs_to_completion() {
        let p = build(1);
        p.validate().unwrap();
        let layout = Layout::natural(&p);
        let stats = Executor::new(&p, &layout)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert_eq!(stats.stop, vp_exec::StopReason::Halted);
        assert!(stats.retired > 500_000, "retired {}", stats.retired);
        assert!(stats.cond_branches > 100_000);
    }

    #[test]
    fn deterministic_across_builds() {
        let (p1, p2) = (build(1), build(1));
        let l1 = Layout::natural(&p1);
        let l2 = Layout::natural(&p2);
        let s1 = Executor::new(&p1, &l1)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        let s2 = Executor::new(&p2, &l2)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert_eq!(s1.retired, s2.retired);
    }
}
