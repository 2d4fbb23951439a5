//! `197.parser` — a tokenizer + recursive-descent parser workload.
//!
//! Phase 1 tokenizes a word stream (character-class dispatch ladder plus a
//! dictionary hash probe); phase 2 parses the token stream with a
//! self-recursive expression grammar. The paper reports 197.parser among
//! the benchmarks with large coverage gains from linking.

use crate::util::{add_service, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const TEXT_WORDS: usize = 24 * 1024;
const DICT_SIZE: i64 = 1024;

/// Builds the workload.
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x0197);
    let mut pb = ProgramBuilder::new();

    // Text: small integers standing for characters; 0 = space.
    let text: Vec<u64> = random_words(&mut r, TEXT_WORDS, 32);
    let text_base = pb.data(text);
    let dict_base = pb.zeros(DICT_SIZE as usize);
    let tokens_base = pb.zeros(TEXT_WORDS);

    // tokenize(n=arg0) -> token count
    let tokenize = pb.declare("tokenize");
    pb.define(tokenize, |f| {
        let n = Reg::arg(0);
        let i = Reg::int(24);
        let a = Reg::int(25);
        let ch = Reg::int(26);
        let ntok = Reg::int(27);
        let h = Reg::int(28);
        let t = Reg::int(29);
        f.li(ntok, 0);
        f.for_range(i, 0, Src::Reg(n), |f| {
            f.shl(a, i, 3);
            f.add(a, a, Src::Imm(text_base as i64));
            f.load(ch, a, 0);
            // character-class ladder
            let is_space = f.cond(Cond::Eq, ch, Src::Imm(0));
            f.if_else(
                is_space,
                |f| {
                    // token boundary: nothing emitted
                    f.nop();
                },
                |f| {
                    let is_digit = f.cond(Cond::Ltu, ch, Src::Imm(10));
                    f.if_else(
                        is_digit,
                        |f| {
                            // numeric token (kind 1)
                            f.shl(t, ch, 2);
                            f.or(t, t, 1);
                            f.shl(a, ntok, 3);
                            f.add(a, a, Src::Imm(tokens_base as i64));
                            f.store(t, a, 0);
                            f.addi(ntok, ntok, 1);
                        },
                        |f| {
                            // word token: dictionary probe (kind 2)
                            f.mul(h, ch, 2654435761);
                            f.shr(h, h, 20);
                            f.and(h, h, DICT_SIZE - 1);
                            f.shl(a, h, 3);
                            f.add(a, a, Src::Imm(dict_base as i64));
                            f.load(t, a, 0);
                            f.addi(t, t, 1);
                            f.store(t, a, 0);
                            f.shl(t, h, 2);
                            f.or(t, t, 2);
                            f.shl(a, ntok, 3);
                            f.add(a, a, Src::Imm(tokens_base as i64));
                            f.store(t, a, 0);
                            f.addi(ntok, ntok, 1);
                        },
                    );
                },
            );
        });
        f.mov(Reg::ARG0, ntok);
        f.ret();
    });

    // parse_expr(pos=arg0, limit=arg1, depth=arg2) -> new pos; recursive
    // descent: a numeric token is a leaf, a word token opens a subtree of
    // up to 3 children.
    let parse_expr = pb.declare("parse_expr");
    pb.define(parse_expr, |f| {
        let (pos, limit, depth) = (Reg::arg(0), Reg::arg(1), Reg::arg(2));
        let a = Reg::int(24);
        let tok = Reg::int(25);
        let kind = Reg::int(26);
        let t = Reg::int(27);
        // bounds / depth check
        let done = f.cond(Cond::Geu, pos, Src::Reg(limit));
        f.if_(done, |f| {
            f.mov(Reg::ARG0, pos);
            f.ret();
        });
        let deep = f.cond(Cond::Geu, depth, Src::Imm(12));
        f.if_(deep, |f| {
            f.addi(Reg::ARG0, pos, 1);
            f.ret();
        });
        f.shl(a, pos, 3);
        f.add(a, a, Src::Imm(tokens_base as i64));
        f.load(tok, a, 0);
        f.and(kind, tok, 3);
        let is_leaf = f.cond(Cond::Ne, kind, Src::Imm(2));
        f.if_(is_leaf, |f| {
            f.addi(Reg::ARG0, pos, 1);
            f.ret();
        });
        // word token: parse children; child count from token payload
        let nchild = Reg::int(28);
        f.shr(nchild, tok, 2);
        f.and(nchild, nchild, 3);
        f.addi(nchild, nchild, 1);
        let i = Reg::int(29);
        f.frame_alloc(4);
        f.spill(limit, 1);
        f.spill(depth, 2);
        f.addi(t, pos, 1);
        f.spill(nchild, 3);
        f.li(i, 0);
        f.while_(
            |f| {
                f.reload(Reg::int(30), 3);
                f.cond(Cond::Lt, i, Src::Reg(Reg::int(30)))
            },
            |f| {
                f.spill(i, 0);
                f.mov(Reg::arg(0), t);
                f.reload(Reg::arg(1), 1);
                f.reload(Reg::arg(2), 2);
                f.addi(Reg::arg(2), Reg::arg(2), 1);
                f.call(parse_expr);
                f.mov(t, Reg::ARG0);
                f.reload(i, 0);
                f.addi(i, i, 1);
            },
        );
        f.frame_free(4);
        f.mov(Reg::ARG0, t);
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "parser", 5, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let rounds = Reg::int(56);
        let ntok = Reg::int(57);
        let pos = Reg::int(58);
        let salt = Reg::int(60);
        f.li(salt, 43);
        // Dictionary loading.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        f.for_range(rounds, 0, 3 * scale, |f| {
            // Phase 1: tokenize.
            f.call_args(tokenize, &[Src::Imm(TEXT_WORDS as i64)]);
            f.mov(ntok, Reg::ARG0);
            // Phase 2: parse everything.
            f.li(pos, 0);
            f.while_(
                |f| f.cond(Cond::Ltu, pos, Src::Reg(ntok)),
                |f| {
                    f.mov(Reg::arg(0), pos);
                    f.mov(Reg::arg(1), ntok);
                    f.li(Reg::arg(2), 0);
                    f.call(parse_expr);
                    f.mov(pos, Reg::ARG0);
                },
            );
            // Per-sentence post-processing.
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        });
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
    fn runs_to_completion() {
        let p = build(1);
        p.validate().unwrap();
        let layout = Layout::natural(&p);
        let stats = Executor::new(&p, &layout)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert_eq!(stats.stop, vp_exec::StopReason::Halted);
        assert!(stats.retired > 800_000, "retired {}", stats.retired);
    }

    #[test]
    fn dictionary_gets_populated() {
        let p = build(1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let dict = p.data[1].base;
        let hits: u64 = (0..DICT_SIZE as u64)
            .map(|i| ex.memory().read(dict + 8 * i))
            .sum();
        assert!(hits > 10_000, "dictionary probes: {hits}");
    }
}
