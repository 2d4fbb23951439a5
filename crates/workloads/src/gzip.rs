//! `164.gzip` — an LZ77-style compressor/decompressor workload.
//!
//! Two natural phases: a compression pass (hash-probe loop with
//! data-dependent match branches and an inner match-extension loop) and a
//! decompression pass (token dispatch with copy loops). The input mixes a
//! compressible region with a random region, so the match branch carries a
//! genuine, phase-stable bias.

use crate::util::{add_service, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const INPUT_WORDS: usize = 48 * 1024;
const HASH_SIZE: i64 = 4096;

/// Builds the workload; `scale` multiplies the number of passes.
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x0164);
    let mut pb = ProgramBuilder::new();

    // Input: first half highly repetitive (period striding), second half
    // random.
    let mut input = Vec::with_capacity(INPUT_WORDS);
    for i in 0..INPUT_WORDS / 2 {
        input.push(((i % 97) as u64) << 3 | 1);
    }
    input.extend(random_words(&mut r, INPUT_WORDS / 2, 1 << 24));
    let in_base = pb.data(input);
    let hash_base = pb.zeros(HASH_SIZE as usize);
    let out_base = pb.zeros(INPUT_WORDS + 16);
    let dec_base = pb.zeros(INPUT_WORDS + 16);

    // compress(n=arg0) -> token count
    let compress = pb.declare("compress");
    pb.define(compress, |f| {
        let n = Reg::arg(0);
        let i = Reg::int(24);
        let w = Reg::int(25);
        let h = Reg::int(26);
        let a = Reg::int(27);
        let prev = Reg::int(28);
        let out = Reg::int(29);
        let len = Reg::int(30);
        let t = Reg::int(31);
        let t2 = Reg::int(32);
        f.li(out, 0);
        f.li(i, 0);
        f.while_(
            |f| f.cond(Cond::Lt, i, Src::Reg(n)),
            |f| {
                // load current word
                f.shl(a, i, 3);
                f.add(a, a, Src::Imm(in_base as i64));
                f.load(w, a, 0);
                // hash probe
                f.mul(h, w, 2654435761);
                f.shr(h, h, 16);
                f.and(h, h, HASH_SIZE - 1);
                f.shl(a, h, 3);
                f.add(a, a, Src::Imm(hash_base as i64));
                f.load(prev, a, 0);
                f.store(i, a, 0);
                // candidate match? compare words at prev and i
                f.li(len, 0);
                let has_prev = f.cond(Cond::Ltu, prev, Src::Reg(i));
                f.if_(has_prev, |f| {
                    f.shl(t, prev, 3);
                    f.add(t, t, Src::Imm(in_base as i64));
                    f.load(t2, t, 0);
                    let eq = f.cond(Cond::Eq, t2, Src::Reg(w));
                    f.if_(eq, |f| {
                        // extend match up to 8 words
                        let j = Reg::int(33);
                        f.li(j, 1);
                        f.while_(
                            |f| {
                                // j < 8 && input[i+j] == input[prev+j]
                                f.add(t, i, j);
                                f.shl(t, t, 3);
                                f.add(t, t, Src::Imm(in_base as i64));
                                f.load(t, t, 0);
                                f.add(t2, prev, j);
                                f.shl(t2, t2, 3);
                                f.add(t2, t2, Src::Imm(in_base as i64));
                                f.load(t2, t2, 0);
                                f.xor(t, t, t2);
                                // continue while the words are equal and j < 8
                                let cont = Reg::int(34);
                                f.alu(vp_isa::AluOp::Seq, cont, t, Src::Imm(0));
                                f.alu(vp_isa::AluOp::Slt, t2, j, Src::Imm(8));
                                f.and(cont, cont, t2);
                                f.cond(Cond::Ne, cont, Src::Imm(0))
                            },
                            |f| f.addi(Reg::int(33), Reg::int(33), 1),
                        );
                        f.mov(len, j);
                    });
                });
                // emit token: match or literal
                let is_match = f.cond(Cond::Geu, len, Src::Imm(2));
                f.if_else(
                    is_match,
                    |f| {
                        // token = (len << 40) | (dist << 1) | 1
                        f.sub(t, i, prev);
                        f.shl(t, t, 1);
                        f.or(t, t, 1);
                        f.shl(t2, len, 40);
                        f.or(t, t, t2);
                        f.shl(a, out, 3);
                        f.add(a, a, Src::Imm(out_base as i64));
                        f.store(t, a, 0);
                        f.add(i, i, len);
                    },
                    |f| {
                        // literal token: word << 1
                        f.shl(t, w, 1);
                        f.shl(a, out, 3);
                        f.add(a, a, Src::Imm(out_base as i64));
                        f.store(t, a, 0);
                        f.addi(i, i, 1);
                    },
                );
                f.addi(out, out, 1);
            },
        );
        f.mov(Reg::ARG0, out);
        f.ret();
    });

    // decompress(tokens=arg0)
    let decompress = pb.declare("decompress");
    pb.define(decompress, |f| {
        let ntok = Reg::arg(0);
        let k = Reg::int(24);
        let tok = Reg::int(25);
        let a = Reg::int(26);
        let pos = Reg::int(27);
        let t = Reg::int(28);
        let len = Reg::int(29);
        let dist = Reg::int(30);
        let j = Reg::int(31);
        f.li(pos, 0);
        f.for_range(k, 0, Src::Reg(ntok), |f| {
            f.shl(a, k, 3);
            f.add(a, a, Src::Imm(out_base as i64));
            f.load(tok, a, 0);
            f.and(t, tok, 1);
            let is_match = f.cond(Cond::Ne, t, Src::Imm(0));
            f.if_else(
                is_match,
                |f| {
                    f.shr(len, tok, 40);
                    f.shr(dist, tok, 1);
                    f.and(dist, dist, (1i64 << 39) - 1);
                    f.for_range(j, 0, Src::Reg(len), |f| {
                        f.sub(t, pos, dist);
                        f.add(t, t, j);
                        f.shl(t, t, 3);
                        f.add(t, t, Src::Imm(dec_base as i64));
                        f.load(Reg::int(32), t, 0);
                        f.add(t, pos, j);
                        f.shl(t, t, 3);
                        f.add(t, t, Src::Imm(dec_base as i64));
                        f.store(Reg::int(32), t, 0);
                    });
                    f.add(pos, pos, len);
                },
                |f| {
                    f.shr(t, tok, 1);
                    f.shl(a, pos, 3);
                    f.add(a, a, Src::Imm(dec_base as i64));
                    f.store(t, a, 0);
                    f.addi(pos, pos, 1);
                },
            );
        });
        f.mov(Reg::ARG0, pos);
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "gzip", 5, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let pass = Reg::int(56);
        let tokens = Reg::int(57);
        let salt = Reg::int(60);
        f.li(salt, 41);
        // File and header handling.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        f.for_range(pass, 0, scale, |f| {
            f.call_args(compress, &[Src::Imm(INPUT_WORDS as i64 - 16)]);
            f.mov(tokens, Reg::ARG0);
            svc.burst(f, salt);
            f.call_args(decompress, &[Src::Reg(tokens)]);
            svc.burst(f, salt);
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
    fn compress_then_decompress_runs() {
        let p = build(1);
        p.validate().unwrap();
        let layout = Layout::natural(&p);
        let stats = Executor::new(&p, &layout)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert_eq!(stats.stop, vp_exec::StopReason::Halted);
        assert!(stats.retired > 1_000_000, "retired {}", stats.retired);
    }

    #[test]
    fn decompression_reconstructs_literals() {
        // Matches copy earlier output; literals write the raw word. As a
        // sanity check, the decompressed repetitive prefix must match the
        // original input's first words.
        let p = build(1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let in_base = p.data[0].base;
        // dec_base is the 4th segment.
        let dec_base = p.data[3].base;
        for i in 0..32 {
            assert_eq!(
                ex.memory().read(dec_base + 8 * i),
                ex.memory().read(in_base + 8 * i),
                "word {i} must round-trip"
            );
        }
    }
}
