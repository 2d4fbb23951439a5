//! `132.ijpeg` — an image-compression pipeline workload.
//!
//! Per 8×8 block: color conversion (floating point), a separable DCT-style
//! butterfly transform (floating point), quantization (the data-dependent
//! zero branch), and run-length entropy coding (branchy). The three inputs
//! change the image content: *faces* are smooth (most coefficients
//! quantize to zero), *scenery* is noisy — flipping the quantizer branch
//! bias exactly as different photographic inputs did in the original.

use crate::util::{add_service, random_words, rng};
use vp_isa::{Cond, FaluOp, Reg, Src};
use vp_program::{Program, ProgramBuilder};

/// Input selector matching Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// SPEC train: mixed-content image.
    A,
    /// Custom faces: smooth image, small coefficients.
    B,
    /// Custom scenery: noisy image, large coefficients.
    C,
}

const BLOCKS: i64 = 600;
const BLOCK_WORDS: usize = 64;

/// Builds the workload.
pub fn build(input: Input, scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x0132);
    let mut pb = ProgramBuilder::new();

    // Image: BLOCKS blocks of 64 samples; smoothness by input.
    let n_samples = BLOCKS as usize * BLOCK_WORDS;
    let image: Vec<u64> = match input {
        Input::B => (0..n_samples)
            .map(|i| 128 + ((i / 64) % 8) as u64)
            .collect(),
        Input::C => random_words(&mut r, n_samples, 256),
        Input::A => (0..n_samples)
            .map(|i| {
                if (i / (64 * 200)) % 2 == 0 {
                    128 + (i % 4) as u64
                } else {
                    r.gen_range(0..256u64)
                }
            })
            .collect(),
    };
    let image_base = pb.data(image);
    let coeff_base = pb.zeros(BLOCK_WORDS);
    let out_base = pb.zeros(n_samples + 64);

    // transform(block_addr=arg0): color convert + butterfly into coeffs.
    let transform = pb.declare("transform");
    pb.define(transform, |f| {
        let base = Reg::arg(0);
        let i = Reg::int(24);
        let a = Reg::int(25);
        let w = Reg::int(26);
        let fx = Reg::fp(8);
        let fy = Reg::fp(9);
        let fscale = Reg::fp(10);
        let fbias = Reg::fp(11);
        f.fli(fscale, 0.587);
        f.fli(fbias, -128.0);
        // color convert: coeff[i] = (sample * 0.587 - 128) summed in pairs
        f.for_range(i, 0, 32, |f| {
            f.shl(a, i, 4); // pairs: 2 words apart
            f.add(a, a, Src::Reg(base));
            f.load(w, a, 0);
            f.itof(fx, w);
            f.falu(FaluOp::Add, fx, fx, fbias);
            f.falu(FaluOp::Mul, fx, fx, fscale);
            f.load(w, a, 8);
            f.itof(fy, w);
            f.falu(FaluOp::Add, fy, fy, fbias);
            f.falu(FaluOp::Mul, fy, fy, fscale);
            // butterfly: sum and difference
            f.falu(FaluOp::Add, Reg::fp(12), fx, fy);
            f.falu(FaluOp::Sub, Reg::fp(13), fx, fy);
            f.ftoi(w, Reg::fp(12));
            f.shl(a, i, 3);
            f.add(a, a, Src::Imm(coeff_base as i64));
            f.store(w, a, 0);
            f.ftoi(w, Reg::fp(13));
            f.store(w, a, 32 * 8);
        });
        f.ret();
    });

    // quantize_encode(out_pos=arg0) -> new out_pos: the branchy stage.
    let quantize = pb.declare("quantize_encode");
    pb.define(quantize, |f| {
        let pos = Reg::arg(0);
        let i = Reg::int(24);
        let a = Reg::int(25);
        let c = Reg::int(26);
        let q = Reg::int(27);
        let run = Reg::int(28);
        let t = Reg::int(29);
        f.li(run, 0);
        f.for_range(i, 0, 64, |f| {
            f.shl(a, i, 3);
            f.add(a, a, Src::Imm(coeff_base as i64));
            f.load(c, a, 0);
            // |c| / 16 quantization
            let neg = f.cond(Cond::Lt, c, Src::Imm(0));
            f.if_(neg, |f| f.sub(c, Reg::ZERO, c));
            f.shr(q, c, 4);
            // The input-bias branch: zero after quantization?
            let zero = f.cond(Cond::Eq, q, Src::Imm(0));
            f.if_else(
                zero,
                |f| f.addi(run, run, 1),
                |f| {
                    // emit (run, level)
                    f.shl(t, run, 16);
                    f.or(t, t, q);
                    f.shl(a, pos, 3);
                    f.add(a, a, Src::Imm(out_base as i64));
                    f.store(t, a, 0);
                    f.addi(pos, pos, 1);
                    f.li(run, 0);
                },
            );
        });
        f.mov(Reg::ARG0, pos);
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "ijpeg", 4, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 51);
        // Image reading and marker parsing.
        for _ in 0..2 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        let rep = Reg::int(56);
        let blk = Reg::int(57);
        let addr = Reg::int(58);
        let pos = Reg::int(59);
        f.for_range(rep, 0, 3 * scale, |f| {
            f.li(pos, 0);
            f.for_range(blk, 0, BLOCKS, |f| {
                f.mul(addr, blk, (BLOCK_WORDS * 8) as i64);
                f.add(addr, addr, Src::Imm(image_base as i64));
                f.mov(Reg::arg(0), addr);
                f.call(transform);
                f.mov(Reg::arg(0), pos);
                f.call(quantize);
                f.mov(pos, Reg::ARG0);
            });
            // Per-pass file output.
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

    fn emitted_tokens(input: Input) -> u64 {
        let p = build(input, 1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        ex.reg(Reg::int(59))
    }

    #[test]
    fn all_inputs_run() {
        for input in [Input::A, Input::B, Input::C] {
            let p = build(input, 1);
            p.validate().unwrap();
            let layout = Layout::natural(&p);
            let stats = Executor::new(&p, &layout)
                .run(|_| {}, &RunConfig::default())
                .unwrap();
            assert_eq!(stats.stop, vp_exec::StopReason::Halted, "{input:?}");
            assert!(stats.retired > 500_000);
        }
    }

    #[test]
    fn faces_quantize_to_fewer_tokens_than_scenery() {
        let faces = emitted_tokens(Input::B);
        let scenery = emitted_tokens(Input::C);
        assert!(
            faces * 2 < scenery,
            "smooth input must emit far fewer tokens: faces={faces} scenery={scenery}"
        );
    }
}
