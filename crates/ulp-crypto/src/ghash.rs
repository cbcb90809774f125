//! GHASH — the universal hash of GCM — in both the textbook sequential
//! form and the out-of-order form used by SmartDIMM's TLS DSA.
//!
//! Sequentially, GHASH chains `Y_i = (Y_{i-1} ⊕ X_i) · H`. That chain
//! would force the DIMM-side accelerator to see cachelines in order, but
//! the memory controller reorders CAS commands. §V-A of the paper solves
//! this by *precomputing powers of H*: since
//!
//! ```text
//! GHASH(X_1 .. X_n) = Σ_{i=1..n}  X_i · H^(n-i+1)
//! ```
//!
//! each 16-byte block's contribution depends only on its own index and the
//! total block count, so blocks may be absorbed in any order. The DSA
//! precomputes H^i "in strides of 4" — one power per 64-byte cacheline of
//! four blocks. [`OooGhash`] models exactly that: it folds a line's blocks
//! by Horner with `H`, then lifts the fold to the line's position with one
//! multiply by the line's power.

use crate::gf128::Gf128;

/// Bytes per cacheline, the DSA's unit of work.
const LINE: usize = 64;

/// Textbook sequential GHASH.
///
/// Used by the software AES-GCM baseline (the "CPU with AES-NI"
/// configuration) and as the oracle the out-of-order DSA form is tested
/// against.
#[derive(Debug, Clone)]
pub struct Ghash {
    h: Gf128,
    y: Gf128,
}

impl Ghash {
    /// Creates a GHASH instance keyed by `h`.
    pub fn new(h: Gf128) -> Ghash {
        Ghash { h, y: Gf128::ZERO }
    }

    /// Absorbs one 16-byte block.
    pub fn update_block(&mut self, block: &[u8; 16]) {
        self.y = (self.y + Gf128::from_bytes(block)) * self.h;
    }

    /// Absorbs `data`, zero-padding the final partial block (as GCM does
    /// between the AAD and ciphertext sections).
    pub fn update_padded(&mut self, data: &[u8]) {
        for chunk in data.chunks(16) {
            self.update_block(&pad_block(chunk));
        }
    }

    /// Returns the current hash value.
    pub fn finalize(&self) -> [u8; 16] {
        self.y.to_bytes()
    }
}

/// Zero-pads up to 16 bytes into a GHASH block.
fn pad_block(chunk: &[u8]) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..chunk.len()].copy_from_slice(chunk);
    block
}

/// Order-independent GHASH over the ciphertext of a GCM message,
/// absorbed one cacheline at a time in any order.
///
/// For a message of `C` ciphertext blocks, ciphertext block `c`
/// (0-based) contributes `X_c · H^(C+1-c)`: its position in the full
/// GHASH input, followed only by the length block (weight `H`). The AAD
/// and length blocks' share is added by the caller with
/// [`OooGhash::add`]; a per-channel partial engine skips it, so partial
/// accumulators stay combinable by XOR (§V-D).
///
/// Registration builds one power per cacheline — `msg_len.div_ceil(64)`
/// entries, 64 for a 4 KB page: the tail line's power is `H^2`, the line
/// before it one step of `H^tail` further (`tail` = the tail line's block
/// count), and every earlier line `H^4` further still.
///
/// # Example
///
/// ```
/// use ulp_crypto::gf128::Gf128;
/// use ulp_crypto::ghash::{Ghash, OooGhash};
///
/// let h = Gf128::from_bytes(&[0x42; 16]);
/// let ct: Vec<u8> = (0..200u8).collect();
///
/// // Sequential: the ciphertext, then an all-zero stand-in for the
/// // length block (whose own contribution the caller adds).
/// let mut seq = Ghash::new(h);
/// seq.update_padded(&ct);
/// seq.update_block(&[0u8; 16]);
///
/// let mut ooo = OooGhash::new(h, ct.len());
/// // Absorb the four cachelines in reverse order — the result must not change.
/// for line in (0..4).rev() {
///     let start = line * 64;
///     ooo.absorb_line(line, &ct[start..(start + 64).min(ct.len())]);
/// }
/// assert_eq!(ooo.finalize(), seq.finalize());
/// ```
#[derive(Debug, Clone)]
pub struct OooGhash {
    h: Gf128,
    /// `line_powers[l]` lifts line `l`'s Horner fold to its position.
    line_powers: Vec<Gf128>,
    acc: Gf128,
}

impl OooGhash {
    /// Creates an accumulator for `msg_len` bytes of ciphertext and
    /// builds the per-line powers of `h`.
    ///
    /// # Panics
    ///
    /// Panics if `msg_len` is zero.
    pub fn new(h: Gf128, msg_len: usize) -> OooGhash {
        assert!(msg_len > 0, "message must have at least one block");
        let lines = msg_len.div_ceil(LINE);
        let tail_blocks = msg_len.div_ceil(16) - 4 * (lines - 1);
        let h4 = h.pow(4);
        let mut line_powers = vec![h * h; lines];
        for l in (0..lines - 1).rev() {
            let step = if l == lines - 2 {
                h.pow(tail_blocks as u64)
            } else {
                h4
            };
            line_powers[l] = line_powers[l + 1] * step;
        }
        OooGhash {
            h,
            line_powers,
            acc: Gf128::ZERO,
        }
    }

    /// Absorbs cacheline `line` (0-based): `data` is its ciphertext, 64
    /// bytes, or the message's remaining bytes for the tail line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or `data` is empty or longer
    /// than a cacheline.
    pub fn absorb_line(&mut self, line: usize, data: &[u8]) {
        assert!(line < self.line_powers.len(), "line index out of range");
        assert!(
            !data.is_empty() && data.len() <= LINE,
            "a line holds 1..=64 bytes"
        );
        let mut blocks = data.chunks(16).map(|c| Gf128::from_bytes(&pad_block(c)));
        let first = blocks.next().unwrap_or(Gf128::ZERO);
        let fold = blocks.fold(first, |acc, x| acc * self.h + x);
        self.acc = self.acc + fold * self.line_powers[line];
    }

    /// XORs an already-weighted contribution (the AAD/length metadata)
    /// into the accumulator.
    pub fn add(&mut self, contribution: Gf128) {
        self.acc = self.acc + contribution;
    }

    /// Returns the accumulated hash value.
    pub fn finalize(&self) -> [u8; 16] {
        self.acc.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn h_fixture() -> Gf128 {
        Gf128::from_bytes(&[
            0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
            0x2b, 0x2e,
        ])
    }

    /// Sequential GHASH of `ct` followed by a zero block in the length
    /// block's slot: what an [`OooGhash`] over `ct` must finalize to.
    fn sequential(h: Gf128, ct: &[u8]) -> [u8; 16] {
        let mut seq = Ghash::new(h);
        seq.update_padded(ct);
        seq.update_block(&[0u8; 16]);
        seq.finalize()
    }

    fn absorb_in_order(ooo: &mut OooGhash, ct: &[u8], order: &[usize]) {
        for &line in order {
            let start = line * LINE;
            ooo.absorb_line(line, &ct[start..(start + LINE).min(ct.len())]);
        }
    }

    #[test]
    fn sequential_ghash_zero_message() {
        let mut g = Ghash::new(h_fixture());
        g.update_block(&[0u8; 16]);
        // (0 + 0) * H = 0
        assert_eq!(g.finalize(), [0u8; 16]);
    }

    #[test]
    fn update_padded_pads_with_zeros() {
        let h = h_fixture();
        let mut a = Ghash::new(h);
        a.update_padded(&[1, 2, 3]);
        let mut b = Ghash::new(h);
        let mut block = [0u8; 16];
        block[..3].copy_from_slice(&[1, 2, 3]);
        b.update_block(&block);
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn line_powers_step_by_h4_after_the_tail() {
        // 200 bytes: 13 blocks in 4 lines, the tail line holds 1 block.
        let h = h_fixture();
        let ooo = OooGhash::new(h, 200);
        assert_eq!(ooo.line_powers.len(), 4);
        assert_eq!(ooo.line_powers[3], h.pow(2));
        assert_eq!(ooo.line_powers[2], h.pow(3));
        assert_eq!(ooo.line_powers[1], h.pow(7));
        assert_eq!(ooo.line_powers[0], h.pow(11));
        // A 4 KB page needs one power per cacheline.
        assert_eq!(OooGhash::new(h, 4096).line_powers.len(), 64);
    }

    #[test]
    fn ooo_matches_sequential_any_order() {
        let h = h_fixture();
        let ct: Vec<u8> = (0..17 * 16 + 5)
            .map(|i| (i as u8).wrapping_mul(37))
            .collect();
        let lines = ct.len().div_ceil(LINE);
        // A few deterministic permutations.
        let orders: Vec<Vec<usize>> = vec![
            (0..lines).collect(),
            (0..lines).rev().collect(),
            (0..lines).map(|i| (i * 3) % lines).collect(),
        ];
        for order in orders {
            let mut ooo = OooGhash::new(h, ct.len());
            absorb_in_order(&mut ooo, &ct, &order);
            assert_eq!(ooo.finalize(), sequential(h, &ct));
        }
    }

    #[test]
    fn add_xors_into_the_accumulator() {
        let h = h_fixture();
        let mut ooo = OooGhash::new(h, 64);
        ooo.add(h);
        assert_eq!(ooo.finalize(), h.to_bytes());
        ooo.add(h);
        assert_eq!(ooo.finalize(), [0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ooo_rejects_bad_index() {
        OooGhash::new(h_fixture(), 128).absorb_line(2, &[0; 64]);
    }

    proptest! {
        #[test]
        fn prop_ooo_equals_sequential(
            hbytes: [u8; 16],
            ct in proptest::collection::vec(any::<u8>(), 1..700),
            seed: u64,
        ) {
            let h = Gf128::from_bytes(&hbytes);
            let mut order: Vec<usize> = (0..ct.len().div_ceil(LINE)).collect();
            simkit::DetRng::new(seed).shuffle(&mut order);
            let mut ooo = OooGhash::new(h, ct.len());
            absorb_in_order(&mut ooo, &ct, &order);
            prop_assert_eq!(ooo.finalize(), sequential(h, &ct));
        }
    }
}
