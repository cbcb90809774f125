//! Arithmetic in GF(2^128) with the GCM bit ordering.
//!
//! GCM interprets 16-byte blocks with the *most significant* bit of the
//! first byte as the coefficient of x^0 (the "reflected" convention). The
//! reduction polynomial is x^128 + x^7 + x^2 + x + 1, which in this
//! convention appears as the constant `0xE1` shifted into the top byte.
//!
//! [`Gf128`] is the element type used by GHASH and by the SmartDIMM TLS
//! DSA's per-cacheline powers of `H` (§V-A).
//!
//! Multiplication is table-free: a carry-less 128×128 product built from
//! masked 64-bit integer multiplies (BearSSL's `ctmul64` construction),
//! one Karatsuba level, then reduction — the same code for every operand
//! pair, so no per-key state exists to build or cache.

use std::ops::{Add, Mul};

/// The low 64 bits of the carry-less product `x · y`.
///
/// Each operand is split into four interleaved bit lanes (every fourth
/// bit); an ordinary integer multiply of two lanes leaves holes of three
/// bits between result bits, wide enough that the column sums (at most
/// 15 below bit 60, 16 only where the carry leaves the word) never carry
/// into the next bit of the same lane. Masking each lane sum back out
/// keeps exactly the XOR of the partial products.
#[inline(always)]
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = M0 << 1;
    const M2: u64 = M0 << 2;
    const M3: u64 = M0 << 3;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let m = u64::wrapping_mul;
    let z0 = m(x0, y0) ^ m(x1, y3) ^ m(x2, y2) ^ m(x3, y1);
    let z1 = m(x0, y1) ^ m(x1, y0) ^ m(x2, y3) ^ m(x3, y2);
    let z2 = m(x0, y2) ^ m(x1, y1) ^ m(x2, y0) ^ m(x3, y3);
    let z3 = m(x0, y3) ^ m(x1, y2) ^ m(x2, y1) ^ m(x3, y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

/// An element of GF(2^128) in GCM bit order.
///
/// # Example
///
/// ```
/// use ulp_crypto::gf128::Gf128;
/// let h = Gf128::from_bytes(&[0x80; 16]);
/// let one = Gf128::ONE;
/// assert_eq!(h * one, h);          // multiplicative identity
/// assert_eq!(h + h, Gf128::ZERO);  // characteristic 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf128(u128);

impl Gf128 {
    /// The additive identity.
    pub const ZERO: Gf128 = Gf128(0);
    /// The multiplicative identity: x^0, i.e. the MSB of the first byte.
    pub const ONE: Gf128 = Gf128(1 << 127);

    /// Interprets 16 big-endian bytes as a field element.
    pub fn from_bytes(b: &[u8; 16]) -> Gf128 {
        Gf128(u128::from_be_bytes(*b))
    }

    /// Serializes the element back to 16 big-endian bytes.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Whether this is the zero element.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Computes `self^n` by square-and-multiply (n ≥ 0; `x^0 == ONE`).
    pub fn pow(self, mut n: u64) -> Gf128 {
        let mut result = Gf128::ONE;
        let mut base = self;
        while n > 0 {
            if n & 1 == 1 {
                result = result * base;
            }
            base = base * base;
            n >>= 1;
        }
        result
    }

    /// Reference multiplication: the bit-at-a-time algorithm of NIST SP
    /// 800-38D §6.3, one conditional XOR per bit of `rhs`.
    ///
    /// This is the oracle the `Mul` impl is validated against, and the
    /// "before" side of the `bench_hotpaths` GHASH measurement. Hot paths
    /// use `*`.
    pub fn mul_bitwise(self, rhs: Gf128) -> Gf128 {
        const R: u128 = 0xE1 << 120;
        let mut z: u128 = 0;
        let mut v = self.0;
        let y = rhs.0;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        Gf128(z)
    }
}

impl Add for Gf128 {
    type Output = Gf128;
    /// Addition in GF(2^128) is XOR.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf128) -> Gf128 {
        Gf128(self.0 ^ rhs.0)
    }
}

impl Mul for Gf128 {
    type Output = Gf128;
    /// Table-free carry-less multiplication with reduction. Agrees
    /// bit-for-bit with [`Gf128::mul_bitwise`].
    ///
    /// GCM's reflected bit order means the big-endian integers multiply
    /// as bit-reversed polynomials: their 255-bit carry-less product is
    /// the reversed true product, one bit short of 256. Karatsuba over
    /// the 64-bit halves needs three half products; [`bmul64`] yields
    /// only the low 64 bits of each, and the high 64 bits come from
    /// multiplying the bit-reversed halves (`rev(x)·rev(y)` is the
    /// reversed product). After the one-bit realignment the low 128 bits
    /// hold degrees 128..255, which fold back into the high 128 bits via
    /// `x^128 = x^7 + x^2 + x + 1`.
    fn mul(self, rhs: Gf128) -> Gf128 {
        let (x1, x0) = ((self.0 >> 64) as u64, self.0 as u64);
        let (y1, y0) = ((rhs.0 >> 64) as u64, rhs.0 as u64);
        let (x0r, x1r) = (x0.reverse_bits(), x1.reverse_bits());
        let (y0r, y1r) = (y0.reverse_bits(), y1.reverse_bits());

        let z0 = bmul64(x0, y0);
        let z1 = bmul64(x1, y1);
        let mut z2 = bmul64(x0 ^ x1, y0 ^ y1);
        let mut z0h = bmul64(x0r, y0r);
        let mut z1h = bmul64(x1r, y1r);
        let mut z2h = bmul64(x0r ^ x1r, y0r ^ y1r);
        z2 ^= z0 ^ z1;
        z2h ^= z0h ^ z1h;
        z0h = z0h.reverse_bits() >> 1;
        z1h = z1h.reverse_bits() >> 1;
        z2h = z2h.reverse_bits() >> 1;

        // The 255-bit product as four words (v3 most significant),
        // shifted left by one to realign the reflected coefficients.
        let (v0, v1, v2, v3) = (z0, z0h ^ z2, z1 ^ z2h, z1h);
        let (v0, v1, v2, v3) = (
            v0 << 1,
            (v1 << 1) | (v0 >> 63),
            (v2 << 1) | (v1 >> 63),
            (v3 << 1) | (v2 >> 63),
        );

        // Reduction, one 64-bit word of high-degree terms at a time.
        let v2 = v2 ^ v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
        let v1 = v1 ^ (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
        let v3 = v3 ^ v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
        let v2 = v2 ^ (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
        Gf128((u128::from(v3) << 64) | u128::from(v2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex16(s: &str) -> [u8; 16] {
        let v: Vec<u8> = (0..32)
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    #[test]
    fn identity_and_zero() {
        let a = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        assert_eq!(a * Gf128::ONE, a);
        assert_eq!(a * Gf128::ZERO, Gf128::ZERO);
        assert_eq!(a + Gf128::ZERO, a);
        assert!(Gf128::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn known_product_from_gcm_test_case_2() {
        // In GCM test case 2 (zero key, one zero plaintext block), the tag
        // computation includes GHASH steps we can replicate: with
        // H = 66e94bd4ef8a2c3b884cfa59ca342b2e and
        // C1 = 0388dace60b6a392f328c2b971b2fe78,
        // GHASH = (C1 · H + LenBlock) · H = f38cbb1ad69223dcc3457ae5b6b0f885.
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        let c1 = Gf128::from_bytes(&hex16("0388dace60b6a392f328c2b971b2fe78"));
        let mut len_block = [0u8; 16];
        len_block[8..].copy_from_slice(&(128u64).to_be_bytes());
        let len = Gf128::from_bytes(&len_block);
        let ghash = (c1 * h + len) * h;
        assert_eq!(ghash.to_bytes(), hex16("f38cbb1ad69223dcc3457ae5b6b0f885"));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let h = Gf128::from_bytes(&hex16("acbef20579b4b8ebce889bac8732dad7"));
        let mut acc = Gf128::ONE;
        for n in 0..16u64 {
            assert_eq!(h.pow(n), acc, "H^{n}");
            acc = acc * h;
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let b = hex16("0123456789abcdef0f1e2d3c4b5a6978");
        assert_eq!(Gf128::from_bytes(&b).to_bytes(), b);
    }

    #[test]
    fn mul_identity_and_zero_either_side() {
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        assert_eq!(Gf128::ONE * h, h);
        assert_eq!(Gf128::ZERO * h, Gf128::ZERO);
        assert_eq!(h.mul_bitwise(Gf128::ONE), h);
    }

    #[test]
    fn mul_matches_bitwise_on_gcm_vectors() {
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        let c1 = Gf128::from_bytes(&hex16("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(c1 * h, c1.mul_bitwise(h));
        assert_eq!(h * h, h.mul_bitwise(h));
    }

    #[test]
    fn mul_matches_bitwise_on_extreme_operands() {
        // All-ones halves fill every lane of the masked multiplies, the
        // worst case for the column-sum headroom; single bits at each
        // word edge exercise the one-bit realignment and the reduction.
        let mut operands = vec![
            u128::MAX,
            u128::MAX >> 64,
            u128::MAX << 64,
            1,
            1 << 63,
            1 << 64,
        ];
        operands.extend((0..128).step_by(9).map(|b| 1u128 << b));
        for &a in &operands {
            for &b in &operands {
                let (x, y) = (Gf128(a), Gf128(b));
                assert_eq!(x * y, x.mul_bitwise(y), "{a:032x} * {b:032x}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_mul_commutative(a: [u8; 16], b: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            prop_assert_eq!(x * y, y * x);
        }

        #[test]
        fn prop_mul_associative(a: [u8; 16], b: [u8; 16], c: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            let z = Gf128::from_bytes(&c);
            prop_assert_eq!((x * y) * z, x * (y * z));
        }

        #[test]
        fn prop_mul_distributes_over_add(a: [u8; 16], b: [u8; 16], c: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            let z = Gf128::from_bytes(&c);
            prop_assert_eq!(x * (y + z), x * y + x * z);
        }

        #[test]
        fn prop_add_self_inverse(a: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            prop_assert_eq!(x + x, Gf128::ZERO);
        }

        #[test]
        fn prop_mul_matches_bitwise(a: [u8; 16], b: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            prop_assert_eq!(x * y, x.mul_bitwise(y));
            prop_assert_eq!(y * x, x.mul_bitwise(y));
        }
    }
}
