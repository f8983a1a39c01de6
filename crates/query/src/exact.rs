//! Exact, order-free summation of doubles.
//!
//! SUM, AVG and UDF states add doubles, and DGFIndex merges those states
//! from GFU headers, pyramid nodes, memtable cells and boundary scans in
//! whatever order a plan meets them (paper §4.1, §4.3: the headers hold
//! *additive* functions). A rounded float sum is not associative, so
//! [`ExactSum`] does not round while it adds: it keeps the exact binary
//! sum of every double it has seen (Neal, "Fast exact summation using
//! small and large superaccumulators", arXiv:1505.05571, small variant)
//! and rounds once, correctly, in [`ExactSum::value`]. Any permutation
//! and any grouping of the same multiset of doubles therefore reaches
//! the same state, the same encoded bytes and the same answer bits.
//!
//! Every finite double is an integer multiple of 2⁻¹⁰⁷⁴. The accumulator
//! holds that integer as signed 32-bit digits, one per `i64` word, over
//! a window of digit indexes (digit `i` weighs 2^(32·i − 1074)). An add
//! touches three adjacent words without carrying: the 31 spare bits of
//! every word absorb up to 2²⁹ adds before one carry pass normalizes the
//! window. Infinities are flags, so ∞ + finite is ∞ and only +∞ and −∞
//! together make NaN. A window of `INLINE` (four) words lives inside the
//! state: sums of values within a few binades of each other never touch
//! the heap.

use std::fmt;

use dgf_common::codec::{self, Decoder};
use dgf_common::{DgfError, Result};

/// Digit indexes a sum can reach: every finite double lies in digits
/// 0..66, and the sum of 2⁶⁴ of the largest lies below digit 68.
const DIGITS: usize = 68;

/// Words a state keeps inline before its window moves to the heap: four
/// cover 128 bits, e.g. 0.01 to 10¹⁴ at full double precision.
const INLINE: usize = 4;

/// Adds (a normalized word counts as one) a window absorbs before it
/// carries: every word then stays below 2⁶² in magnitude, and two such
/// windows still add without overflow.
const CARRY_AT: u32 = 1 << 29;

const MASK: i64 = 0xFFFF_FFFF;
const POS_INF: u8 = 1;
const NEG_INF: u8 = 2;
/// Encoding flag: the digits are a negative sum's magnitude.
const NEGATIVE: u8 = 4;

/// The exact sum of a multiset of doubles. See the [module docs](self).
#[derive(Clone, Default)]
pub struct ExactSum {
    /// The window's words while it fits inline.
    inline: [i64; INLINE],
    /// The window's words once it does not (then `len` is 0).
    heap: Vec<i64>,
    /// Digit index of the window's first word.
    lo: u8,
    /// Inline words in use.
    len: u8,
    /// [`POS_INF`] and [`NEG_INF`]: infinities seen.
    inf: u8,
    /// Adds since the last carry pass, the bound on every word's
    /// magnitude in units of 2³².
    load: u32,
}

/// A sum in sign-magnitude normal form: `digits[..n]` are base-2³²
/// digits, least significant first, with no zero digit at either end;
/// the first is digit index `lo`.
struct Canonical {
    flags: u8,
    lo: usize,
    n: usize,
    /// Room for a window a carry widened and for a negation's carry.
    digits: [u32; DIGITS + 4],
}

impl Canonical {
    fn digits(&self) -> &[u32] {
        &self.digits[..self.n]
    }
}

impl ExactSum {
    /// The empty sum (zero).
    pub fn new() -> ExactSum {
        ExactSum::default()
    }

    /// Add one double, exactly. NaN counts as both infinities.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let exp = (bits >> 52) & 0x7FF;
        if exp.wrapping_sub(1) >= 0x7FE {
            return self.add_unusual(x);
        }
        // x = mant · 2^(e − 1074), the mantissa with its hidden bit.
        self.add_scaled(bits & ((1 << 52) - 1) | 1 << 52, exp as usize - 1, bits >> 63 == 1);
    }

    /// [`add`](Self::add) for zeros, subnormals (no hidden bit, e = 0),
    /// infinities and NaN.
    #[cold]
    fn add_unusual(&mut self, x: f64) {
        if x.is_nan() {
            self.inf |= POS_INF | NEG_INF;
        } else if x.is_infinite() {
            self.inf |= if x > 0.0 { POS_INF } else { NEG_INF };
        } else if x != 0.0 {
            self.add_scaled(x.to_bits() & ((1 << 52) - 1), 0, x < 0.0);
        }
    }

    /// Add ±`mant` · 2^(`e` − 1074) (`mant` < 2⁵³) into the three words
    /// from digit `e / 32` up.
    #[inline]
    fn add_scaled(&mut self, mant: u64, e: usize, negative: bool) {
        let (d, s) = (e >> 5, e & 31);
        let high = mant >> (32 - s);
        // Negate by xor-and-subtract: `sign` is 0 or −1.
        let sign = -(negative as i64);
        let digits = [
            ((mant << s) & MASK as u64) as i64,
            (high & MASK as u64) as i64,
            (high >> 32) as i64,
        ];
        let off = d.wrapping_sub(self.lo());
        let w = match off.checked_add(3) {
            Some(end) if end <= self.len as usize => &mut self.inline[off..end],
            _ => {
                if self.window().get(off..).is_none_or(|w| w.len() < 3) {
                    self.widen(d, d + 2);
                }
                let off = d - self.lo();
                &mut self.window_mut()[off..off + 3]
            }
        };
        for (w, x) in w.iter_mut().zip(digits) {
            *w += (x ^ sign) - sign;
        }
        self.load += 1;
        if self.load >= CARRY_AT {
            self.carry();
        }
    }

    /// Add another exact sum: the state of the union of both multisets.
    pub fn merge(&mut self, other: &ExactSum) {
        self.inf |= other.inf;
        let theirs = other.window();
        if theirs.is_empty() {
            return;
        }
        let hi = other.lo() + theirs.len() - 1;
        if other.lo < self.lo || hi >= self.lo() + self.window().len() {
            self.widen(other.lo(), hi);
        }
        let at = other.lo() - self.lo();
        for (w, x) in self.window_mut()[at..].iter_mut().zip(theirs) {
            *w += x;
        }
        self.load += other.load;
        if self.load >= CARRY_AT {
            self.carry();
        }
    }

    /// The sum rounded to the nearest double, ties to even: ±∞ when it
    /// overflows or an infinity was added, NaN only when both were.
    pub fn value(&self) -> f64 {
        match self.inf {
            0 => {}
            POS_INF => return f64::INFINITY,
            NEG_INF => return f64::NEG_INFINITY,
            _ => return f64::NAN,
        }
        let c = self.canonical();
        let digits = c.digits();
        let Some(&top) = digits.last() else {
            return 0.0;
        };
        let t = digits.len() - 1;
        let top_bits = 32 - top.leading_zeros() as usize;
        // The integer's bit length, in units of 2⁻¹⁰⁷⁴.
        let len = 32 * (c.lo + t) + top_bits;
        let bits = if len <= 53 {
            // Exact: below 2⁵³ units the integer is the double's bit
            // pattern (a subnormal, or the lowest binade).
            digits
                .iter()
                .enumerate()
                .fold(0u64, |n, (i, d)| n | (*d as u64) << (32 * (c.lo + i)))
        } else {
            // The top 96 bits, the 53 kept ones and what rounds them.
            let below = |k: usize| t.checked_sub(k).map_or(0, |i| digits[i] as u128);
            let acc = (top as u128) << 64 | below(1) << 32 | below(2);
            let cut = 64 + top_bits - 53;
            let mut m = (acc >> cut) as u64;
            let rest = acc & ((1u128 << cut) - 1);
            let half = 1u128 << (cut - 1);
            let sticky = digits[..t.saturating_sub(2)].iter().any(|d| *d != 0);
            if rest > half || (rest == half && (sticky || m & 1 == 1)) {
                m += 1;
            }
            // m · 2^(len − 53 − 1074): adding m, whose bit 52 is set (or
            // bit 53 after rounding up), carries into the exponent field.
            (((len - 53) as u64) << 52).saturating_add(m)
        };
        let bits = bits.min(f64::INFINITY.to_bits());
        let sign = if c.flags & NEGATIVE != 0 { 1 << 63 } else { 0 };
        f64::from_bits(bits | sign)
    }

    /// Append the canonical encoding: a flags byte (negative, +∞, −∞),
    /// the digit count as a varint, and when it is not zero the lowest
    /// digit's index as one byte and the digits as little-endian `u32`s.
    /// Equal sums encode to equal bytes.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let c = self.canonical();
        buf.push(c.flags);
        codec::put_varint(buf, c.n as u64);
        if c.n > 0 {
            buf.push(c.lo as u8);
            for d in c.digits() {
                codec::put_u32(buf, *d);
            }
        }
    }

    /// Read an [`encode`](Self::encode)d sum. Every length is bounded
    /// by what the frame and the digit range can hold, and anything the
    /// encoder would not write is `Corrupt`.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ExactSum> {
        let corrupt = |what: &str| Err(DgfError::Corrupt(format!("exact sum: {what}")));
        let flags = dec.u8()?;
        if flags & !(POS_INF | NEG_INF | NEGATIVE) != 0 {
            return corrupt("unknown flags");
        }
        let n = dec.varint_count(4)?;
        let mut sum = ExactSum {
            inf: flags & (POS_INF | NEG_INF),
            ..ExactSum::default()
        };
        if n == 0 {
            if flags & NEGATIVE != 0 {
                return corrupt("a negative zero");
            }
            return Ok(sum);
        }
        let lo = dec.u8()? as usize;
        if lo + n > DIGITS {
            return corrupt("digits beyond the double range");
        }
        sum.set_window(lo, n);
        sum.load = 1;
        for w in sum.window_mut() {
            let d = dec.u32()? as i64;
            *w = if flags & NEGATIVE != 0 { -d } else { d };
        }
        let words = sum.window();
        if words[0] == 0 || words[n - 1] == 0 {
            return corrupt("a zero digit at either end");
        }
        Ok(sum)
    }

    fn lo(&self) -> usize {
        self.lo as usize
    }

    fn window(&self) -> &[i64] {
        if self.heap.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.heap
        }
    }

    fn window_mut(&mut self) -> &mut [i64] {
        if self.heap.is_empty() {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.heap
        }
    }

    /// Replace the window with `len` zero words from digit index `lo`.
    fn set_window(&mut self, lo: usize, len: usize) {
        self.lo = lo as u8;
        self.inline = [0; INLINE];
        if len <= INLINE {
            self.len = len as u8;
            self.heap = Vec::new();
        } else {
            self.len = 0;
            self.heap = vec![0; len];
        }
    }

    /// Make the window cover digit indexes `lo..=hi`, keeping its sum.
    #[cold]
    fn widen(&mut self, lo: usize, hi: usize) {
        let old_lo = self.lo();
        let (old_inline, old_heap) = (self.inline, std::mem::take(&mut self.heap));
        let old = if old_heap.is_empty() {
            &old_inline[..self.len as usize]
        } else {
            &old_heap[..]
        };
        let (new_lo, new_hi) = if old.is_empty() {
            (lo, hi)
        } else {
            (lo.min(old_lo), hi.max(old_lo + old.len() - 1))
        };
        self.set_window(new_lo, new_hi - new_lo + 1);
        if !old.is_empty() {
            let at = old_lo - new_lo;
            self.window_mut()[at..at + old.len()].copy_from_slice(old);
        }
    }

    /// Carry pass: every word but the top one into `0..2³²`, the top
    /// one (which holds the sign) into `−2³²..2³²`, widening by one digit
    /// when it would not fit.
    fn carry(&mut self) {
        let Some((top, rest)) = self.window_mut().split_last_mut() else {
            return;
        };
        let mut carry = 0i64;
        for w in rest {
            let v = *w + carry;
            *w = v & MASK;
            carry = v >> 32;
        }
        *top += carry;
        let t = *top;
        if !(-(1 << 32)..1 << 32).contains(&t) {
            *top = t & MASK;
            let hi = self.lo() + self.window().len();
            self.widen(hi, hi);
            if let Some(w) = self.window_mut().last_mut() {
                *w = t >> 32;
            }
        }
        self.load = 1;
    }

    /// The sum's sign-magnitude normal form, computed on the stack.
    fn canonical(&self) -> Canonical {
        let mut c = Canonical {
            flags: self.inf,
            lo: self.lo(),
            n: 0,
            digits: [0; DIGITS + 4],
        };
        let mut carry = 0i64;
        let mut n = 0;
        for w in self.window() {
            let v = *w + carry;
            c.digits[n] = (v & MASK) as u32;
            carry = v >> 32;
            n += 1;
        }
        while carry != 0 && carry != -1 {
            c.digits[n] = (carry & MASK) as u32;
            carry >>= 32;
            n += 1;
        }
        if carry == -1 {
            // Two's complement with an infinite run of ones above digit
            // `n`: the magnitude is 2^(32·n) minus the digits.
            c.flags |= NEGATIVE;
            let mut borrow = 1u64;
            for d in &mut c.digits[..n] {
                let v = (!*d) as u64 + borrow;
                *d = v as u32;
                borrow = v >> 32;
            }
            if borrow == 1 {
                c.digits[n] = 1;
                n += 1;
            }
        }
        let first = c.digits[..n].iter().position(|d| *d != 0).unwrap_or(n);
        let last = c.digits[..n].iter().rposition(|d| *d != 0).map_or(first, |i| i + 1);
        c.digits.copy_within(first..last, 0);
        c.lo += first;
        c.n = last - first;
        if c.n == 0 {
            c.flags &= !NEGATIVE;
            c.lo = 0;
        }
        c
    }
}

impl PartialEq for ExactSum {
    /// Equal sums: the same multiset total and the same infinities,
    /// whatever the windows look like.
    fn eq(&self, other: &ExactSum) -> bool {
        let (a, b) = (self.canonical(), other.canonical());
        a.flags == b.flags && a.lo == b.lo && a.digits() == b.digits()
    }
}

impl fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExactSum({:?})", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(xs: &[f64]) -> ExactSum {
        let mut s = ExactSum::new();
        for x in xs {
            s.add(*x);
        }
        s
    }

    fn round_trip(s: &ExactSum) -> ExactSum {
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut dec = Decoder::new(&buf);
        let back = ExactSum::decode(&mut dec).unwrap();
        assert_eq!(dec.remaining(), 0);
        back
    }

    #[test]
    fn single_values_come_back_bit_for_bit() {
        let xs = [
            1.0,
            -1.0,
            0.1,
            1.5,
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            -5e-324,
            1e300,
            123456789.125,
            (1u64 << 53) as f64 - 1.0,
        ];
        for x in xs {
            let s = sum(&[x]);
            assert_eq!(s.value().to_bits(), x.to_bits(), "{x:e}");
            assert_eq!(round_trip(&s).value().to_bits(), x.to_bits(), "{x:e}");
        }
    }

    #[test]
    fn cancellation_and_rounding_are_exact() {
        assert_eq!(sum(&[1e16, 1.0, -1e16]).value(), 1.0);
        assert_eq!(sum(&[1e308, 1e308, -1e308]).value(), 1e308);
        // The doubles nearest 0.1, 0.2 and 0.3 miss by exactly 2⁻⁵⁵.
        assert_eq!(sum(&[0.1, 0.2, -0.3]).value(), 2f64.powi(-55));
        // 2⁵³ + 1 is a tie between 2⁵³ and 2⁵³ + 2: even wins; any bit
        // below breaks the tie upwards.
        let two53 = (1u64 << 53) as f64;
        assert_eq!(sum(&[two53, 1.0]).value(), two53);
        assert_eq!(sum(&[two53, 1.0, 1e-300]).value(), two53 + 2.0);
        assert_eq!(sum(&[two53 + 2.0, 1.0]).value(), two53 + 4.0);
        // The lowest normal binade meets the subnormals exactly.
        let tiny = f64::MIN_POSITIVE;
        assert_eq!(sum(&[tiny, -5e-324]).value(), tiny - 5e-324);
    }

    #[test]
    fn infinities_are_flags_and_overflow_rounds_to_infinity() {
        assert_eq!(sum(&[f64::INFINITY, 1.0]).value(), f64::INFINITY);
        assert_eq!(sum(&[-1.0, f64::NEG_INFINITY]).value(), f64::NEG_INFINITY);
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).value().is_nan());
        assert_eq!(sum(&[1e308, 1e308]).value(), f64::INFINITY);
        assert_eq!(sum(&[-1e308, -1e308]).value(), f64::NEG_INFINITY);
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]).value(), f64::MAX);
        let s = sum(&[f64::INFINITY, 2.5]);
        assert_eq!(round_trip(&s), s);
        assert_eq!(round_trip(&s).value(), f64::INFINITY);
    }

    #[test]
    fn zeros_are_positive_zero_and_encode_as_nothing() {
        for xs in [&[][..], &[-0.0], &[0.0, -0.0], &[1.5, -1.5]] {
            let s = sum(xs);
            assert_eq!(s.value().to_bits(), 0, "{xs:?}");
            let mut buf = Vec::new();
            s.encode(&mut buf);
            assert_eq!(buf, [0, 0], "{xs:?}");
        }
    }

    #[test]
    fn a_carry_pass_keeps_the_sum() {
        let mut s = ExactSum::new();
        for x in [4294967295.0, -1e-300, 1e300, -3.5, 5e-324, -1e300, -0.75] {
            s.add(x);
            s.add(x);
        }
        let before = round_trip(&s);
        s.carry();
        assert_eq!(s, before);
        assert_eq!(s.load, 1);
        // A top word past 2³² moves its high part one digit up.
        let mut wide = ExactSum::new();
        wide.set_window(33, 2);
        wide.load = 1;
        wide.window_mut().copy_from_slice(&[-5, -(1 << 40)]);
        let before = wide.value();
        wide.carry();
        assert_eq!(wide.window().len(), 3);
        assert_eq!(wide.value(), before);
        assert!(before < 0.0);
        // Merged loads carry before any word can overflow.
        let mut loaded = sum(&[4294967295.0; 3]);
        loaded.load = CARRY_AT - 1;
        let mut acc = ExactSum::new();
        for _ in 0..5 {
            acc.merge(&loaded);
            assert!(acc.load < CARRY_AT);
        }
        assert_eq!(acc.value(), 4294967295.0 * 15.0);
    }

    #[test]
    fn small_windows_stay_inline() {
        let mut s = ExactSum::new();
        for i in 0..10_000 {
            s.add(0.01 * (i % 10_000) as f64);
        }
        assert!(s.heap.is_empty());
        s.add(1e-300);
        assert!(!s.heap.is_empty());
    }

    #[test]
    fn decode_rejects_what_encode_never_writes() {
        let bad: [&[u8]; 6] = [
            &[8, 0],                      // unknown flag
            &[NEGATIVE, 0],               // negative zero
            &[0, 1, 67, 1, 0, 0, 0],      // the last digit... fits
            &[0, 1, 68, 1, 0, 0, 0],      // ...past it does not
            &[0, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0], // zero top digit
            &[0, 0x80, 0x80, 0x80, 0x80, 0x0F], // a u32::MAX digit count
        ];
        for (i, bytes) in bad.iter().enumerate() {
            let r = ExactSum::decode(&mut Decoder::new(bytes));
            if i == 2 {
                assert!(r.is_ok());
            } else {
                assert!(matches!(r, Err(DgfError::Corrupt(_))), "case {i}: {r:?}");
            }
        }
    }

    /// An independent exact reference: the sum as a two's-complement
    /// integer of 2⁻¹⁰⁷⁴ units in 64-bit limbs, rounded bit by bit.
    fn reference(xs: &[f64]) -> f64 {
        const LIMBS: usize = 40;
        let (mut pos, mut neg) = (false, false);
        let mut limbs = [0u64; LIMBS];
        for &x in xs {
            if x.is_infinite() {
                *(if x > 0.0 { &mut pos } else { &mut neg }) = true;
                continue;
            }
            let bits = x.to_bits();
            let e = (bits >> 52) & 0x7FF;
            let frac = bits & ((1 << 52) - 1);
            let (m, shift) = if e == 0 { (frac, 0) } else { (frac | 1 << 52, e - 1) };
            // Add or subtract m · 2^shift, limb by limb.
            let mut addend = [0u64; LIMBS];
            let (l, b) = ((shift / 64) as usize, shift % 64);
            addend[l] = m << b;
            if b > 0 {
                addend[l + 1] = m >> (64 - b);
            }
            if bits >> 63 == 1 {
                let mut carry = 1u64;
                for a in &mut addend {
                    let (v, c) = (!*a).overflowing_add(carry);
                    *a = v;
                    carry = c as u64;
                }
            }
            let mut carry = false;
            for (t, a) in limbs.iter_mut().zip(addend) {
                let (v, c1) = t.overflowing_add(a);
                let (v, c2) = v.overflowing_add(carry as u64);
                *t = v;
                carry = c1 || c2;
            }
        }
        match (pos, neg) {
            (true, true) => return f64::NAN,
            (true, false) => return f64::INFINITY,
            (false, true) => return f64::NEG_INFINITY,
            _ => {}
        }
        let negative = limbs[LIMBS - 1] >> 63 == 1;
        if negative {
            let mut carry = 1u64;
            for t in &mut limbs {
                let (v, c) = (!*t).overflowing_add(carry);
                *t = v;
                carry = c as u64;
            }
        }
        let bit = |i: i64| i >= 0 && (limbs[i as usize / 64] >> (i % 64)) & 1 == 1;
        let Some(p) = (0..64 * LIMBS as i64).rev().find(|i| bit(*i)) else {
            return 0.0;
        };
        let magnitude = if p < 53 {
            // Subnormal or the lowest binade: the integer is the pattern.
            f64::from_bits((0..=p).fold(0, |n, i| n | (bit(i) as u64) << i))
        } else {
            let mut m = (p - 52..=p).rev().fold(0u64, |n, i| n << 1 | bit(i) as u64);
            let round = bit(p - 53);
            let sticky = (0..p - 53).any(bit);
            let mut top = p;
            if round && (sticky || m & 1 == 1) {
                m += 1;
                if m == 1 << 53 {
                    m >>= 1;
                    top += 1;
                }
            }
            // Value m · 2^(top − 52 − 1074): biased exponent top − 51.
            let exponent = top - 51;
            if exponent >= 0x7FF {
                f64::INFINITY
            } else {
                f64::from_bits((exponent as u64) << 52 | (m & ((1 << 52) - 1)))
            }
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    /// A double from each class a sum can meet: zeros, subnormals,
    /// values near the top of the range (which cancel), infinities
    /// (rarely) and values at mixed exponents.
    fn double_of(seed: u64) -> f64 {
        let sign = if seed & 1 == 1 { -1.0 } else { 1.0 };
        let r = seed >> 8;
        let x = match (seed >> 1) % 16 {
            0 => 0.0,
            1 => f64::from_bits(r & ((1 << 52) - 1)),
            2 => 1e308,
            3 => f64::MAX,
            4 if seed.is_multiple_of(7) => f64::INFINITY,
            5 => f64::MIN_POSITIVE,
            6..=9 => (r % 10_000) as f64 / 100.0,
            _ => f64::from_bits(r % 0x7FF0_0000_0000_0000),
        };
        sign * x
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn encoded(s: &ExactSum) -> Vec<u8> {
            let mut buf = Vec::new();
            s.encode(&mut buf);
            buf
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any permutation and any grouping of a multiset merges to
            /// the same encoded bytes and the reference's bits.
            #[test]
            fn any_order_and_grouping_is_the_exact_sum(
                seeds in prop::collection::vec(any::<u64>(), 0..48),
                order in any::<u64>(),
            ) {
                let xs: Vec<f64> = seeds.iter().map(|s| double_of(*s)).collect();
                let want = reference(&xs);
                let straight = sum(&xs);
                prop_assert_eq!(straight.value().to_bits(), want.to_bits());

                let mut rng = StdRng::seed_from_u64(order);
                let mut shuffled = xs.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.random_range(0..=i));
                }
                // Cut into runs, some through the header encoding, then
                // merge random pairs until one partial is left.
                let mut parts: Vec<ExactSum> = Vec::new();
                let mut rest = &shuffled[..];
                while !rest.is_empty() {
                    let (run, tail) = rest.split_at(rng.random_range(1..=rest.len()));
                    let part = sum(run);
                    parts.push(if rng.random_range(0..2) == 0 { round_trip(&part) } else { part });
                    rest = tail;
                }
                parts.push(ExactSum::new());
                while parts.len() > 1 {
                    let a = parts.swap_remove(rng.random_range(0..parts.len()));
                    let i = rng.random_range(0..parts.len());
                    parts[i].merge(&a);
                }
                let grouped = &parts[0];
                prop_assert_eq!(grouped.value().to_bits(), want.to_bits());
                prop_assert_eq!(encoded(grouped), encoded(&straight));
                prop_assert!(*grouped == straight);
            }
        }
    }
}
