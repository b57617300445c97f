//! Arbitrary-precision natural numbers used for bag multiplicities.
//!
//! Proposition 3.2 of the paper shows that two consecutive applications of
//! the powerset operator `P` followed by two `δ` (bag-destroy) multiply
//! duplicate counts hyper-exponentially: even a single iterate of
//! `δδPP` on a ten-element bag overflows `u128`. Multiplicities therefore
//! need exact arithmetic — but the overwhelming majority of multiplicities
//! the evaluator touches are tiny, so the representation is inline-small:
//! a single `u64` word with no heap allocation, spilling to little-endian
//! `u64` limbs only when a result exceeds `u64::MAX`. `zero()`, `one()`,
//! `+`, `×`, monus, min and max are allocation-free in the all-small case.
//!
//! Only the operations the algebra needs are provided: addition (`∪⁺`),
//! monus — truncated subtraction — (`−`), multiplication (`×`), min/max
//! (`∩` / `∪`), exponentiation and binomials (powerset / powerbag
//! cardinality predictions), and decimal conversion for reporting.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign, Sub};
use std::str::FromStr;

/// An arbitrary-precision natural number (`ℕ`, including zero).
///
/// Values up to `u64::MAX` are stored inline; larger values spill to
/// little-endian `u64` limbs with no trailing zero limbs (so a spilled
/// value always has ≥ 2 limbs). The representation is canonical — every
/// number has exactly one encoding — so the derived `PartialEq`/`Hash`
/// agree with numeric equality.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Natural(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// The value itself, for everything that fits a machine word.
    Small(u64),
    /// Little-endian limbs. Invariant: `len ≥ 2` and the top limb is
    /// nonzero, i.e. the value is strictly greater than `u64::MAX`.
    /// Boxed so `Natural` stays two words — multiplicities are copied into
    /// and out of map entries constantly, and almost all of them are small;
    /// the double indirection is paid only by already-huge values.
    #[allow(clippy::box_collection)]
    Big(Box<Vec<u64>>),
}

impl Default for Natural {
    fn default() -> Self {
        Natural::zero()
    }
}

impl Natural {
    /// The number zero.
    pub const fn zero() -> Self {
        Natural(Repr::Small(0))
    }

    /// The number one.
    pub const fn one() -> Self {
        Natural(Repr::Small(1))
    }

    /// `true` iff this is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// `true` iff this is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Canonicalize a little-endian limb vector (used by the slow paths).
    fn from_limbs(mut limbs: Vec<u64>) -> Natural {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match limbs.len() {
            0 => Natural::zero(),
            1 => Natural(Repr::Small(limbs[0])),
            _ => Natural(Repr::Big(Box::new(limbs))),
        }
    }

    /// Canonical little-endian limb view for the WAL codec.
    pub(crate) fn limb_view(&self) -> &[u64] {
        self.limbs()
    }

    /// Rebuild from a little-endian limb vector (WAL decode path). The
    /// input need not be canonical; trailing zero limbs are stripped.
    pub(crate) fn from_limb_vec(limbs: Vec<u64>) -> Natural {
        Natural::from_limbs(limbs)
    }

    /// The little-endian limb view (empty for zero). The `Small` word is
    /// exposed as a one-limb slice so the multi-limb algorithms cover both
    /// representations.
    fn limbs(&self) -> &[u64] {
        match &self.0 {
            Repr::Small(0) => &[],
            Repr::Small(v) => std::slice::from_ref(v),
            Repr::Big(limbs) => limbs,
        }
    }

    /// Number of significant bits (`0` for zero). This is the quantity the
    /// LOGSPACE argument of Theorem 4.4 tracks: counters written on the work
    /// tape use `bits()` space.
    pub fn bits(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&hi) => (limbs.len() as u64 - 1) * 64 + (64 - hi.leading_zeros() as u64),
        }
    }

    /// The value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Big(_) => None,
        }
    }

    /// The value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match &self.0 {
            Repr::Small(v) => Some(*v as u128),
            Repr::Big(limbs) if limbs.len() == 2 => {
                Some((limbs[1] as u128) << 64 | limbs[0] as u128)
            }
            Repr::Big(_) => None,
        }
    }

    /// The value as `f64` (saturating to `f64::INFINITY` on overflow).
    /// Used only for reporting growth curves.
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs().iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
            if acc.is_infinite() {
                return f64::INFINITY;
            }
        }
        acc
    }

    /// Checked subtraction: `Some(self - other)` if `other <= self`.
    pub fn checked_sub(&self, other: &Natural) -> Option<Natural> {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return a.checked_sub(*b).map(|d| Natural(Repr::Small(d)));
        }
        if self < other {
            return None;
        }
        let (a, b) = (self.limbs(), other.limbs());
        let mut limbs = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &lhs) in a.iter().enumerate() {
            let rhs = b.get(i).copied().unwrap_or(0);
            let (d1, b1) = lhs.overflowing_sub(rhs);
            let (d2, b2) = d1.overflowing_sub(borrow);
            borrow = (b1 || b2) as u64;
            limbs.push(d2);
        }
        debug_assert_eq!(borrow, 0);
        Some(Natural::from_limbs(limbs))
    }

    /// Monus (truncated subtraction): `max(0, self - other)`. This is the
    /// multiplicity arithmetic of the paper's bag subtraction `−`
    /// (`n = sup(0, p − q)`).
    pub fn monus(&self, other: &Natural) -> Natural {
        self.checked_sub(other).unwrap_or_default()
    }

    /// In-place doubling; used by powerset cardinality prediction.
    pub fn double(&mut self) {
        match &mut self.0 {
            Repr::Small(v) => match v.checked_mul(2) {
                Some(d) => *v = d,
                None => self.0 = Repr::Big(Box::new(vec![*v << 1, 1])),
            },
            Repr::Big(limbs) => {
                let mut carry = 0u64;
                for limb in limbs.iter_mut() {
                    let new_carry = *limb >> 63;
                    *limb = (*limb << 1) | carry;
                    carry = new_carry;
                }
                if carry != 0 {
                    limbs.push(carry);
                }
            }
        }
    }

    /// `self + 1`.
    pub fn succ(&self) -> Natural {
        if let Repr::Small(v) = self.0 {
            if let Some(s) = v.checked_add(1) {
                return Natural(Repr::Small(s));
            }
        }
        self + &Natural::one()
    }

    /// `2^exp`.
    pub fn pow2(exp: u64) -> Natural {
        if exp < 64 {
            return Natural(Repr::Small(1u64 << exp));
        }
        let mut limbs = vec![0u64; (exp / 64) as usize];
        limbs.push(1u64 << (exp % 64));
        Natural(Repr::Big(Box::new(limbs)))
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u64) -> Natural {
        let mut base = self.clone();
        let mut acc = Natural::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Multiply by a `u64` in place.
    pub fn mul_u64(&mut self, rhs: u64) {
        match &mut self.0 {
            Repr::Small(v) => {
                let prod = *v as u128 * rhs as u128;
                *self = Natural::from(prod);
            }
            Repr::Big(_) if rhs == 0 => *self = Natural::zero(),
            Repr::Big(limbs) => {
                let mut carry = 0u128;
                for limb in limbs.iter_mut() {
                    let prod = *limb as u128 * rhs as u128 + carry;
                    *limb = prod as u64;
                    carry = prod >> 64;
                }
                if carry != 0 {
                    limbs.push(carry as u64);
                }
            }
        }
    }

    /// Divide by a nonzero `u64`, returning `(quotient, remainder)`.
    pub fn divmod_u64(&self, rhs: u64) -> (Natural, u64) {
        assert!(rhs != 0, "division by zero");
        if let Repr::Small(v) = self.0 {
            return (Natural(Repr::Small(v / rhs)), v % rhs);
        }
        let limbs = self.limbs();
        let mut quot = vec![0u64; limbs.len()];
        let mut rem = 0u128;
        for i in (0..limbs.len()).rev() {
            let cur = (rem << 64) | limbs[i] as u128;
            quot[i] = (cur / rhs as u128) as u64;
            rem = cur % rhs as u128;
        }
        (Natural::from_limbs(quot), rem as u64)
    }

    /// Exact division by a nonzero `u64`; panics (debug) if inexact.
    pub fn div_exact_u64(&self, rhs: u64) -> Natural {
        let (q, r) = self.divmod_u64(rhs);
        debug_assert_eq!(r, 0, "div_exact_u64: inexact division");
        q
    }

    /// Binomial coefficient `C(n, k)` where `n` is arbitrary precision.
    ///
    /// The powerbag `P_b` creates `C(m, j)` occurrences of a subbag choosing
    /// `j` of `m` duplicate occurrences (Definition 5.1); this computes that
    /// multiplicity directly instead of materializing the renaming `H`.
    pub fn binomial(n: &Natural, k: u64) -> Natural {
        // C(n, k) = Π_{i=1..k} (n - k + i) / i, computed left to right so
        // every intermediate division is exact.
        if let Some(small) = n.to_u64() {
            if k > small {
                return Natural::zero();
            }
        }
        let mut acc = Natural::one();
        let mut factor = n.monus(&Natural::from(k));
        for i in 1..=k {
            factor += &Natural::one();
            acc = &acc * &factor;
            acc = acc.div_exact_u64(i);
        }
        acc
    }

    /// Decimal string, chunked through `u64` divisions.
    fn to_decimal(&self) -> String {
        if let Repr::Small(v) = self.0 {
            return v.to_string();
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divmod_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut out = chunks.pop().map(|c| c.to_string()).unwrap_or_default();
        for c in chunks.into_iter().rev() {
            out.push_str(&format!("{c:019}"));
        }
        out
    }
}

impl From<u64> for Natural {
    fn from(v: u64) -> Self {
        Natural(Repr::Small(v))
    }
}

impl From<u32> for Natural {
    fn from(v: u32) -> Self {
        Natural::from(v as u64)
    }
}

impl From<usize> for Natural {
    fn from(v: usize) -> Self {
        Natural::from(v as u64)
    }
}

impl From<u128> for Natural {
    fn from(v: u128) -> Self {
        if v <= u64::MAX as u128 {
            Natural(Repr::Small(v as u64))
        } else {
            Natural(Repr::Big(Box::new(vec![v as u64, (v >> 64) as u64])))
        }
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // A spilled value is strictly greater than any inline one.
            (Repr::Small(_), Repr::Big(_)) => Ordering::Less,
            (Repr::Big(_), Repr::Small(_)) => Ordering::Greater,
            (Repr::Big(a), Repr::Big(b)) => a
                .len()
                .cmp(&b.len())
                .then_with(|| a.iter().rev().cmp(b.iter().rev())),
        }
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Multi-limb addition over canonical limb views.
fn add_limbs(a: &[u64], b: &[u64]) -> Natural {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut limbs = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &lhs) in long.iter().enumerate() {
        let rhs = short.get(i).copied().unwrap_or(0);
        let (s1, c1) = lhs.overflowing_add(rhs);
        let (s2, c2) = s1.overflowing_add(carry);
        carry = (c1 || c2) as u64;
        limbs.push(s2);
    }
    if carry != 0 {
        limbs.push(carry);
    }
    Natural::from_limbs(limbs)
}

impl Add<&Natural> for &Natural {
    type Output = Natural;
    fn add(self, rhs: &Natural) -> Natural {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return match a.checked_add(*b) {
                Some(sum) => Natural(Repr::Small(sum)),
                None => Natural(Repr::Big(Box::new(vec![a.wrapping_add(*b), 1]))),
            };
        }
        add_limbs(self.limbs(), rhs.limbs())
    }
}

impl Add for Natural {
    type Output = Natural;
    fn add(self, rhs: Natural) -> Natural {
        &self + &rhs
    }
}

impl AddAssign<&Natural> for Natural {
    fn add_assign(&mut self, rhs: &Natural) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            if let Some(sum) = a.checked_add(*b) {
                self.0 = Repr::Small(sum);
                return;
            }
        }
        *self = &*self + rhs;
    }
}

impl Sub<&Natural> for &Natural {
    type Output = Natural;
    /// Monus semantics: saturates at zero, matching bag subtraction.
    fn sub(self, rhs: &Natural) -> Natural {
        self.monus(rhs)
    }
}

impl Mul<&Natural> for &Natural {
    type Output = Natural;
    fn mul(self, rhs: &Natural) -> Natural {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return Natural::from(*a as u128 * *b as u128);
        }
        if self.is_zero() || rhs.is_zero() {
            return Natural::zero();
        }
        let (a, b) = (self.limbs(), rhs.limbs());
        let mut limbs = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = limbs[i + j] as u128 + x as u128 * y as u128 + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = limbs[k] as u128 + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Natural::from_limbs(limbs)
    }
}

impl Mul for Natural {
    type Output = Natural;
    fn mul(self, rhs: Natural) -> Natural {
        &self * &rhs
    }
}

impl MulAssign<&Natural> for Natural {
    fn mul_assign(&mut self, rhs: &Natural) {
        *self = &*self * rhs;
    }
}

impl Sum for Natural {
    fn sum<I: Iterator<Item = Natural>>(iter: I) -> Natural {
        iter.fold(Natural::zero(), |mut acc, x| {
            acc += &x;
            acc
        })
    }
}

impl<'a> Sum<&'a Natural> for Natural {
    fn sum<I: Iterator<Item = &'a Natural>>(iter: I) -> Natural {
        iter.fold(Natural::zero(), |mut acc, x| {
            acc += x;
            acc
        })
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal())
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Error parsing a decimal string into a [`Natural`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNaturalError;

impl fmt::Display for ParseNaturalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid decimal natural number")
    }
}

impl std::error::Error for ParseNaturalError {}

impl FromStr for Natural {
    type Err = ParseNaturalError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseNaturalError);
        }
        let mut acc = Natural::zero();
        for b in s.bytes() {
            acc.mul_u64(10);
            acc += &Natural::from((b - b'0') as u64);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert!(Natural::zero().is_zero());
        assert_eq!(Natural::from(0u64), Natural::zero());
        assert_eq!(Natural::zero().bits(), 0);
        assert_eq!(n(5).monus(&n(9)), Natural::zero());
    }

    #[test]
    fn small_values_stay_inline() {
        // Everything through u64::MAX is the Small representation; one past
        // it spills to two limbs. from_limbs collapses back down.
        assert!(matches!(Natural::from(u64::MAX).0, Repr::Small(_)));
        let spilled = &Natural::from(u64::MAX) + &n(1);
        assert!(matches!(&spilled.0, Repr::Big(l) if l.len() == 2));
        let back = spilled.monus(&n(1));
        assert!(matches!(back.0, Repr::Small(u64::MAX)));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let max = Natural::from(u64::MAX);
        let sum = &max + &n(1);
        assert_eq!(sum.to_u128(), Some(u64::MAX as u128 + 1));
        assert_eq!(sum.bits(), 65);
    }

    #[test]
    fn sub_monus_semantics() {
        assert_eq!(n(10).monus(&n(3)), n(7));
        assert_eq!(n(3).monus(&n(10)), n(0));
        let big = Natural::pow2(200);
        let small = Natural::pow2(100);
        let diff = big.monus(&small);
        assert_eq!(&diff + &small, Natural::pow2(200));
    }

    #[test]
    fn checked_sub_none_when_underflow() {
        assert_eq!(n(3).checked_sub(&n(4)), None);
        assert_eq!(n(4).checked_sub(&n(4)), Some(n(0)));
        // Mixed-representation borrows around the spill boundary.
        let boundary = &Natural::from(u64::MAX) + &n(1);
        assert_eq!(boundary.checked_sub(&n(1)), Some(Natural::from(u64::MAX)));
        assert_eq!(n(1).checked_sub(&boundary), None);
    }

    #[test]
    fn mul_matches_u128() {
        let a = 123_456_789_012_345u64;
        let b = 987_654_321_098_765u64;
        let prod = &n(a) * &n(b);
        assert_eq!(prod.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn mul_large() {
        // (2^100)^2 = 2^200
        let x = Natural::pow2(100);
        assert_eq!(&x * &x, Natural::pow2(200));
    }

    #[test]
    fn pow_and_pow2_agree() {
        assert_eq!(n(2).pow(77), Natural::pow2(77));
        assert_eq!(n(3).pow(5), n(243));
        assert_eq!(n(10).pow(0), n(1));
        assert_eq!(n(0).pow(0), n(1)); // convention: 0^0 = 1
        assert_eq!(n(0).pow(3), n(0));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(n(5) < n(6));
        assert!(Natural::pow2(64) > Natural::from(u64::MAX));
        assert!(Natural::pow2(128) > Natural::pow2(127));
        let mut v = [Natural::pow2(70), n(3), Natural::pow2(64), n(0)];
        v.sort();
        assert_eq!(v[0], n(0));
        assert_eq!(v[3], Natural::pow2(70));
    }

    #[test]
    fn divmod_roundtrip() {
        let x = Natural::from_str("123456789012345678901234567890").unwrap();
        let (q, r) = x.divmod_u64(97);
        let mut back = q;
        back.mul_u64(97);
        back += &Natural::from(r);
        assert_eq!(back, x);
        assert!(r < 97);
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in [
            "0",
            "1",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ] {
            let x = Natural::from_str(s).unwrap();
            assert_eq!(x.to_string(), s);
        }
        assert!(Natural::from_str("").is_err());
        assert!(Natural::from_str("12a").is_err());
    }

    #[test]
    fn binomial_small_cases() {
        assert_eq!(Natural::binomial(&n(5), 2), n(10));
        assert_eq!(Natural::binomial(&n(5), 0), n(1));
        assert_eq!(Natural::binomial(&n(5), 5), n(1));
        assert_eq!(Natural::binomial(&n(5), 6), n(0));
        assert_eq!(Natural::binomial(&n(52), 5), n(2_598_960));
    }

    #[test]
    fn binomial_row_sums_to_pow2() {
        // Σ_j C(m, j) = 2^m — the powerbag cardinality identity used in E3.
        for m in [0u64, 1, 7, 20] {
            let total: Natural = (0..=m).map(|j| Natural::binomial(&n(m), j)).sum();
            assert_eq!(total, Natural::pow2(m));
        }
    }

    #[test]
    fn bits_counts_significant_bits() {
        assert_eq!(n(1).bits(), 1);
        assert_eq!(n(255).bits(), 8);
        assert_eq!(n(256).bits(), 9);
        assert_eq!(Natural::pow2(64).bits(), 65);
    }

    #[test]
    fn double_and_succ() {
        let mut x = n(3);
        x.double();
        assert_eq!(x, n(6));
        let mut y = Natural::from(u64::MAX);
        y.double();
        assert_eq!(y.to_u128(), Some(u64::MAX as u128 * 2));
        assert_eq!(n(0).succ(), n(1));
        assert_eq!(
            Natural::from(u64::MAX).succ().to_u128(),
            Some(u64::MAX as u128 + 1)
        );
    }

    #[test]
    fn sum_iterator() {
        let total: Natural = (1..=10u64).map(Natural::from).sum();
        assert_eq!(total, n(55));
    }

    #[test]
    fn to_f64_reports_magnitude() {
        assert_eq!(n(42).to_f64(), 42.0);
        let big = Natural::pow2(100);
        let approx = big.to_f64();
        assert!((approx / 2f64.powi(100) - 1.0).abs() < 1e-10);
        assert_eq!(Natural::pow2(5000).to_f64(), f64::INFINITY);
    }
}
