//! Exact rational numbers with an inline small-value fast path.
//!
//! Values are kept normalized: the denominator is strictly positive and
//! `gcd(|num|, den) == 1` (zero is `0/1`), so structural equality and hashing
//! coincide with numeric equality.
//!
//! # Representation
//!
//! The overwhelmingly common case is a rational whose numerator and
//! denominator both fit an `i64` — widths, cover weights and the values the
//! `lp` crate's simplex reads off its tableau stay tiny. (That simplex
//! pivots integral programs on `i64` entries and uses `Rational` entries
//! only for rational data and overflow restarts.) Those values are stored
//! inline as [`Repr::Small`] and never touch the heap: the four field
//! operations run on `i128` intermediates (two `i64` products can never
//! overflow `i128`), normalize with a machine-word gcd, and only *promote*
//! to the
//! [`BigInt`]-backed [`Repr::Big`] when a reduced component falls outside
//! the `i64` range. Promotion is exact and canonical in the other direction
//! too: any `Big` whose reduced components fit `i64` is demoted on
//! construction, so the representation of a value is unique and the derived
//! `Eq`/`Hash` remain structural.

use crate::bigint::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// This is the width type of the library: fractional hypertree widths are
/// genuinely rational (e.g. `fhw(C3) = 3/2`, `rho*` of Example 5.1 is
/// `2 - 1/n`) and the NP-hardness analysis of the paper depends on exact
/// ties between fractional weights, so floating point is not an option.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

/// Canonical two-tier storage: `Small` iff both reduced components fit
/// `i64` (denominator positive, gcd 1), `Big` otherwise. The invariant
/// makes the representation of every value unique, so the derived
/// structural `Eq`/`Hash` agree with numeric equality.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i64, i64),
    Big(Box<(BigInt, BigInt)>),
}

/// `gcd(|a|, |b|)` over machine words. The inputs come from `i128`
/// products of `i64`s, so `unsigned_abs` never overflows.
fn gcd_i128(a: i128, b: i128) -> u128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Builds the canonical rational for `num/den` with `den > 0`, both in the
/// range reachable by products/sums of `i64` pairs (no `i128` overflow).
fn make_small(num: i128, den: i128) -> Rational {
    debug_assert!(den > 0);
    let (num, den) = if num == 0 {
        (0, 1)
    } else {
        let g = gcd_i128(num, den) as i128;
        (num / g, den / g)
    };
    match (i64::try_from(num), i64::try_from(den)) {
        (Ok(n), Ok(d)) => Rational {
            repr: Repr::Small(n, d),
        },
        _ => Rational {
            repr: Repr::Big(Box::new((BigInt::from(num), BigInt::from(den)))),
        },
    }
}

/// Builds the canonical rational for a reduced `num/den` with `den > 0`
/// (demoting to `Small` when both components fit `i64`).
fn make_big_reduced(num: BigInt, den: BigInt) -> Rational {
    debug_assert!(den.is_positive());
    match (num.to_i64(), den.to_i64()) {
        (Some(n), Some(d)) => Rational {
            repr: Repr::Small(n, d),
        },
        _ => Rational {
            repr: Repr::Big(Box::new((num, den))),
        },
    }
}

/// Normalizes an arbitrary `num/den` over [`BigInt`] (the slow path).
fn make_big(num: BigInt, den: BigInt) -> Rational {
    assert!(!den.is_zero(), "rational with zero denominator");
    let (num, den) = if den.is_negative() {
        (-num, -den)
    } else {
        (num, den)
    };
    if num.is_zero() {
        return Rational::zero();
    }
    let g = num.gcd(&den);
    if g == BigInt::one() {
        make_big_reduced(num, den)
    } else {
        make_big_reduced(&num / &g, &den / &g)
    }
}

impl Rational {
    /// Builds a rational from numerator and denominator, normalizing.
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        match (num.to_i64(), den.to_i64()) {
            (Some(n), Some(d)) => Rational::from_frac(n, d),
            _ => make_big(num, den),
        }
    }

    /// `p/q` from machine integers. Panics if `q == 0`.
    pub fn from_frac(p: i64, q: i64) -> Self {
        assert!(q != 0, "rational with zero denominator");
        let (num, den) = if q < 0 {
            (-(p as i128), -(q as i128))
        } else {
            (p as i128, q as i128)
        };
        make_small(num, den)
    }

    /// The integer `v` as a rational.
    pub fn from_int(v: i64) -> Self {
        Rational {
            repr: Repr::Small(v, 1),
        }
    }

    /// Zero.
    pub fn zero() -> Self {
        Rational::from_int(0)
    }

    /// One.
    pub fn one() -> Self {
        Rational::from_int(1)
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, _) => BigInt::from(*n),
            Repr::Big(b) => b.0.clone(),
        }
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> BigInt {
        match &self.repr {
            Repr::Small(_, d) => BigInt::from(*d),
            Repr::Big(b) => b.1.clone(),
        }
    }

    /// The inline `(numerator, denominator)` pair when the value is stored
    /// small (always, unless a component exceeds the `i64` range).
    pub fn as_small(&self) -> Option<(i64, i64)> {
        match &self.repr {
            Repr::Small(n, d) => Some((*n, *d)),
            Repr::Big(_) => None,
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n == 0,
            Repr::Big(b) => b.0.is_zero(),
        }
    }

    /// True iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n < 0,
            Repr::Big(b) => b.0.is_negative(),
        }
    }

    /// True iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n > 0,
            Repr::Big(b) => b.0.is_positive(),
        }
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small(_, d) => *d == 1,
            Repr::Big(b) => b.1 == BigInt::one(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        match &self.repr {
            Repr::Small(n, d) => make_small((*n as i128).abs(), *d as i128),
            Repr::Big(b) => make_big_reduced(b.0.abs(), b.1.clone()),
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Small(n, d) => {
                let (n, d) = (*n as i128, *d as i128);
                if n < 0 {
                    make_small(-d, -n)
                } else {
                    make_small(d, n)
                }
            }
            Repr::Big(b) => {
                if b.0.is_negative() {
                    make_big_reduced(-&b.1, -&b.0)
                } else {
                    make_big_reduced(b.1.clone(), b.0.clone())
                }
            }
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, d) => BigInt::from((*n as i128).div_euclid(*d as i128)),
            Repr::Big(b) => {
                let (q, r) = b.0.div_rem(&b.1);
                if b.0.is_negative() && !r.is_zero() {
                    q - BigInt::one()
                } else {
                    q
                }
            }
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        -((-self).floor())
    }

    /// Approximate `f64` value (for reporting only — never for decisions).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(n, d) => *n as f64 / *d as f64,
            Repr::Big(b) => b.0.to_f64() / b.1.to_f64(),
        }
    }

    /// The smaller of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The `(num, den)` pair as big integers (slow-path glue).
    fn to_big_parts(&self) -> (BigInt, BigInt) {
        match &self.repr {
            Repr::Small(n, d) => (BigInt::from(*n), BigInt::from(*d)),
            Repr::Big(b) => (b.0.clone(), b.1.clone()),
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Self {
        Rational::from_int(v as i64)
    }
}

impl From<usize> for Rational {
    fn from(v: usize) -> Self {
        match i64::try_from(v) {
            Ok(v) => Rational::from_int(v),
            Err(_) => make_big_reduced(BigInt::from(v), BigInt::one()),
        }
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        make_big_reduced(v, BigInt::one())
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        match (&self.repr, &other.repr) {
            (Repr::Small(a, b), Repr::Small(c, d)) => {
                (*a as i128 * *d as i128).cmp(&(*c as i128 * *b as i128))
            }
            _ => {
                let (an, ad) = self.to_big_parts();
                let (bn, bd) = other.to_big_parts();
                (&an * &bd).cmp(&(&bn * &ad))
            }
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.repr {
            Repr::Small(n, d) => make_small(-(n as i128), d as i128),
            Repr::Big(b) => make_big_reduced(-&b.0, b.1.clone()),
        }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.clone().neg()
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        match (&self.repr, &rhs.repr) {
            (Repr::Small(a, b), Repr::Small(c, d)) => {
                let (a, b, c, d) = (*a as i128, *b as i128, *c as i128, *d as i128);
                // |a*d + c*b| <= 2 * 2^63 * (2^63 - 1) < i128::MAX, and
                // b*d <= (2^63 - 1)^2: no overflow is possible.
                make_small(a * d + c * b, b * d)
            }
            _ => {
                let (an, ad) = self.to_big_parts();
                let (bn, bd) = rhs.to_big_parts();
                make_big(&an * &bd + &bn * &ad, &ad * &bd)
            }
        }
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        match (&self.repr, &rhs.repr) {
            (Repr::Small(a, b), Repr::Small(c, d)) => {
                let (a, b, c, d) = (*a as i128, *b as i128, *c as i128, *d as i128);
                make_small(a * d - c * b, b * d)
            }
            _ => self + &(-rhs),
        }
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        match (&self.repr, &rhs.repr) {
            (Repr::Small(a, b), Repr::Small(c, d)) => {
                make_small(*a as i128 * *c as i128, *b as i128 * *d as i128)
            }
            _ => {
                let (an, ad) = self.to_big_parts();
                let (bn, bd) = rhs.to_big_parts();
                make_big(&an * &bn, &ad * &bd)
            }
        }
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        match (&self.repr, &rhs.repr) {
            (Repr::Small(a, b), Repr::Small(c, d)) => {
                let (a, b, c, d) = (*a as i128, *b as i128, *c as i128, *d as i128);
                if c < 0 {
                    make_small(a * -d, b * -c)
                } else {
                    make_small(a * d, b * c)
                }
            }
            _ => {
                let (an, ad) = self.to_big_parts();
                let (bn, bd) = rhs.to_big_parts();
                make_big(&an * &bd, &ad * &bn)
            }
        }
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| &acc + x)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(n, d) => {
                if *d == 1 {
                    write!(f, "{n}")
                } else {
                    write!(f, "{n}/{d}")
                }
            }
            Repr::Big(b) => {
                if b.1 == BigInt::one() {
                    write!(f, "{}", b.0)
                } else {
                    write!(f, "{}/{}", b.0, b.1)
                }
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Rational {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            Some((p, q)) => {
                let num: BigInt = p.trim().parse()?;
                let den: BigInt = q.trim().parse()?;
                if den.is_zero() {
                    return Err("zero denominator".into());
                }
                Ok(Rational::new(num, den))
            }
            None => Ok(Rational::from(s.trim().parse::<BigInt>()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Rational {
        Rational::from_frac(p, q)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 7), Rational::zero());
        assert_eq!(r(0, 7).denom(), BigInt::one());
    }

    #[test]
    fn field_operations() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(1, 2).recip(), r(2, 1));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::one());
        assert!(r(2, 1).max(r(3, 2)) == r(2, 1));
        assert!(r(2, 1).min(r(3, 2)) == r(3, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(4, 2).floor(), BigInt::from(2i64));
        assert_eq!(r(4, 2).ceil(), BigInt::from(2i64));
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("-6/8".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("5".parse::<Rational>().unwrap(), r(5, 1));
        assert_eq!(r(3, 4).to_string(), "3/4");
        assert_eq!(r(4, 2).to_string(), "2");
    }

    #[test]
    fn sums() {
        // Example 5.1: n edges of weight 1/n plus one of weight 1 - 1/n
        // total 2 - 1/n.
        let n = 7i64;
        let total: Rational = (0..n)
            .map(|_| r(1, n))
            .chain(std::iter::once(Rational::one() - r(1, n)))
            .sum();
        assert_eq!(total, Rational::from_int(2) - r(1, n));
    }

    #[test]
    fn to_f64_is_close() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r(-22, 7).to_f64() + 22.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn small_values_stay_inline() {
        assert!(r(3, 2).as_small().is_some());
        assert!((r(1, 3) + r(1, 2)).as_small().is_some());
        assert_eq!(r(-6, 8).as_small(), Some((-3, 4)));
        assert_eq!(Rational::from_int(i64::MIN).as_small(), Some((i64::MIN, 1)));
    }

    #[test]
    fn overflow_promotes_and_demotes_canonically() {
        let huge = Rational::from_int(i64::MAX);
        // (2^63 - 1)^2 does not fit an i64: the product must promote.
        let sq = &huge * &huge;
        assert!(sq.as_small().is_none());
        assert_eq!(
            sq.to_string(),
            (i64::MAX as i128 * i64::MAX as i128).to_string()
        );
        // Dividing back demotes to the inline representation.
        let back = &sq / &huge;
        assert_eq!(back.as_small(), Some((i64::MAX, 1)));
        assert_eq!(back, huge);
        // A big-denominator value round-trips through negation.
        let tiny = Rational::one() / &sq;
        assert!(tiny.as_small().is_none());
        assert_eq!(-(-tiny.clone()), tiny);
    }

    #[test]
    fn mixed_repr_arithmetic_agrees() {
        let big = Rational::from_int(i64::MAX) * Rational::from_int(4);
        let small = r(1, 2);
        assert_eq!(
            &big * &small,
            Rational::from_int(i64::MAX) * Rational::from_int(2)
        );
        assert_eq!(&(&big + &small) - &big, small);
        assert!(big > small);
        assert!((&big / &big).as_small() == Some((1, 1)));
    }

    #[test]
    fn i64_min_edges() {
        let m = Rational::from_int(i64::MIN);
        assert_eq!((-&m).to_string(), "9223372036854775808");
        assert!((-&m).as_small().is_none());
        assert_eq!(m.abs(), -&m);
        assert_eq!(m.recip().to_string(), "-1/9223372036854775808");
        assert_eq!(&m + &(-&m), Rational::zero());
        assert_eq!(r(i64::MIN, i64::MIN), Rational::one());
    }
}
