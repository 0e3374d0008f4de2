//! Arbitrary-precision signed integers.
//!
//! Sign-magnitude representation with little-endian `u64` limbs. The
//! magnitude never has trailing zero limbs and `sign == 0` iff the magnitude
//! is empty, so equality and hashing can be derived structurally.
//!
//! The implementation favours correctness over asymptotic speed: big
//! integers appear only where a [`crate::Rational`] leaves the `i64` range
//! (for instance in the `lp` crate's rational restart of a simplex solve
//! whose `i64` arithmetic overflowed), and such numbers stay small (tens
//! of digits), so schoolbook multiplication and binary long division are
//! more than adequate.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    /// -1, 0 or 1; zero iff `mag` is empty.
    sign: i8,
    /// Little-endian base-2^64 magnitude without trailing zero limbs.
    mag: Vec<u64>,
}

fn trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

#[allow(clippy::needless_range_loop)]
fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = short.get(i).copied().unwrap_or(0);
        let (x, c1) = long[i].overflowing_add(s);
        let (x, c2) = x.overflowing_add(carry);
        carry = (c1 as u64) + (c2 as u64);
        out.push(x);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Requires `a >= b` (by magnitude).
#[allow(clippy::needless_range_loop)]
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let s = b.get(i).copied().unwrap_or(0);
        let (x, b1) = a[i].overflowing_sub(s);
        let (x, b2) = x.overflowing_sub(borrow);
        borrow = (b1 as u64) + (b2 as u64);
        out.push(x);
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

fn mag_bits(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => 64 * (a.len() - 1) + (64 - top.leading_zeros() as usize),
    }
}

fn mag_bit(a: &[u64], i: usize) -> bool {
    let limb = i / 64;
    let off = i % 64;
    limb < a.len() && (a[limb] >> off) & 1 == 1
}

/// Shift-subtract binary long division of magnitudes; returns `(q, r)` with
/// `a = q*b + r` and `0 <= r < b`. Panics if `b` is zero.
fn mag_divrem(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero");
    if mag_cmp(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    let n = mag_bits(a);
    let mut q = vec![0u64; a.len()];
    let mut r: Vec<u64> = Vec::new();
    for i in (0..n).rev() {
        // r = (r << 1) | bit(a, i)
        let mut carry = u64::from(mag_bit(a, i));
        for limb in r.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            r.push(carry);
        }
        if mag_cmp(&r, b) != Ordering::Less {
            r = mag_sub(&r, b);
            q[i / 64] |= 1 << (i % 64);
        }
    }
    trim(&mut q);
    trim(&mut r);
    (q, r)
}

impl BigInt {
    /// The integer zero.
    pub fn zero() -> Self {
        BigInt {
            sign: 0,
            mag: Vec::new(),
        }
    }

    /// The integer one.
    pub fn one() -> Self {
        BigInt::from(1i64)
    }

    /// Returns true iff this is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == 0
    }

    /// Returns true iff this is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign < 0
    }

    /// Returns true iff this is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign > 0
    }

    /// The sign as -1, 0 or 1.
    pub fn signum(&self) -> i8 {
        self.sign
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt {
            sign: self.sign.abs(),
            mag: self.mag.clone(),
        }
    }

    fn from_mag(sign: i8, mut mag: Vec<u64>) -> BigInt {
        trim(&mut mag);
        if mag.is_empty() {
            BigInt::zero()
        } else {
            BigInt { sign, mag }
        }
    }

    /// Truncated division with remainder: `self = q * rhs + r`, `|r| < |rhs|`,
    /// `r` has the sign of `self` (or is zero).
    pub fn div_rem(&self, rhs: &BigInt) -> (BigInt, BigInt) {
        assert!(!rhs.is_zero(), "division by zero");
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (q, r) = mag_divrem(&self.mag, &rhs.mag);
        (
            BigInt::from_mag(self.sign * rhs.sign, q),
            BigInt::from_mag(self.sign, r),
        )
    }

    /// Greatest common divisor of the absolute values; `gcd(0, 0) = 0`.
    pub fn gcd(&self, rhs: &BigInt) -> BigInt {
        let mut a = self.mag.clone();
        let mut b = rhs.mag.clone();
        while !b.is_empty() {
            let (_, r) = mag_divrem(&a, &b);
            a = b;
            b = r;
        }
        BigInt::from_mag(if a.is_empty() { 0 } else { 1 }, a)
    }

    /// Converts to `f64`, saturating for huge magnitudes.
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.mag.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if self.sign < 0 {
            -v
        } else {
            v
        }
    }

    /// Returns `Some(i64)` when the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.mag.len() {
            0 => Some(0),
            1 => {
                let m = self.mag[0];
                if self.sign > 0 && m <= i64::MAX as u64 {
                    Some(m as i64)
                } else if self.sign < 0 && m <= (i64::MAX as u64) + 1 {
                    Some(-(m as i128) as i64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// `self^exp` by repeated squaring.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: 1,
                mag: vec![v as u64],
            },
            Ordering::Less => BigInt {
                sign: -1,
                mag: vec![(v as i128).unsigned_abs() as u64],
            },
        }
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigInt::zero()
        } else {
            BigInt {
                sign: 1,
                mag: vec![v],
            }
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> Self {
        BigInt::from(v as u64)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let sign: i8 = match v.cmp(&0) {
            Ordering::Equal => return BigInt::zero(),
            Ordering::Greater => 1,
            Ordering::Less => -1,
        };
        let m = v.unsigned_abs();
        BigInt::from_mag(sign, vec![m as u64, (m >> 64) as u64])
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => {}
            ord => return ord,
        }
        let mag = mag_cmp(&self.mag, &other.mag);
        if self.sign < 0 {
            mag.reverse()
        } else {
            mag
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = -self.sign;
        self
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: -self.sign,
            mag: self.mag.clone(),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        if self.sign == rhs.sign {
            BigInt::from_mag(self.sign, mag_add(&self.mag, &rhs.mag))
        } else {
            match mag_cmp(&self.mag, &rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_mag(self.sign, mag_sub(&self.mag, &rhs.mag)),
                Ordering::Less => BigInt::from_mag(rhs.sign, mag_sub(&rhs.mag, &self.mag)),
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::from_mag(self.sign * rhs.sign, mag_mul(&self.mag, &rhs.mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.mag.clone();
        let ten = vec![10u64];
        while !cur.is_empty() {
            let (q, r) = mag_divrem(&cur, &ten);
            digits.push(char::from(b'0' + r.first().copied().unwrap_or(0) as u8));
            cur = q;
        }
        if self.sign < 0 {
            write!(f, "-")?;
        }
        for d in digits.iter().rev() {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for BigInt {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, body) = match s.strip_prefix('-') {
            Some(rest) => (-1i8, rest),
            None => (1i8, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() {
            return Err("empty integer literal".into());
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10i64);
        for ch in body.chars() {
            let d = ch.to_digit(10).ok_or_else(|| format!("bad digit {ch:?}"))?;
            acc = &(&acc * &ten) + &BigInt::from(d as i64);
        }
        if sign < 0 {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(b(2) + b(3), b(5));
        assert_eq!(b(-2) + b(3), b(1));
        assert_eq!(b(2) - b(3), b(-1));
        assert_eq!(b(-4) * b(5), b(-20));
        assert_eq!(b(0) * b(5), b(0));
        assert_eq!(b(7) / b(2), b(3));
        assert_eq!(b(7) % b(2), b(1));
        assert_eq!(b(-7) / b(2), b(-3));
        assert_eq!(b(-7) % b(2), b(-1));
    }

    #[test]
    fn large_multiplication_and_division() {
        let big = BigInt::from(u64::MAX) * BigInt::from(u64::MAX);
        let expected: BigInt = "340282366920938463426481119284349108225".parse().unwrap();
        assert_eq!(big, expected);
        let (q, r) = expected.div_rem(&BigInt::from(u64::MAX));
        assert_eq!(q, BigInt::from(u64::MAX));
        assert!(r.is_zero());
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "0",
            "1",
            "-1",
            "123456789012345678901234567890",
            "-987654321",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn gcd_matches_euclid() {
        assert_eq!(b(48).gcd(&b(18)), b(6));
        assert_eq!(b(-48).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(0).gcd(&b(0)), b(0));
    }

    #[test]
    fn ordering_spans_signs() {
        assert!(b(-5) < b(-1));
        assert!(b(-1) < b(0));
        assert!(b(0) < b(3));
        let big: BigInt = "123456789012345678901234567890".parse().unwrap();
        assert!(b(i64::MAX) < big);
        assert!(-&big < b(i64::MIN));
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(b(2).pow(10), b(1024));
        assert_eq!(b(3).pow(0), b(1));
        assert_eq!(b(-2).pow(3), b(-8));
        assert_eq!(b(10).pow(20).to_string(), "100000000000000000000");
    }

    #[test]
    fn i128_conversion() {
        let v = BigInt::from(i128::MAX);
        assert_eq!(v.to_string(), i128::MAX.to_string());
        let w = BigInt::from(i128::MIN + 1);
        assert_eq!(w.to_string(), (i128::MIN + 1).to_string());
    }

    #[test]
    fn to_i64_boundaries() {
        assert_eq!(b(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(b(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!((b(i64::MAX) + b(1)).to_i64(), None);
        assert_eq!(b(0).to_i64(), Some(0));
    }
}
