//! Entry types of the fraction-free simplex tableau.
//!
//! The tableau stores `M = d·T` (see the `simplex` module), so its entries
//! stay integers whenever the program's data are integers. [`Entry`] is
//! what the pivot, the ratio test and the read-off need of such an entry:
//! `i64` with checked arithmetic for integral programs, and [`Rational`]
//! for programs with rational data and for the exact restart of a solve
//! whose `i64` arithmetic overflows.

use arith::Rational;
use std::cmp::Ordering;

/// An `i64` tableau step whose exact result does not fit, or a program
/// coefficient that is not an `i64` integer: the solve restarts over
/// [`Rational`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Overflow;

/// The result of one checked tableau step.
pub(crate) type Step<T> = Result<T, Overflow>;

/// An exact entry of the fraction-free tableau.
pub(crate) trait Entry: Clone + Default + PartialEq {
    /// One.
    fn one() -> Self;
    /// A program coefficient as an entry, when it is representable.
    fn from_rational(r: &Rational) -> Step<Self>;
    /// True iff the entry is zero.
    fn is_zero(&self) -> bool;
    /// True iff the entry is strictly negative.
    fn is_negative(&self) -> bool;
    /// True iff the entry is strictly positive.
    fn is_positive(&self) -> bool;
    /// `self + rhs`.
    fn add(&self, rhs: &Self) -> Step<Self>;
    /// `self - rhs`.
    fn sub(&self, rhs: &Self) -> Step<Self>;
    /// `self · rhs`.
    fn mul(&self, rhs: &Self) -> Step<Self>;
    /// `-self`.
    fn neg(&self) -> Step<Self>;
    /// `self / d` for a positive `d` that divides `self` exactly.
    fn div_exact(&self, d: &Self) -> Self;
    /// Orders `a / b` against `c / e` for positive `b` and `e`, by the
    /// cross products `a·e` and `c·b`.
    fn cmp_ratio(a: &Self, b: &Self, c: &Self, e: &Self) -> Ordering;
    /// `self / d` as a rational, for a positive `d`.
    fn over(&self, d: &Self) -> Rational;
}

impl Entry for i64 {
    fn one() -> Self {
        1
    }

    fn from_rational(r: &Rational) -> Step<Self> {
        match r.as_small() {
            Some((n, 1)) => Ok(n),
            _ => Err(Overflow),
        }
    }

    fn is_zero(&self) -> bool {
        *self == 0
    }

    fn is_negative(&self) -> bool {
        *self < 0
    }

    fn is_positive(&self) -> bool {
        *self > 0
    }

    fn add(&self, rhs: &Self) -> Step<Self> {
        self.checked_add(*rhs).ok_or(Overflow)
    }

    fn sub(&self, rhs: &Self) -> Step<Self> {
        self.checked_sub(*rhs).ok_or(Overflow)
    }

    fn mul(&self, rhs: &Self) -> Step<Self> {
        self.checked_mul(*rhs).ok_or(Overflow)
    }

    fn neg(&self) -> Step<Self> {
        self.checked_neg().ok_or(Overflow)
    }

    fn div_exact(&self, d: &Self) -> Self {
        debug_assert!(*d > 0 && self % d == 0, "{self} / {d} is not exact");
        self / d
    }

    fn cmp_ratio(a: &Self, b: &Self, c: &Self, e: &Self) -> Ordering {
        // Two i64 products cannot overflow i128.
        (*a as i128 * *e as i128).cmp(&(*c as i128 * *b as i128))
    }

    fn over(&self, d: &Self) -> Rational {
        Rational::from_frac(*self, *d)
    }
}

impl Entry for Rational {
    fn one() -> Self {
        Rational::one()
    }

    fn from_rational(r: &Rational) -> Step<Self> {
        Ok(r.clone())
    }

    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }

    fn is_negative(&self) -> bool {
        Rational::is_negative(self)
    }

    fn is_positive(&self) -> bool {
        Rational::is_positive(self)
    }

    fn add(&self, rhs: &Self) -> Step<Self> {
        Ok(self + rhs)
    }

    fn sub(&self, rhs: &Self) -> Step<Self> {
        Ok(self - rhs)
    }

    fn mul(&self, rhs: &Self) -> Step<Self> {
        Ok(self * rhs)
    }

    fn neg(&self) -> Step<Self> {
        Ok(-self)
    }

    fn div_exact(&self, d: &Self) -> Self {
        self / d
    }

    fn cmp_ratio(a: &Self, b: &Self, c: &Self, e: &Self) -> Ordering {
        (a * e).cmp(&(c * b))
    }

    fn over(&self, d: &Self) -> Rational {
        self / d
    }
}
