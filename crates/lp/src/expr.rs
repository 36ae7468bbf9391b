//! Variable handles and linear expressions.
//!
//! A [`VarId`] is an opaque handle returned by
//! [`Problem::add_var`](crate::Problem::add_var) and friends. A [`LinExpr`]
//! is a sparse linear combination of variables plus a constant term; it is
//! what constraints and objectives are built from.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Opaque handle to a decision variable inside a [`crate::Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable inside its problem (stable across solves).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A sparse linear expression `sum_i coeff_i * x_i + constant`.
///
/// Terms referring to the same variable are merged. The expression supports
/// the usual arithmetic operators so models read naturally:
///
/// ```
/// use conductor_lp::{LinExpr, Problem, Sense};
/// let mut p = Problem::new("ex", Sense::Minimize);
/// let x = p.add_var("x", 0.0, 10.0);
/// let y = p.add_var("y", 0.0, 10.0);
/// let e = LinExpr::from(x) * 2.0 + LinExpr::from(y) - 1.0;
/// assert_eq!(e.terms().collect::<Vec<_>>(), [(x, 2.0), (y, 1.0)]);
/// assert_eq!(e.constant(), -1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an expression from an iterator of `(variable, coefficient)` terms.
    pub(crate) fn from_terms<I: IntoIterator<Item = (VarId, f64)>>(terms: I) -> Self {
        let mut e = Self::new();
        for (v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    /// Adds `coeff * var` to the expression, merging with an existing term.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        if coeff != 0.0 {
            let entry = self.terms.entry(var).or_insert(0.0);
            *entry += coeff;
            if *entry == 0.0 {
                self.terms.remove(&var);
            }
        }
        self
    }

    /// The constant term.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// Number of non-zero terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression for a dense assignment indexed by `VarId::index`.
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        let mut acc = self.constant;
        for (v, c) in &self.terms {
            acc += c * values.get(v.0).copied().unwrap_or(0.0);
        }
        acc
    }

    /// `true` if every coefficient and the constant are finite.
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.values().all(|c| c.is_finite())
    }

    /// Largest variable index referenced, if any.
    pub(crate) fn max_var_index(&self) -> Option<usize> {
        self.terms.keys().next_back().map(|v| v.0)
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        let mut e = LinExpr::new();
        e.add_term(v, 1.0);
        e
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        Self {
            constant: c,
            ..Self::default()
        }
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        // Remove terms that became zero (e.g. multiply by 0).
        self.terms.retain(|_, c| *c != 0.0);
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    /// Coefficient of `var` in `e` (zero if absent).
    fn coeff(e: &LinExpr, var: VarId) -> f64 {
        e.terms.get(&var).copied().unwrap_or(0.0)
    }

    #[test]
    fn merge_terms() {
        let mut e = LinExpr::new();
        e.add_term(v(0), 1.0)
            .add_term(v(0), 2.0)
            .add_term(v(1), -1.0);
        assert_eq!(coeff(&e, v(0)), 3.0);
        assert_eq!(coeff(&e, v(1)), -1.0);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn zero_terms_are_dropped() {
        let mut e = LinExpr::new();
        e.add_term(v(0), 2.0).add_term(v(0), -2.0);
        assert!(e.is_empty());
        e.add_term(v(1), 0.0);
        assert!(e.is_empty());
    }

    #[test]
    fn arithmetic_ops() {
        let a = LinExpr::from_terms([(v(0), 1.0), (v(1), 2.0)]) + 3.0;
        let b = LinExpr::from_terms([(v(1), 1.0)]);
        let s = a.clone() + b.clone();
        assert_eq!(coeff(&s, v(1)), 3.0);
        assert_eq!(s.constant(), 3.0);
        let d = a.clone() - b;
        assert_eq!(coeff(&d, v(1)), 1.0);
        let m = a * 2.0;
        assert_eq!(coeff(&m, v(0)), 2.0);
        assert_eq!(m.constant(), 6.0);
        let n = -m;
        assert_eq!(coeff(&n, v(0)), -2.0);
        assert_eq!(n.constant(), -6.0);
    }

    #[test]
    fn evaluate_uses_dense_values() {
        let e = LinExpr::from_terms([(v(0), 2.0), (v(2), 1.0)]) + 1.0;
        assert_eq!(e.evaluate(&[1.0, 100.0, 3.0]), 2.0 + 3.0 + 1.0);
        // Missing indices evaluate as zero.
        assert_eq!(e.evaluate(&[1.0]), 3.0);
    }

    #[test]
    fn finiteness_check() {
        let e = LinExpr::from_terms([(v(0), 1.0)]);
        assert!(e.is_finite());
        assert!(!(e + f64::NAN).is_finite());
    }

    #[test]
    fn max_var_index() {
        let e = LinExpr::from_terms([(v(3), 1.0), (v(7), 2.0)]);
        assert_eq!(e.max_var_index(), Some(7));
        assert_eq!(LinExpr::new().max_var_index(), None);
    }
}
