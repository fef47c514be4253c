//! The abstract domain lattice for fauré-log column inference.
//!
//! Each predicate column is abstracted to an [`AbsDom`] — an
//! over-approximation of the set of constants the column can hold in
//! any derivation over any world:
//!
//! ```text
//!                ⊤  (any constant)
//!              /   \
//!     [lo..hi]      symbols      ← integer interval / symbol universe
//!              \   /
//!          {c₁, …, cₖ}           ← finite constant set (k ≤ 16)
//!                |
//!                ⊥  (no value possible)
//! ```
//!
//! The lattice is deliberately small: joins widen a constant set that
//! outgrows [`MAX_SET`] members to its integer hull (or to ⊤ when the
//! set mixes integers and symbols), so fixpoint iteration over the
//! predicate dependency graph terminates after finitely many joins —
//! every bound that appears is drawn from the finite set of constants
//! occurring in the program, the database, and the c-variable
//! registry.
//!
//! C-variables are *not* ⊤: a c-variable cell contributes the abstract
//! image of its registry [`Domain`] (via [`AbsDom::from_domain`]), so
//! `@cvar s in {0, 1}` flows `{0, 1}` into every column the variable
//! occupies.

use faure_ctable::{CmpOp, Const, Domain};
use std::collections::BTreeSet;
use std::fmt;

/// Maximum cardinality of an explicit constant set before a join
/// widens it to an interval (all-integer) or ⊤/symbols (otherwise).
pub const MAX_SET: usize = 16;

/// An element of the column-domain lattice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsDom {
    /// No value possible (the column provably never holds a tuple).
    Bottom,
    /// One of finitely many known constants (nonempty, ≤ [`MAX_SET`]).
    Consts(BTreeSet<Const>),
    /// Any integer within the bounds (`None` = unbounded on that side).
    Interval(Option<i64>, Option<i64>),
    /// Any non-integer constant (symbols, strings, lists).
    Symbols,
    /// Any constant at all.
    Top,
}

/// The coarse value kind of a domain, used by the cross-rule column
/// type-mismatch check (F0009).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Only integers.
    Int,
    /// Only non-integers.
    Sym,
    /// Both, or unknown.
    Mixed,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Int => f.write_str("integer"),
            Kind::Sym => f.write_str("symbolic"),
            Kind::Mixed => f.write_str("mixed"),
        }
    }
}

fn is_int(c: &Const) -> bool {
    matches!(c, Const::Int(_))
}

/// Widens a constant set that grew beyond [`MAX_SET`].
fn widen(set: BTreeSet<Const>) -> AbsDom {
    if set.len() <= MAX_SET {
        return AbsDom::norm_consts(set);
    }
    if set.iter().all(is_int) {
        let lo = set.iter().filter_map(Const::as_int).min();
        let hi = set.iter().filter_map(Const::as_int).max();
        AbsDom::Interval(lo, hi)
    } else if set.iter().all(|c| !is_int(c)) {
        AbsDom::Symbols
    } else {
        AbsDom::Top
    }
}

impl AbsDom {
    /// The abstraction of one known constant.
    pub fn from_const(c: &Const) -> AbsDom {
        AbsDom::Consts(std::iter::once(c.clone()).collect())
    }

    /// The abstraction of a c-variable registry domain.
    pub fn from_domain(d: &Domain) -> AbsDom {
        match d.members() {
            Some(ms) => widen(ms.into_iter().collect()),
            None => AbsDom::Top,
        }
    }

    /// Normalises a constant set: empty → ⊥.
    fn norm_consts(set: BTreeSet<Const>) -> AbsDom {
        if set.is_empty() {
            AbsDom::Bottom
        } else {
            AbsDom::Consts(set)
        }
    }

    /// Whether the domain is empty.
    pub fn is_bottom(&self) -> bool {
        matches!(self, AbsDom::Bottom)
            || matches!(self, AbsDom::Interval(Some(lo), Some(hi)) if lo > hi)
    }

    /// Whether `c` may inhabit the domain.
    pub fn contains(&self, c: &Const) -> bool {
        match self {
            AbsDom::Bottom => false,
            AbsDom::Consts(set) => set.contains(c),
            AbsDom::Interval(lo, hi) => c
                .as_int()
                .is_some_and(|v| lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v <= h)),
            AbsDom::Symbols => !is_int(c),
            AbsDom::Top => true,
        }
    }

    /// The coarse value kind.
    pub fn kind(&self) -> Kind {
        match self {
            AbsDom::Consts(set) => {
                if set.iter().all(is_int) {
                    Kind::Int
                } else if set.iter().all(|c| !is_int(c)) {
                    Kind::Sym
                } else {
                    Kind::Mixed
                }
            }
            AbsDom::Interval(..) => Kind::Int,
            AbsDom::Symbols => Kind::Sym,
            AbsDom::Bottom | AbsDom::Top => Kind::Mixed,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsDom) -> AbsDom {
        use AbsDom::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x.clone(),
            (Top, _) | (_, Top) => Top,
            (Consts(a), Consts(b)) => widen(a.union(b).cloned().collect()),
            (Consts(set), Interval(lo, hi)) | (Interval(lo, hi), Consts(set)) => {
                if set.iter().all(is_int) {
                    let slo = set.iter().filter_map(Const::as_int).min();
                    let shi = set.iter().filter_map(Const::as_int).max();
                    Interval(
                        lo.zip(slo).map(|(a, b)| a.min(b)),
                        hi.zip(shi).map(|(a, b)| a.max(b)),
                    )
                } else {
                    Top
                }
            }
            (Consts(set), Symbols) | (Symbols, Consts(set)) => {
                if set.iter().all(|c| !is_int(c)) {
                    Symbols
                } else {
                    Top
                }
            }
            (Interval(alo, ahi), Interval(blo, bhi)) => Interval(
                alo.zip(*blo).map(|(a, b)| a.min(b)),
                ahi.zip(*bhi).map(|(a, b)| a.max(b)),
            ),
            (Interval(..), Symbols) | (Symbols, Interval(..)) => Top,
            (Symbols, Symbols) => Symbols,
        }
    }

    /// Greatest lower bound.
    pub fn meet(&self, other: &AbsDom) -> AbsDom {
        use AbsDom::*;
        match (self, other) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Top, x) | (x, Top) => x.clone(),
            (Consts(a), Consts(b)) => AbsDom::norm_consts(a.intersection(b).cloned().collect()),
            (Consts(set), other @ (Interval(..) | Symbols))
            | (other @ (Interval(..) | Symbols), Consts(set)) => {
                AbsDom::norm_consts(set.iter().filter(|c| other.contains(c)).cloned().collect())
            }
            (Interval(alo, ahi), Interval(blo, bhi)) => {
                let lo = match (alo, blo) {
                    (Some(a), Some(b)) => Some(*a.max(b)),
                    (x, None) | (None, x) => *x,
                };
                let hi = match (ahi, bhi) {
                    (Some(a), Some(b)) => Some(*a.min(b)),
                    (x, None) | (None, x) => *x,
                };
                if let (Some(l), Some(h)) = (lo, hi) {
                    if l > h {
                        return Bottom;
                    }
                }
                Interval(lo, hi)
            }
            (Interval(..), Symbols) | (Symbols, Interval(..)) => Bottom,
            (Symbols, Symbols) => Symbols,
        }
    }

    /// Refines the domain under a `value op constant` comparison,
    /// returning the (possibly empty) surviving portion. Refinements
    /// the lattice cannot represent precisely leave the domain as-is —
    /// the result is always an over-approximation.
    pub fn refine(&self, op: CmpOp, c: &Const) -> AbsDom {
        match (op, c.as_int()) {
            (CmpOp::Eq, _) => self.meet(&AbsDom::from_const(c)),
            (CmpOp::Ne, _) => match self {
                AbsDom::Consts(set) => {
                    AbsDom::norm_consts(set.iter().filter(|m| *m != c).cloned().collect())
                }
                other => other.clone(),
            },
            (CmpOp::Lt, Some(i64::MIN)) | (CmpOp::Gt, Some(i64::MAX)) => AbsDom::Bottom,
            (CmpOp::Lt, Some(k)) => self.meet(&AbsDom::Interval(None, Some(k - 1))),
            (CmpOp::Le, Some(k)) => self.meet(&AbsDom::Interval(None, Some(k))),
            (CmpOp::Gt, Some(k)) => self.meet(&AbsDom::Interval(Some(k + 1), None)),
            (CmpOp::Ge, Some(k)) => self.meet(&AbsDom::Interval(Some(k), None)),
            // Ordering against a non-integer never holds under the
            // engine's comparison semantics (undefined cuts the branch).
            (_, None) => AbsDom::Bottom,
        }
    }
}

impl fmt::Display for AbsDom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsDom::Bottom => f.write_str("⊥"),
            AbsDom::Consts(set) => {
                f.write_str("{")?;
                for (i, c) in set.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str("}")
            }
            AbsDom::Interval(lo, hi) => {
                f.write_str("[")?;
                if let Some(l) = lo {
                    write!(f, "{l}")?;
                }
                f.write_str("..")?;
                if let Some(h) = hi {
                    write!(f, "{h}")?;
                }
                f.write_str("]")
            }
            AbsDom::Symbols => f.write_str("symbols"),
            AbsDom::Top => f.write_str("⊤"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vs: &[i64]) -> AbsDom {
        AbsDom::Consts(vs.iter().map(|&v| Const::Int(v)).collect())
    }

    #[test]
    fn join_unions_small_sets() {
        let j = ints(&[1, 2]).join(&ints(&[2, 3]));
        assert_eq!(j, ints(&[1, 2, 3]));
    }

    #[test]
    fn join_widens_large_int_sets_to_interval() {
        let big: Vec<i64> = (0..(MAX_SET as i64)).collect();
        let j = ints(&big).join(&ints(&[99]));
        assert_eq!(j, AbsDom::Interval(Some(0), Some(99)));
    }

    #[test]
    fn join_of_mixed_kinds_is_top() {
        let syms = AbsDom::Symbols;
        assert_eq!(ints(&[1]).join(&syms), AbsDom::Top);
        assert_eq!(
            AbsDom::from_const(&Const::sym("Mkt")).join(&syms),
            AbsDom::Symbols
        );
    }

    #[test]
    fn meet_intersects_and_bottoms_out() {
        assert_eq!(ints(&[1, 2]).meet(&ints(&[2, 3])), ints(&[2]));
        assert!(ints(&[1]).meet(&ints(&[2])).is_bottom());
        assert_eq!(
            ints(&[1, 5]).meet(&AbsDom::Interval(Some(0), Some(3))),
            ints(&[1])
        );
        assert!(AbsDom::Interval(Some(0), Some(3))
            .meet(&AbsDom::Interval(Some(5), None))
            .is_bottom());
        assert!(AbsDom::Symbols
            .meet(&AbsDom::Interval(None, None))
            .is_bottom());
    }

    #[test]
    fn lattice_laws_on_samples() {
        let samples = [
            AbsDom::Bottom,
            ints(&[1, 2]),
            AbsDom::Interval(Some(0), Some(9)),
            AbsDom::Symbols,
            AbsDom::Top,
        ];
        for a in &samples {
            assert_eq!(&a.join(&AbsDom::Bottom), a);
            assert_eq!(&a.meet(&AbsDom::Top), a);
            for b in &samples {
                // Commutativity.
                assert_eq!(a.join(b), b.join(a));
                assert_eq!(a.meet(b), b.meet(a));
            }
        }
    }

    #[test]
    fn contains_respects_each_shape() {
        assert!(ints(&[1, 2]).contains(&Const::Int(2)));
        assert!(!ints(&[1, 2]).contains(&Const::Int(3)));
        assert!(AbsDom::Interval(Some(0), None).contains(&Const::Int(7)));
        assert!(!AbsDom::Interval(Some(0), None).contains(&Const::sym("x")));
        assert!(AbsDom::Symbols.contains(&Const::sym("x")));
        assert!(!AbsDom::Symbols.contains(&Const::Int(0)));
        assert!(AbsDom::Top.contains(&Const::Int(0)));
        assert!(!AbsDom::Bottom.contains(&Const::Int(0)));
    }

    #[test]
    fn from_domain_maps_registry_domains() {
        assert_eq!(AbsDom::from_domain(&Domain::Bool01), ints(&[0, 1]));
        assert_eq!(AbsDom::from_domain(&Domain::Open), AbsDom::Top);
        assert_eq!(
            AbsDom::from_domain(&Domain::Consts(vec![Const::sym("a")])),
            AbsDom::Consts(std::iter::once(Const::sym("a")).collect())
        );
    }

    #[test]
    fn refine_tightens_by_comparisons() {
        let d = ints(&[0, 1, 2]);
        assert_eq!(d.refine(CmpOp::Lt, &Const::Int(2)), ints(&[0, 1]));
        assert!(d.refine(CmpOp::Gt, &Const::Int(5)).is_bottom());
        assert_eq!(d.refine(CmpOp::Ne, &Const::Int(0)), ints(&[1, 2]));
        assert_eq!(d.refine(CmpOp::Eq, &Const::Int(1)), ints(&[1]));
        // Ordering against a symbol can never hold.
        assert!(d.refine(CmpOp::Lt, &Const::sym("x")).is_bottom());
        // Refinements that cannot be represented keep the domain.
        assert_eq!(AbsDom::Top.refine(CmpOp::Ne, &Const::Int(0)), AbsDom::Top);
    }

    #[test]
    fn kinds_classify_domains() {
        assert_eq!(ints(&[1]).kind(), Kind::Int);
        assert_eq!(AbsDom::Symbols.kind(), Kind::Sym);
        assert_eq!(AbsDom::Top.kind(), Kind::Mixed);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ints(&[0, 1]).to_string(), "{0, 1}");
        assert_eq!(AbsDom::Interval(Some(0), None).to_string(), "[0..]");
        assert_eq!(AbsDom::Bottom.to_string(), "⊥");
        assert_eq!(AbsDom::Top.to_string(), "⊤");
    }
}
