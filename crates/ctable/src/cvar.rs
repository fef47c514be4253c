//! C-variables and their domains.
//!
//! A *c-variable* (`x̄, ȳ, …` in the paper) names an unknown value. Each
//! c-variable is registered in a [`CVarRegistry`] together with a
//! [`Domain`] describing the values it may take. Finite domains are what
//! make possible-world enumeration and the finite-domain theory of the
//! solver exact; a c-variable may also be left [`Domain::Open`] when the
//! modeller does not want to commit to a value set (the solver then
//! reasons about it purely through (dis)equalities).

use crate::value::Const;
use std::fmt;

/// Identifier of a c-variable within a [`CVarRegistry`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CVarId(pub u32);

impl CVarId {
    /// Index into the registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cvar#{}", self.0)
    }
}

/// The value set a c-variable ranges over.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The link-state domain `{0, 1}` (0 = failed, 1 = up).
    Bool01,
    /// A finite set of integers.
    Ints(Vec<i64>),
    /// A finite set of arbitrary constants (e.g. `{Mkt, R&D}`).
    Consts(Vec<Const>),
    /// Unconstrained: any constant. Possible-world enumeration is not
    /// available for open c-variables; the solver treats them via the
    /// equality theory only.
    Open,
}

impl Domain {
    /// The members of the domain as constants, or `None` if open.
    pub fn members(&self) -> Option<Vec<Const>> {
        match self {
            Domain::Bool01 => Some(vec![Const::Int(0), Const::Int(1)]),
            Domain::Ints(vs) => Some(vs.iter().map(|&v| Const::Int(v)).collect()),
            Domain::Consts(cs) => Some(cs.clone()),
            Domain::Open => None,
        }
    }

    /// Number of members, or `None` if open.
    pub fn size(&self) -> Option<usize> {
        match self {
            Domain::Bool01 => Some(2),
            Domain::Ints(vs) => Some(vs.len()),
            Domain::Consts(cs) => Some(cs.len()),
            Domain::Open => None,
        }
    }

    /// Whether `c` belongs to the domain. Open domains contain everything.
    pub fn contains(&self, c: &Const) -> bool {
        match self {
            Domain::Bool01 => matches!(c, Const::Int(0) | Const::Int(1)),
            Domain::Ints(vs) => c.as_int().is_some_and(|v| vs.contains(&v)),
            Domain::Consts(cs) => cs.contains(c),
            Domain::Open => true,
        }
    }

    /// Whether the domain consists solely of integers (relevant for
    /// linear-arithmetic atoms).
    pub fn is_numeric(&self) -> bool {
        match self {
            Domain::Bool01 | Domain::Ints(_) => true,
            Domain::Consts(cs) => cs.iter().all(|c| matches!(c, Const::Int(_))),
            Domain::Open => false,
        }
    }
}

/// Metadata for one registered c-variable.
#[derive(Clone, Debug)]
pub struct CVarInfo {
    /// Human-readable name (`x`, `y`, …); rendered with a trailing `'`
    /// mark in display output to mimic the paper's overbar.
    pub name: String,
    /// The value set this c-variable ranges over.
    pub domain: Domain,
}

/// Registry of all c-variables of a database.
///
/// The registry is the single source of truth for domains; conditions
/// and tuples refer to c-variables only by [`CVarId`].
#[derive(Clone, Debug, Default)]
pub struct CVarRegistry {
    vars: Vec<CVarInfo>,
}

impl CVarRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh c-variable and returns its id.
    pub fn fresh(&mut self, name: impl Into<String>, domain: Domain) -> CVarId {
        let id = CVarId(u32::try_from(self.vars.len()).expect("too many c-variables"));
        self.vars.push(CVarInfo {
            name: name.into(),
            domain,
        });
        id
    }

    /// Registers a batch of fresh c-variables in one call, returning
    /// their ids in input order.
    ///
    /// This is the bulk path used by the evaluation engine when a
    /// program mentions many c-variables: the backing vector is grown
    /// once instead of once per variable, and the returned ids are
    /// assigned contiguously (callers may rely on
    /// `ids[i].index() == old_len + i`).
    pub fn fresh_batch<N: Into<String>>(
        &mut self,
        vars: impl IntoIterator<Item = (N, Domain)>,
    ) -> Vec<CVarId> {
        let vars = vars.into_iter();
        let (lower, _) = vars.size_hint();
        self.vars.reserve(lower);
        let mut ids = Vec::with_capacity(lower);
        for (name, domain) in vars {
            ids.push(self.fresh(name, domain));
        }
        ids
    }

    /// Looks up a c-variable by name (first match).
    pub fn by_name(&self, name: &str) -> Option<CVarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| CVarId(i as u32))
    }

    /// Metadata for `id`. Panics if `id` is from another registry.
    pub fn info(&self, id: CVarId) -> &CVarInfo {
        &self.vars[id.index()]
    }

    /// The domain of `id`.
    pub fn domain(&self, id: CVarId) -> &Domain {
        &self.vars[id.index()].domain
    }

    /// The display name of `id`.
    pub fn name(&self, id: CVarId) -> &str {
        &self.vars[id.index()].name
    }

    /// Number of registered c-variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterator over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CVarId, &CVarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (CVarId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_assigns_sequential_ids() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let y = reg.fresh("y", Domain::Open);
        assert_eq!(x, CVarId(0));
        assert_eq!(y, CVarId(1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.name(x), "x");
        assert_eq!(reg.domain(y), &Domain::Open);
    }

    #[test]
    fn fresh_batch_matches_sequential_registration() {
        let mut a = CVarRegistry::new();
        a.fresh("pre", Domain::Open);
        let ids = a.fresh_batch([
            ("x".to_string(), Domain::Bool01),
            ("y".to_string(), Domain::Open),
        ]);
        let mut b = CVarRegistry::new();
        b.fresh("pre", Domain::Open);
        let x = b.fresh("x", Domain::Bool01);
        let y = b.fresh("y", Domain::Open);
        assert_eq!(ids, vec![x, y]);
        assert_eq!(ids[0].index(), 1);
        assert_eq!(ids[1].index(), 2);
        assert_eq!(a.name(ids[0]), "x");
        assert_eq!(a.domain(ids[1]), &Domain::Open);
    }

    #[test]
    fn by_name_finds_first() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        reg.fresh("x", Domain::Open); // shadow: by_name still finds first
        assert_eq!(reg.by_name("x"), Some(x));
        assert_eq!(reg.by_name("nope"), None);
    }

    #[test]
    fn domain_membership() {
        assert!(Domain::Bool01.contains(&Const::Int(0)));
        assert!(!Domain::Bool01.contains(&Const::Int(2)));
        assert!(Domain::Ints(vec![80, 344, 7000]).contains(&Const::Int(344)));
        let d = Domain::Consts(vec![Const::sym("Mkt"), Const::sym("R&D")]);
        assert!(d.contains(&Const::sym("Mkt")));
        assert!(!d.contains(&Const::sym("CS")));
        assert!(Domain::Open.contains(&Const::sym("anything")));
    }

    #[test]
    fn domain_sizes_and_members() {
        assert_eq!(Domain::Bool01.size(), Some(2));
        assert_eq!(Domain::Open.size(), None);
        assert_eq!(
            Domain::Ints(vec![1, 2]).members(),
            Some(vec![Const::Int(1), Const::Int(2)])
        );
    }

    #[test]
    fn numeric_domains() {
        assert!(Domain::Bool01.is_numeric());
        assert!(Domain::Ints(vec![1]).is_numeric());
        assert!(Domain::Consts(vec![Const::Int(1)]).is_numeric());
        assert!(!Domain::Consts(vec![Const::sym("a")]).is_numeric());
        assert!(!Domain::Open.is_numeric());
    }
}
