//! Physical execution operators over [`Table`].
//!
//! The evaluation engine in `faure-core` compiles each rule into a
//! *logical* plan (join order, delta slot, comparison pushdown) once
//! per stratum; this module supplies the *physical* side executed every
//! fixpoint iteration:
//!
//! * [`probe_key`] — the join's probe: the rows of a table matching a
//!   key of cells, looked up by exactly the columns it binds (or a scan
//!   when it binds none), into a buffer the caller owns; [`probe`] is
//!   the same over tree-typed patterns, and [`probe_listed`] the scan
//!   of an iteration delta's listed rows;
//! * [`CondAcc`] — the condition-conjoining join: instead of rebuilding
//!   a flattened `And` on every nesting level (which re-allocates the
//!   child vector per joined row), the ids of the fragments are pushed
//!   onto a stack, and a conjunction is built only when a binding
//!   survives to the head *and* that stack of ids has not been
//!   conjoined before;
//! * [`OpStats`] — per-operator row/condition counters threaded into
//!   [`crate::PhaseStats`] so benches and `explain`-style tooling can
//!   see where relational time goes.

use crate::table::{Cell, Pattern, Table};
use faure_ctable::pool::{self, CondId};
use faure_ctable::{CVarRegistry, Condition};

/// Per-operator execution counters for one evaluation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Pattern-match operator invocations (index probe or scan).
    pub probes: u64,
    /// Rows returned by probes (matches, before comparison filtering).
    pub rows_matched: u64,
    /// Rows probes examined to find their matches: every candidate the
    /// key's index (or scan) handed them.
    pub rows_examined: u64,
    /// Condition fragments conjoined by the join operator.
    pub conds_conjoined: u64,
    /// Join branches cut by a pushed-down comparison that evaluated to
    /// ground-false before the remaining literals were joined.
    pub cmp_pruned: u64,
    /// Negation checks performed (one per negated literal per binding).
    pub neg_checks: u64,
}

faure_trace::stats!(OpStats {
    probes: Counter, "probes", "faure_probes_total", "Pattern-match operator invocations.";
    rows_matched: Counter, "rows_matched", "faure_rows_matched_total", "Rows returned by probes.";
    rows_examined: Counter, "rows_examined", "faure_rows_examined_total", "Rows probes examined to find their matches.";
    conds_conjoined: Counter, "conds_conjoined", "faure_conds_conjoined_total", "Condition fragments conjoined by the join.";
    cmp_pruned: Counter, "cmp_pruned", "faure_cmp_pruned_total", "Join branches cut by a ground-false comparison.";
    neg_checks: Counter, "neg_checks", "faure_neg_checks_total", "Negation checks performed.";
});

impl OpStats {
    /// Folds another counter record into this one (saturating): the
    /// driver folds one record per parallel worker per rule pass.
    pub fn absorb(&mut self, other: &OpStats) {
        faure_trace::stat::absorb(self, other);
    }
}

/// Pattern-match operator: finds all rows of `table` matching `pats`,
/// counting the probe, the rows it examined and its result size: the
/// tree-typed [`probe_key`].
pub fn probe(
    table: &Table,
    reg: &CVarRegistry,
    pats: &[Pattern],
    ops: &mut OpStats,
) -> Vec<(usize, Condition)> {
    let mut matches = Vec::new();
    ops.probes += 1;
    let examined = table.matches(reg, &table.pattern_key(pats), |row, mu| {
        matches.push((row as usize, mu));
    });
    ops.rows_examined += examined as u64;
    ops.rows_matched += matches.len() as u64;
    matches
}

/// The join's probe: appends to `out` every row of `table` matching
/// `key` — `key[c]` the cell column `c` must match, `None` for a free
/// column — with its match condition `μ`, in the order the table's
/// candidate selection examines them, counting the probe, the rows it
/// examined and its matches. `μ` is [`CondId::TRUE`] unless a
/// c-variable made it non-trivial; only then is it interned.
pub fn probe_key(
    table: &Table,
    reg: &CVarRegistry,
    key: &[Option<Cell>],
    out: &mut Vec<(u32, CondId)>,
    ops: &mut OpStats,
) {
    let before = out.len();
    ops.probes += 1;
    let examined = table.matches(reg, key, |row, mu| out.push((row, mu_id(mu))));
    ops.rows_examined += examined as u64;
    ops.rows_matched += (out.len() - before) as u64;
}

/// The id of a match condition: interned only when a c-variable made it
/// non-trivial.
fn mu_id(mu: Condition) -> CondId {
    match mu {
        Condition::True => CondId::TRUE,
        mu => pool::intern(&mu),
    }
}

/// The probe of an iteration delta: rows `rows` of `table`, which the
/// delta lists with the condition it carries for each. Appends `(i, μ)`
/// for every `rows[i]` whose row matches `key`, in list order. A delta
/// is scanned, never looked up: every listed row is examined.
pub fn probe_listed(
    table: &Table,
    reg: &CVarRegistry,
    key: &[Option<Cell>],
    rows: &[(u32, CondId)],
    out: &mut Vec<(u32, CondId)>,
    ops: &mut OpStats,
) {
    let before = out.len();
    ops.probes += 1;
    for (i, &(row, _)) in rows.iter().enumerate() {
        if let Some(mu) = table.match_key(reg, row, key) {
            out.push((i as u32, mu_id(mu)));
        }
    }
    ops.rows_examined += rows.len() as u64;
    ops.rows_matched += (out.len() - before) as u64;
}

/// Condition accumulator for the conjoining join.
///
/// Join recursion pushes fragments (row conditions, match conditions
/// `μ`, pushed-down comparison atoms) as it descends and truncates back
/// to a [`mark`](CondAcc::mark) when it backtracks. The stack holds
/// [`CondId`]s: a table row's condition is pushed as the id the table
/// already stores ([`push_id`](CondAcc::push_id)), and only a fragment
/// born as a tree (a non-trivial `μ`, a comparison atom) is interned on
/// the way in. The stack of ids names the conjunction, so the leaf can
/// look the result up by it before building anything.
#[derive(Clone, Debug, Default)]
pub struct CondAcc {
    parts: Vec<CondId>,
}

impl CondAcc {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a fragment given as a tree; `True` is skipped. Returns
    /// `false` when the fragment is `False` (the branch is dead and the
    /// caller should backtrack — the fragment is *not* pushed).
    pub fn push(&mut self, c: Condition, ops: &mut OpStats) -> bool {
        match c {
            Condition::True => true,
            Condition::False => false,
            other => self.push_id(pool::intern(&other), ops),
        }
    }

    /// [`push`](CondAcc::push) of an already interned fragment.
    pub fn push_id(&mut self, id: CondId, ops: &mut OpStats) -> bool {
        if id.is_true() {
            return true;
        }
        if id.is_false() {
            return false;
        }
        ops.conds_conjoined += 1;
        self.parts.push(id);
        true
    }

    /// Current stack depth, for later [`truncate`](CondAcc::truncate).
    pub fn mark(&self) -> usize {
        self.parts.len()
    }

    /// Backtracks to a previous [`mark`](CondAcc::mark).
    pub fn truncate(&mut self, mark: usize) {
        self.parts.truncate(mark);
    }

    /// The pushed fragments, bottom of the stack first.
    pub fn ids(&self) -> &[CondId] {
        &self.parts
    }

    /// Materialises the conjunction of all pushed fragments.
    pub fn materialize(&self) -> Condition {
        match self.parts[..] {
            [] => Condition::True,
            [only] => pool::resolve(only),
            _ => Condition::conj(self.parts.iter().map(|&id| pool::resolve(id)).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{CTuple, Schema, Term};

    #[test]
    fn probe_counts_rows() {
        let reg = CVarRegistry::new();
        let mut t = Table::new(Schema::new("E", &["a", "b"]));
        for i in 0..5 {
            t.insert(CTuple::new([Term::int(i % 2), Term::int(i)]))
                .unwrap();
        }
        let mut ops = OpStats::default();
        let m = probe(
            &t,
            &reg,
            &[Pattern::Exact(Term::int(0)), Pattern::Any],
            &mut ops,
        );
        assert_eq!(m.len(), 3);
        assert_eq!(ops.probes, 1);
        assert_eq!(ops.rows_matched, 3);
        // A table from `Table::new` has no index: the probe scans.
        assert_eq!(ops.rows_examined, 5);
        // With an index over the bound column, it examines its matches.
        t.ensure_index(&[0]);
        let mut out = Vec::new();
        let key = [Some(Cell::Int(0)), None];
        probe_key(&t, &reg, &key, &mut out, &mut ops);
        assert_eq!(
            out,
            [(0, CondId::TRUE), (2, CondId::TRUE), (4, CondId::TRUE)]
        );
        assert_eq!((ops.probes, ops.rows_matched, ops.rows_examined), (2, 6, 8));
    }

    #[test]
    fn acc_materializes_and_backtracks() {
        let mut ops = OpStats::default();
        let mut acc = CondAcc::new();
        let a = Condition::eq(Term::int(1), Term::int(1));
        let b = Condition::ne(Term::int(1), Term::int(2));
        assert!(acc.push(Condition::True, &mut ops));
        assert_eq!(acc.materialize(), Condition::True);
        assert!(acc.push(a.clone(), &mut ops));
        let mark = acc.mark();
        assert!(acc.push(b.clone(), &mut ops));
        assert_eq!(
            acc.materialize(),
            Condition::conj(vec![a.clone(), b.clone()])
        );
        acc.truncate(mark);
        assert_eq!(acc.materialize(), a);
        assert!(!acc.push(Condition::False, &mut ops));
        assert_eq!(ops.conds_conjoined, 2);
        // An interned fragment pushes as the tree it names, and counts
        // the same.
        assert!(acc.push_id(pool::intern(&b), &mut ops));
        assert_eq!(acc.ids(), [pool::intern(&a), pool::intern(&b)]);
        assert_eq!(acc.materialize(), Condition::conj(vec![a, b]));
        assert!(acc.push_id(CondId::TRUE, &mut ops));
        assert!(!acc.push_id(CondId::FALSE, &mut ops));
        assert_eq!(ops.conds_conjoined, 3);
    }

    #[test]
    fn absorb_saturates_instead_of_wrapping() {
        let mut a = OpStats {
            probes: u64::MAX - 1,
            rows_matched: u64::MAX,
            rows_examined: 1,
            conds_conjoined: 1,
            cmp_pruned: 0,
            neg_checks: u64::MAX,
        };
        let b = OpStats {
            probes: 5,
            rows_matched: 5,
            rows_examined: 7,
            conds_conjoined: 2,
            cmp_pruned: 3,
            neg_checks: 1,
        };
        a.absorb(&b);
        assert_eq!(a.probes, u64::MAX);
        assert_eq!(a.rows_matched, u64::MAX);
        assert_eq!(a.rows_examined, 8);
        assert_eq!(a.conds_conjoined, 3);
        assert_eq!(a.cmp_pruned, 3);
        assert_eq!(a.neg_checks, u64::MAX);
    }
}
