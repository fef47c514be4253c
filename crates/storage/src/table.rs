//! Indexed c-table storage — columnar layout over interned data.
//!
//! A [`Table`] stores its rows struct-of-arrays: one typed [`Cell`]
//! column per attribute (u32-interned symbols, dense c-var indices,
//! unboxed ints, interned list ids) plus a [`CondId`] condition column
//! backed by the global hash-consed pool (`faure_ctable::pool`). The
//! data phase — index probes, pattern scans, dedup — then works on
//! `Copy` cells in contiguous vectors instead of cloning and re-hashing
//! `Vec<Term>` tuples, and row-condition equality is a `u32` compare.
//!
//! Cell encoding is injective ([`Cell`] distinguishes `Int(1)` from
//! `Sym("1")` from `List([1])`), so cell equality is term equality. A
//! row is stored once, in its columns: dedup finds it by a hash chain
//! over all its cells, checked against the columns cell by cell.

use crate::dnf::{self, AtomSet};
use faure_ctable::pool::{self, CondId};
use faure_ctable::{
    CTuple, CVarId, CVarRegistry, Condition, Const, Database, Relation, Schema, Symbol, Term,
};
use faure_solver::{Session, SolverError};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, PoisonError};

/// A tuple's arity disagrees with the table schema.
///
/// Inserting used to `assert_eq!` on arity; a serving process must not
/// abort on malformed input, so the mismatch is now a typed error the
/// evaluation engine propagates (as `EvalError::ArityMismatch`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArityError {
    /// Name of the table whose schema was violated.
    pub table: String,
    /// Arity of the table schema.
    pub expected: usize,
    /// Arity of the offending tuple.
    pub got: usize,
}

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tuple of arity {} inserted into table {} of arity {}",
            self.got, self.table, self.expected
        )
    }
}

impl std::error::Error for ArityError {}

/// One columnar storage cell: the fully-interned, `Copy` encoding of a
/// [`Term`]. The encoding is injective — decoding always recovers a
/// structurally equal term — so cell equality *is* term equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cell {
    /// An integer constant, unboxed.
    Int(i64),
    /// An interned symbolic constant.
    Sym(Symbol),
    /// An interned list constant (see [`pool::intern_list`]).
    List(pool::ListId),
    /// A c-variable (dense registry index).
    Var(CVarId),
}

impl Cell {
    /// Encodes a term (interning list payloads).
    pub fn encode(term: &Term) -> Cell {
        match term {
            Term::Const(c) => Cell::encode_const(c),
            Term::Var(v) => Cell::Var(*v),
        }
    }

    /// Encodes a constant.
    pub fn encode_const(c: &Const) -> Cell {
        match c {
            Const::Int(v) => Cell::Int(*v),
            Const::Sym(s) => Cell::Sym(*s),
            Const::List(items) => Cell::List(pool::intern_list(items)),
        }
    }

    /// Decodes back to a term (O(1); list payloads are Arc clones).
    pub fn decode(self) -> Term {
        match self {
            Cell::Int(v) => Term::Const(Const::Int(v)),
            Cell::Sym(s) => Term::Const(Const::Sym(s)),
            Cell::List(id) => Term::Const(Const::List(pool::resolve_list(id))),
            Cell::Var(v) => Term::Var(v),
        }
    }

    /// Decodes a constant cell; `None` for c-variable cells.
    pub fn decode_const(self) -> Option<Const> {
        match self {
            Cell::Int(v) => Some(Const::Int(v)),
            Cell::Sym(s) => Some(Const::Sym(s)),
            Cell::List(id) => Some(Const::List(pool::resolve_list(id))),
            Cell::Var(_) => None,
        }
    }

    /// The c-variable, if this is a variable cell.
    pub fn as_var(self) -> Option<CVarId> {
        match self {
            Cell::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// A per-column pattern used for indexed matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Matches any cell, unconditionally.
    Any,
    /// Matches a specific c-domain term.
    ///
    /// * constant vs equal constant — matches with no condition;
    /// * constant vs different constant — no match;
    /// * constant `c` vs c-variable cell `v̄` — matches with condition
    ///   `v̄ = c` (skipped outright if `c` is outside `v̄`'s domain);
    /// * c-variable `ū` vs constant cell `d` — matches with `ū = d`;
    /// * c-variable `ū` vs c-variable cell `v̄` — matches with `ū = v̄`
    ///   (no condition when they are the same variable).
    Exact(Term),
}

/// Result of inserting a tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// No row with these terms existed; a new row was added.
    New,
    /// A row with these terms existed and its condition gained a new
    /// disjunct.
    Merged,
    /// A row with these terms and this exact condition disjunct already
    /// existed; nothing changed.
    Unchanged,
}

impl InsertOutcome {
    /// Whether the insert changed the table contents.
    pub fn changed(self) -> bool {
        !matches!(self, InsertOutcome::Unchanged)
    }
}

/// A chain map's hasher: a chain key, a keyed SipHash, is its own hash.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("a chain key is a u64")
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The end of a posting chain (see [`Index`]).
const END: u32 = u32::MAX;

/// One key's posting chain: its rows, linked through [`Index::next`]
/// in insertion order.
#[derive(Clone, Copy, Debug)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

/// A probe index over a set of columns: the rows whose cells under
/// those columns are all constants, chained per key, and the rows that
/// hold a c-variable under one of them (such a row conditionally
/// matches every key, so it is a candidate of every probe).
///
/// A chain is found by a hash of its key cells, with this index's own
/// random SipHash keys, which the chain map takes as it is
/// ([`KeyHasher`]); the map then costs a `u64` and three `u32`s per
/// key, and each row one link, instead of a boxed key and a list per
/// key. Two keys whose hashes collide share a chain: a probe
/// compares every candidate's cells with its key anyway, so a foreign
/// row is examined and not matched.
///
/// A table's dedup is the same structure over every column, with two
/// differences: it chains every row, a c-variable cell hashed as
/// itself, since dedup is exact equality; and it lists the rows holding
/// a c-variable in any cell, which a fully bound probe examines beside
/// its one exact row.
#[derive(Clone, Debug, Default)]
struct Index {
    /// The indexed columns, ascending; empty for a dedup index, which
    /// covers them all.
    cols: Box<[usize]>,
    dedup: bool,
    hasher: RandomState,
    chains: HashMap<u64, Chain, BuildHasherDefault<KeyHasher>>,
    /// Per row, the next row of its chain (`END` for the last one, and
    /// for the rows a probe index keeps in `var_rows`).
    next: Vec<u32>,
    /// Rows with a c-variable under some indexed column, oldest first.
    var_rows: Vec<u32>,
}

impl Index {
    /// An empty dedup index; allocates nothing.
    fn dedup() -> Self {
        Index {
            dedup: true,
            ..Index::default()
        }
    }

    /// The columns keying the chains, of a table of arity `arity`.
    fn key_cols(&self, arity: usize) -> impl Iterator<Item = usize> + '_ {
        let all = if self.dedup { arity } else { 0 };
        self.cols.iter().copied().chain(0..all)
    }

    /// The hash of the key whose cell in column `c` is `cell(c)`.
    fn hash(&self, arity: usize, cell: impl Fn(usize) -> Cell) -> u64 {
        let mut h = self.hasher.build_hasher();
        for c in self.key_cols(arity) {
            cell(c).hash(&mut h);
        }
        h.finish()
    }

    /// Whether row `row` holds a c-variable under the index.
    fn listed(&self, cols: &[Vec<Cell>], row: u32) -> bool {
        self.key_cols(cols.len())
            .any(|c| cols[c][row as usize].as_var().is_some())
    }

    /// The hash of row `row`'s key; `None` for a row a probe index only
    /// lists.
    fn row_key(&self, cols: &[Vec<Cell>], row: u32) -> Option<u64> {
        (self.dedup || !self.listed(cols, row))
            .then(|| self.hash(cols.len(), |c| cols[c][row as usize]))
    }

    /// The chain of the key whose cell in column `c` is `cell(c)`.
    fn chain(&self, arity: usize, cell: impl Fn(usize) -> Cell) -> Option<Chain> {
        self.chains.get(&self.hash(arity, cell)).copied()
    }

    /// The chained row whose key cells are `cell(c)`: what a dedup
    /// index holds for an exact row.
    fn find(&self, cols: &[Vec<Cell>], cell: impl Fn(usize) -> Cell) -> Option<u32> {
        self.find_hashed(self.hash(cols.len(), &cell), cols, cell)
    }

    /// [`find`](Index::find) with the key's hash already taken.
    fn find_hashed(
        &self,
        key: u64,
        cols: &[Vec<Cell>],
        cell: impl Fn(usize) -> Cell,
    ) -> Option<u32> {
        let chain = self.chains.get(&key)?;
        std::iter::successors(Some(chain.head), |&at| Some(self.next[at as usize]))
            .take(chain.len as usize)
            .find(|&at| {
                self.key_cols(cols.len())
                    .all(|c| cols[c][at as usize] == cell(c))
            })
    }

    /// Appends row `row`, the table's newest, to its key's chain.
    fn post(&mut self, cols: &[Vec<Cell>], row: u32) {
        self.post_hashed(cols, row, self.row_key(cols, row));
    }

    /// [`post`](Index::post) with the row's key hash already taken
    /// ([`row_key`](Index::row_key)).
    fn post_hashed(&mut self, cols: &[Vec<Cell>], row: u32, key: Option<u64>) {
        debug_assert_eq!(self.next.len(), row as usize);
        self.next.push(END);
        if self.listed(cols, row) {
            self.var_rows.push(row);
        }
        if let Some(key) = key {
            let chain = self.chains.entry(key).or_insert(Chain {
                head: row,
                tail: row,
                len: 0,
            });
            if chain.len > 0 {
                self.next[chain.tail as usize] = row;
            }
            chain.tail = row;
            chain.len += 1;
        }
    }

    /// The row linking to `row` in the chain starting at `head`.
    fn before(&self, head: u32, row: u32) -> u32 {
        let mut at = head;
        while self.next[at as usize] != row {
            at = self.next[at as usize];
            assert_ne!(at, END, "every posted row is on its key's chain");
        }
        at
    }

    /// Removes row `row` and renumbers row `last` (the table's last)
    /// to `row`, with both rows' cells still in place: the other rows
    /// of both chains keep their order. A key whose chain empties goes,
    /// so a stream of inserts and removals leaves no entry behind.
    fn swap_remove(&mut self, cols: &[Vec<Cell>], row: u32, last: u32) {
        // `row` goes, then `last` takes its number (unless it is `row`).
        for (from, to) in [(row, END), (last, row)] {
            if from == to {
                continue;
            }
            if self.listed(cols, from) {
                relist(&mut self.var_rows, from, to);
            }
            if let Some(key) = self.row_key(cols, from) {
                self.relink(key, from, to);
            }
        }
        // `last`'s link moves to `row`'s place.
        self.next.swap_remove(row as usize);
    }

    /// Puts row `to` in row `from`'s place on the chain of `key`, or
    /// takes `from` off it when `to` is `END`.
    fn relink(&mut self, key: u64, from: u32, to: u32) {
        let mut chain = *self.chains.get(&key).expect("every row is posted");
        let prev = (chain.head != from).then(|| self.before(chain.head, from));
        let after = self.next[from as usize];
        let succ = if to == END { after } else { to };
        match prev {
            None => chain.head = succ,
            Some(prev) => self.next[prev as usize] = succ,
        }
        if chain.tail == from {
            chain.tail = if to == END { prev.unwrap_or(END) } else { to };
        }
        chain.len -= u32::from(to == END);
        if chain.len == 0 {
            self.chains.remove(&key);
        } else {
            self.chains.insert(key, chain);
        }
    }

    /// Empties the index, keeping its columns.
    fn clear(&mut self) {
        self.chains.clear();
        self.next.clear();
        self.var_rows.clear();
    }

    /// Gives back the spare capacity of its vectors and map.
    fn shrink_to_fit(&mut self) {
        self.chains.shrink_to_fit();
        self.next.shrink_to_fit();
        self.var_rows.shrink_to_fit();
    }
}

/// Puts row `to` in row `from`'s place in `list`, or takes `from` out
/// (the others keep their order) when `to` is `END`. Searched from the
/// end: the rows a removal touches are the newest ones more often than
/// not.
fn relist(list: &mut Vec<u32>, from: u32, to: u32) {
    let at = list
        .iter()
        .rposition(|&r| r == from)
        .expect("every listed row is in its list");
    if to == END {
        list.remove(at);
    } else {
        list[at] = to;
    }
}

/// Where the rows a probe examines come from, in the order it examines
/// them (see [`Table::candidates`]).
enum Candidates<'t> {
    /// The dedup index's one row for a fully bound constant key, then
    /// the rows holding a c-variable.
    Exact(Option<u32>, std::slice::Iter<'t, u32>),
    /// An index's chain for the key, then its c-variable rows.
    Chain {
        at: u32,
        next: &'t [u32],
        then: std::slice::Iter<'t, u32>,
    },
    /// Every row.
    Scan(std::ops::Range<u32>),
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Candidates::Exact(row, then) => row.take().or_else(|| then.next().copied()),
            Candidates::Chain { at, next, then } => {
                if *at == END {
                    return then.next().copied();
                }
                let row = *at;
                *at = next[row as usize];
                Some(row)
            }
            Candidates::Scan(rows) => rows.next(),
        }
    }
}

/// What a table stores for one condition: the
/// [`stored`](dnf::NormalForm::stored) id of its normal form and
/// whether it is over the DNF budget (stored opaque). Read off the
/// normal form once; the join leaf keeps it per condition-id stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoredCond {
    stored: CondId,
    opaque: bool,
}

impl StoredCond {
    /// What a table stores for the condition `cond`.
    pub fn of(cond: CondId) -> Self {
        let form = dnf::normal_form(cond);
        StoredCond {
            stored: form.stored,
            opaque: form.sets.is_none(),
        }
    }
}

/// A derived row ready for insertion: its encoded cells and what a
/// table stores for its condition ([`StoredCond`]).
///
/// That is read off the condition's [normal form](dnf::normal_form)
/// once when the row is built (inside the worker thread, under parallel
/// evaluation); the minimal-DNF antichain stays where it is, shared by
/// reference with every other row carrying the same condition. The
/// serialised merge ([`Table::absorb_partitions`]) is then hash lookups
/// on interned data and `Copy` cell appends — no term clones, no tree
/// walks, no per-row copy of the antichain.
#[derive(Clone, Debug)]
pub struct PreparedRow {
    cells: Box<[Cell]>,
    cond: StoredCond,
}

impl PreparedRow {
    /// Interns `tuple`'s terms and condition (the caller should have
    /// structurally simplified it, as with [`Table::insert`]) and looks
    /// up the condition's normal form.
    pub fn new(tuple: CTuple) -> Self {
        Self::from_tuple(&tuple)
    }

    /// [`new`](PreparedRow::new) by reference: nothing of the tuple is
    /// cloned.
    pub fn from_tuple(tuple: &CTuple) -> Self {
        Self::from_id(
            tuple.terms.iter().map(Cell::encode).collect(),
            pool::intern(&tuple.cond),
        )
    }

    /// A row over already encoded cells and an already interned
    /// condition.
    pub fn from_id(cells: Box<[Cell]>, cond_id: CondId) -> Self {
        Self::with_stored(cells, StoredCond::of(cond_id))
    }

    /// A row over already encoded cells whose condition's normal form
    /// was already read — what the join leaf holds.
    pub fn with_stored(cells: Box<[Cell]>, cond: StoredCond) -> Self {
        PreparedRow { cells, cond }
    }

    /// The row's terms, decoded.
    pub fn terms(&self) -> Vec<Term> {
        self.cells.iter().map(|c| c.decode()).collect()
    }

    /// The row's encoded cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The pooled id a table stores for the row's condition.
    pub fn cond_id(&self) -> CondId {
        self.cond.stored
    }

    /// Whether the condition normalised to false (the row can never be
    /// inserted).
    pub fn is_false(&self) -> bool {
        self.cond.stored.is_false()
    }
}

/// Bookkeeping of a row whose condition is *not* described by the
/// normal form of its id: kept in [`Table`]'s sparse side list.
#[derive(Clone, Debug)]
enum CondRepr {
    /// An antichain wider than [`dnf::DEFAULT_SET_BUDGET`], built by
    /// merging: normalising its condition afresh would give up.
    Sets(Vec<AtomSet>),
    /// Fallback for conditions too large to normalise: pooled disjunct
    /// ids with O(1) equality-based deduplication.
    Opaque(Vec<CondId>),
}

/// What a new row stores for its condition `cond`, whose side-list
/// entry (an opaque condition's) goes under `key`.
fn store_new(side: &mut HashMap<u32, CondRepr>, key: u32, cond: StoredCond) -> CondId {
    if cond.opaque {
        side.insert(key, CondRepr::Opaque(vec![cond.stored]));
    }
    cond.stored
}

/// Merges a condition stored as `incoming` into the disjunction `cond`,
/// whose side-list entry, if it has one, is `side[key]`: what a row does
/// when it is derived again. Returns whether the disjunction changed.
fn merge_cond(
    cond: &mut CondId,
    side: &mut HashMap<u32, CondRepr>,
    key: u32,
    incoming: StoredCond,
) -> bool {
    let StoredCond { stored, opaque } = incoming;
    // Nothing widens `True`; and re-deriving a row under the very
    // condition it stores — most duplicates — adds no disjunct (a
    // side-list row is not described by its id, so it goes on).
    if *cond == CondId::TRUE || (*cond == stored && !side.contains_key(&key)) {
        return false;
    }
    let incoming = (!opaque).then(|| dnf::normal_form(stored));
    let incoming_sets: Option<&[AtomSet]> = incoming
        .as_deref()
        .map(|form| form.sets.as_deref().expect("checked not opaque"));
    let mut repr = match side.remove(&key) {
        Some(repr) => repr,
        None => {
            let form = dnf::normal_form(*cond);
            let existing = form
                .sets
                .as_deref()
                .expect("a row outside the side list has an antichain");
            // A re-derivation whose every disjunct is already implied is
            // decided on the shared antichain; only a merge that changes
            // the row copies it.
            if incoming_sets.is_some_and(|new| new.iter().all(|s| dnf::subsumed(existing, s))) {
                return false;
            }
            CondRepr::Sets(existing.to_vec())
        }
    };
    let changed = merge_repr(cond, &mut repr, stored, incoming_sets);
    match repr {
        CondRepr::Sets(sets) if sets.len() <= dnf::DEFAULT_SET_BUDGET => {
            dnf::record_normal_form(*cond, sets);
        }
        wide_or_opaque => {
            side.insert(key, wide_or_opaque);
        }
    }
    changed
}

/// Merges an incoming condition (`incoming` is the id it stores under,
/// `incoming_sets` its antichain unless it is over budget) into an
/// existing disjunction. Returns whether it changed.
///
/// Computes the same condition *trees* as the old row-major table
/// (pooled `disj` mirrors [`Condition::or`] exactly), then stores their
/// ids — so materialised rows stay bit-identical.
fn merge_repr(
    cond: &mut CondId,
    repr: &mut CondRepr,
    incoming: CondId,
    incoming_sets: Option<&[AtomSet]>,
) -> bool {
    match (&mut *repr, incoming_sets) {
        (CondRepr::Sets(existing), Some(new_sets)) => {
            let mut changed = false;
            for set in new_sets {
                if !dnf::subsumed(existing, set) {
                    changed |= dnf::antichain_insert(existing, set.clone());
                }
            }
            if changed {
                *cond = pool::intern(&dnf::condition_of(existing));
            }
            changed
        }
        (CondRepr::Sets(existing), None) => {
            // Degrade to the opaque representation.
            let disjuncts: Vec<CondId> = existing
                .iter()
                .map(|s| pool::intern(&dnf::condition_of(std::slice::from_ref(s))))
                .collect();
            if disjuncts.contains(&incoming) {
                *repr = CondRepr::Opaque(disjuncts);
                return false;
            }
            // `Condition::any` over the disjunct trees, id-wise.
            let folded = disjuncts
                .iter()
                .fold(CondId::FALSE, |acc, &d| pool::disj(acc, d));
            *cond = pool::disj(folded, incoming);
            let mut disjuncts = disjuncts;
            disjuncts.push(incoming);
            *repr = CondRepr::Opaque(disjuncts);
            true
        }
        (CondRepr::Opaque(disjuncts), _) => {
            if incoming == CondId::TRUE {
                *cond = CondId::TRUE;
                *disjuncts = vec![CondId::TRUE];
                return true;
            }
            if disjuncts.contains(&incoming) {
                return false;
            }
            disjuncts.push(incoming);
            *cond = pool::disj(*cond, incoming);
            true
        }
    }
}

/// The rows of one table that one semi-naive iteration changed, oldest
/// change first, each with the condition the iteration's delta carries
/// for it: the disjunct that first changed the row, merged with every
/// later one the way a stored row merges a re-derivation (side-list
/// entries included). The delta is rows of the standing table, not a
/// table of its own: recording a change looks at the row's [`Mark`]
/// slot, and hashes no cell.
#[derive(Debug, Default)]
pub struct Changed {
    rows: Vec<(u32, CondId)>,
    /// Side-list entries of the delta's conditions, by place in `rows`.
    side: HashMap<u32, CondRepr>,
}

/// A table's slot per row naming the row's place in the [`Changed`]
/// being recorded for it. A slot is believed only when that place holds
/// its row, so a mark is never cleared: a stale slot — left by an
/// earlier iteration or evaluation, or by a row since removed — names a
/// place that holds another row, or none.
#[derive(Debug, Default)]
pub struct Mark {
    slots: Vec<u32>,
}

impl Changed {
    /// Records that `prow` changed row `row` of the table `mark` marks
    /// (what [`Table::absorb_partitions`] reports).
    pub fn record(&mut self, mark: &mut Mark, row: usize, prow: &PreparedRow) {
        if row >= mark.slots.len() {
            mark.slots.resize(row + 1, 0);
        }
        let at = mark.slots[row] as usize;
        match self.rows.get_mut(at) {
            Some((marked, cond)) if *marked as usize == row => {
                merge_cond(cond, &mut self.side, at as u32, prow.cond);
            }
            _ => {
                let at = u32::try_from(self.rows.len()).expect("delta row count overflow");
                let cond = store_new(&mut self.side, at, prow.cond);
                self.rows
                    .push((u32::try_from(row).expect("row index overflow"), cond));
                mark.slots[row] = at;
            }
        }
    }

    /// The changed rows and the condition the delta carries for each.
    pub fn rows(&self) -> &[(u32, CondId)] {
        &self.rows
    }

    /// [`rows`](Changed::rows), owned.
    pub fn into_rows(self) -> Vec<(u32, CondId)> {
        self.rows
    }
}

/// An indexed, columnar c-table.
///
/// Rows are deduplicated **by their terms**: deriving the same tuple
/// again under a different condition extends the existing row's
/// condition with a disjunct (`φ₁ ∨ φ₂ ∨ …`). Disjuncts are kept
/// *minimal* (an antichain under implication-by-inclusion) whenever the
/// condition normalises to small DNF, which both keeps conditions
/// readable and guarantees fast fixpoint convergence; otherwise pooled
/// structural deduplication applies. Either way the disjunct space over
/// a finite atom vocabulary is finite, so fixpoints terminate.
///
/// Row conditions are stored as [`CondId`]s and nothing else: a row's
/// antichain is the [normal form](dnf::normal_form) of its id — one
/// shared copy per distinct condition, not one per row. [`Table::row`]
/// and [`Table::iter`] materialise owned [`CTuple`]s on demand
/// (condition trees are O(1) Arc clones out of the pool, and
/// materialised rows are bit-identical to what the old row-major table
/// stored).
///
/// A row is stored once, in the columns: the dedup index finds it by a
/// hash chain over all its cells, a probe index by one over its key
/// columns, and both compare candidates against the columns. A probe
/// looks up exactly the key it binds: a fully bound key in the dedup
/// index, a partly bound one in a probe index over exactly its bound
/// columns, which a table has only once something asks for it
/// ([`ensure_index`](Table::ensure_index)): the evaluation engine
/// builds the ones its compiled plans probe. An iteration delta is no
/// table but the rows of one that changed ([`Changed`]), scanned, never
/// looked up.
#[derive(Clone, Debug)]
pub struct Table {
    /// The schema.
    pub schema: Schema,
    /// The cell of every row, one vector per attribute, in row order
    /// (struct-of-arrays).
    cols: Vec<Vec<Cell>>,
    /// Pooled condition per row. For a row absent from `side` this is a
    /// normal-form fixed point: `normal_form(id).stored == id`, and the
    /// form's antichain is the row's minimal set of disjuncts (kept
    /// minimal on insert, which keeps fixpoints over cyclic graphs
    /// polynomial instead of enumerating every walk).
    conds: Vec<CondId>,
    /// The rare rows whose bookkeeping is not a function of their id:
    /// opaque (over-budget) conditions and merged antichains wider than
    /// the budget, by row index.
    side: HashMap<u32, CondRepr>,
    /// The dedup index: every row chained under a hash of all its
    /// cells, and the rows holding a c-variable in some cell, oldest
    /// first — what a fully bound probe examines beside its exact row.
    dedup: Index,
    /// The probe indexes asked for so far.
    indexes: Vec<Index>,
}

/// A relation's columnar twin, as [`Table::twin`] hands it out and as
/// the relation's slot keeps it (there with `encoded` 0).
#[derive(Clone, Debug)]
pub struct Twin {
    /// The twin, shared with the database's slot and with every
    /// evaluation that borrowed it.
    pub table: Arc<Table>,
    /// How many of the relation's rows changed the twin when it was
    /// loaded: what inserting them into an empty table reports.
    pub changed: usize,
    /// Rows this call encoded: the relation's length when it loaded the
    /// twin, 0 when the slot held one.
    pub encoded: usize,
}

/// What one row stores for its condition: the id and, for the rare row
/// not described by its id, the side-list entry.
#[derive(Clone, Debug)]
struct RowCond {
    cond: CondId,
    side: Option<CondRepr>,
}

/// What a [`Table::overlay`] changed, by row index and oldest first:
/// the row's condition before the overlay touched it, `None` for a row
/// the overlay added.
#[derive(Debug)]
pub struct Overlay {
    undo: Vec<(usize, Option<RowCond>)>,
}

/// What a [`Table::delete_where`] pass did to the table, in terms of
/// the *old* row versions: rows dropped outright (the deletion
/// condition μ was `True`) and rows whose condition was weakened to
/// `ψ ∧ ¬μ` (their pre-weakening version is reported, since that is
/// what downstream derivations were computed from).
#[derive(Clone, Debug, Default)]
pub struct DeletionEffect {
    /// Rows removed from the table (old version).
    pub removed: Vec<CTuple>,
    /// Rows kept with a weakened condition (old version). A weakened
    /// row whose new condition collapses to `False` appears in
    /// `removed` instead.
    pub weakened: Vec<CTuple>,
}

impl DeletionEffect {
    /// Whether the pass changed anything.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.weakened.is_empty()
    }
}

/// What the solver phase leaves of a row: the state a fresh insert of
/// its simplified condition would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    /// The condition is unsatisfiable, or what it simplified to
    /// normalises to the empty DNF.
    Drop,
    /// The row stays, storing `cond` (opaque when over budget).
    Store { cond: CondId, opaque: bool },
}

impl Fate {
    /// The fate of a row whose condition simplified to `simplified`.
    fn of(simplified: CondId) -> Fate {
        let form = dnf::normal_form(simplified);
        if form.stored.is_false() {
            Fate::Drop
        } else {
            Fate::Store {
                cond: form.stored,
                opaque: form.sets.is_none(),
            }
        }
    }
}

impl Table {
    /// An empty table with no probe index.
    pub fn new(schema: Schema) -> Self {
        let cols = vec![Vec::new(); schema.arity()];
        Table {
            schema,
            cols,
            conds: Vec::new(),
            side: HashMap::new(),
            dedup: Index::dedup(),
            indexes: Vec::new(),
        }
    }

    /// Builds a table from a plain relation (deduplicating rows), each
    /// tuple converted once and by reference, with a single-column
    /// index on every column.
    pub fn from_relation(rel: &Relation) -> Self {
        let columns: Vec<usize> = (0..rel.schema.arity()).collect();
        let single: Vec<&[usize]> = columns.chunks(1).collect();
        Table::load(rel, &single)
            .expect("relation rows match their own schema arity")
            .0
    }

    /// The one load path: `rel`'s rows inserted by reference into an
    /// empty table sized for all of them (deduplicated, conditions
    /// merged), then a probe index
    /// over each column set of `indexes`. Returns the table and how many
    /// rows changed it.
    fn load(rel: &Relation, indexes: &[&[usize]]) -> Result<(Table, usize), ArityError> {
        let mut t = Table::new(rel.schema.clone());
        for col in &mut t.cols {
            col.reserve_exact(rel.len());
        }
        t.conds.reserve_exact(rel.len());
        t.dedup.chains.reserve(rel.len());
        t.dedup.next.reserve_exact(rel.len());
        let changed = t.extend_from(rel.iter())?;
        for cols in indexes {
            t.ensure_index(cols);
        }
        Ok((t, changed))
    }

    /// The columnar twin of `db`'s relation `name`, carrying a probe
    /// index over each column set of `indexes`; `None` when `db` has no
    /// such relation.
    ///
    /// A relation is loaded once ([`Table::load`]) and its twin kept in
    /// the relation's [`TwinSlot`](faure_ctable::TwinSlot), vectors
    /// shrunk to fit. A later call hands out the same `Arc` when it has
    /// every index asked for, and otherwise replaces it by a copy
    /// extended with the missing ones — encoding no row either way, so
    /// programs that probe different columns of one relation pay for
    /// its rows once. A twin is immutable: whoever writes to one
    /// (`Arc::make_mut`) writes to a copy. A relation holding a row of
    /// the wrong arity yields the [`ArityError`] and caches nothing.
    pub fn twin(
        db: &Database,
        name: &str,
        indexes: &[&[usize]],
    ) -> Result<Option<Twin>, ArityError> {
        let Some((rel, slot)) = db.relation_and_twin(name) else {
            return Ok(None);
        };
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let cached = slot
            .as_deref()
            .and_then(|any| any.downcast_ref::<Twin>())
            .cloned();
        let (mut table, changed, encoded) = match cached {
            Some(twin) if indexes.iter().all(|cols| twin.table.has_index(cols)) => {
                return Ok(Some(twin));
            }
            Some(twin) => {
                let mut table = Table::clone(&twin.table);
                for cols in indexes {
                    table.ensure_index(cols);
                }
                (table, twin.changed, 0)
            }
            None => {
                let (table, changed) = Table::load(rel, indexes)?;
                (table, changed, rel.len())
            }
        };
        table.shrink_to_fit();
        let twin = Twin {
            table: Arc::new(table),
            changed,
            encoded: 0,
        };
        *slot = Some(Arc::new(twin.clone()));
        Ok(Some(Twin { encoded, ..twin }))
    }

    /// The twin [`Table::twin`] cached for `db`'s relation `name`, if
    /// any; builds nothing.
    pub fn cached_twin(db: &Database, name: &str) -> Option<Arc<Table>> {
        let (_, slot) = db.relation_and_twin(name)?;
        let slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let cached = slot.as_deref()?.downcast_ref::<Twin>()?;
        Some(Arc::clone(&cached.table))
    }

    /// Gives back the spare capacity of every vector and map.
    fn shrink_to_fit(&mut self) {
        for col in &mut self.cols {
            col.shrink_to_fit();
        }
        self.conds.shrink_to_fit();
        self.side.shrink_to_fit();
        self.dedup.shrink_to_fit();
        for index in &mut self.indexes {
            index.shrink_to_fit();
        }
    }

    /// Whether the table has a probe index over exactly `cols`.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.indexed_columns().any(|ix| ix == cols)
    }

    /// Builds, from the current rows, a probe index over `cols`
    /// (strictly ascending column numbers) unless the table has one.
    /// Every write keeps it in step from then on.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]) && cols.iter().all(|&c| c < self.cols.len()),
            "index columns {cols:?} out of order or beyond arity {}",
            self.cols.len()
        );
        if self.has_index(cols) {
            return;
        }
        let mut index = Index {
            cols: cols.into(),
            next: Vec::with_capacity(self.len()),
            ..Index::default()
        };
        for row in 0..self.len() as u32 {
            index.post(&self.cols, row);
        }
        self.indexes.push(index);
    }

    /// The column sets of the table's probe indexes, oldest first.
    pub fn indexed_columns(&self) -> impl Iterator<Item = &[usize]> {
        self.indexes.iter().map(|ix| &*ix.cols)
    }

    /// Inserts every tuple of `rows` by reference, returning how many
    /// of them changed the table.
    fn extend_from<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a CTuple>,
    ) -> Result<usize, ArityError> {
        // Input relations carry one condition over runs of rows (every
        // hop of a path); a run interns it once. Equal `Arc`s compare
        // by pointer, unequal conditions differ within an atom or two.
        let mut last: Option<(&Condition, CondId)> = None;
        let mut changed = 0usize;
        for row in rows {
            let cond_id = match last {
                Some((cond, id)) if *cond == row.cond => id,
                _ => pool::intern(&row.cond),
            };
            last = Some((&row.cond, cond_id));
            let cells = row.terms.iter().map(Cell::encode).collect();
            let outcome = self.insert_prepared(&PreparedRow::from_id(cells, cond_id))?;
            changed += usize::from(outcome.is_some());
        }
        Ok(changed)
    }

    /// Converts to a plain relation, materialising each row once.
    pub fn to_relation(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.rows(),
        }
    }

    /// Every row, materialised once: the cells decoded row by row, then
    /// the condition column resolved into the rows under one pool lock
    /// ([`pool::resolve_into`]), not one lock per row.
    fn rows(&self) -> Vec<CTuple> {
        let mut rows: Vec<CTuple> = (0..self.len())
            .map(|i| CTuple {
                terms: self.terms(i),
                cond: Condition::True,
            })
            .collect();
        pool::resolve_into(&self.conds, rows.iter_mut().map(|row| &mut row.cond));
        rows
    }

    /// Consuming export: like [`to_relation`](Table::to_relation) but
    /// reuses the schema allocation, and frees the dedup and probe
    /// indexes before it builds a row, so an export never holds them
    /// beside the relation it builds.
    pub fn into_relation(mut self) -> Relation {
        // What lets the table keep an id and nothing else per row: the
        // id of a row outside the side list is a normal-form fixed
        // point with an antichain. Checked at every export of a debug
        // build, which is every evaluation of the test suites; that a
        // form's `stored` id really normalises to the form's antichain
        // is checked where the form is entered (`dnf::normal_form`).
        debug_assert!((0..self.len())
            .filter(|&i| !self.side.contains_key(&(i as u32)))
            .all(|i| {
                let form = dnf::normal_form(self.conds[i]);
                form.sets.is_some() && form.stored == self.conds[i]
            }));
        self.dedup = Index::dedup();
        self.indexes = Vec::new();
        let tuples = self.rows();
        Relation {
            schema: self.schema,
            tuples,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.conds.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.conds.is_empty()
    }

    /// Materialises one row as an owned [`CTuple`]. The condition is an
    /// O(1) Arc clone out of the pool; terms decode cell-by-cell.
    pub fn row(&self, idx: usize) -> CTuple {
        CTuple {
            terms: self.terms(idx),
            cond: pool::resolve(self.conds[idx]),
        }
    }

    /// Row `idx`'s cells, decoded.
    fn terms(&self, idx: usize) -> Vec<Term> {
        self.cols.iter().map(|c| c[idx].decode()).collect()
    }

    /// One row's condition (O(1) pool resolve; avoids materialising
    /// the terms on condition-only paths). The join inner loop does not
    /// come here: it pushes [`cond_id`](Table::cond_id) as is.
    pub fn cond(&self, idx: usize) -> Condition {
        pool::resolve(self.conds[idx])
    }

    /// One row's pooled condition id.
    pub fn cond_id(&self, idx: usize) -> CondId {
        self.conds[idx]
    }

    /// One cell, decoded (column-major access: `col` then `idx`).
    pub fn term(&self, idx: usize, col: usize) -> Term {
        self.cols[col][idx].decode()
    }

    /// One cell, raw.
    pub fn cell(&self, idx: usize, col: usize) -> Cell {
        self.cols[col][idx]
    }

    /// Iterates over all rows, materialising each once. Lazy, so each
    /// row resolves its own condition: resolving the column up front
    /// would hold a buffer of every condition beside the rows a caller
    /// keeps. A whole-table export goes through
    /// [`to_relation`](Table::to_relation) or
    /// [`into_relation`](Table::into_relation), which take the pool lock
    /// once.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CTuple> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Inserts a tuple, deduplicating by terms and merging conditions.
    ///
    /// The tuple's condition should be structurally simplified by the
    /// caller (the evaluation engine does); `Condition::False` rows are
    /// rejected outright, as are rows whose condition normalises to the
    /// empty DNF. A tuple whose arity disagrees with the schema is a
    /// typed [`ArityError`], not a panic.
    pub fn insert(&mut self, tuple: CTuple) -> Result<InsertOutcome, ArityError> {
        let len = self.len();
        let changed = self.insert_prepared(&PreparedRow::from_tuple(&tuple))?;
        Ok(match changed {
            None => InsertOutcome::Unchanged,
            Some(idx) if idx == len => InsertOutcome::New,
            Some(_) => InsertOutcome::Merged,
        })
    }

    /// Inserts a prepared row (see [`PreparedRow`]): hash lookups on
    /// interned data and `Copy` cell appends. A new row stores the id
    /// the row already carries; only a merge into an existing row looks
    /// at antichains. Returns the index of the row the insert changed —
    /// a new one, or the one that gained a disjunct — and `None` when it
    /// changed nothing.
    ///
    /// The row's cells are hashed once: a new row is posted on the
    /// dedup chain under the hash its lookup missed with.
    pub fn insert_prepared(&mut self, row: &PreparedRow) -> Result<Option<usize>, ArityError> {
        if row.cells.len() != self.schema.arity() {
            return Err(ArityError {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.cells.len(),
            });
        }
        if row.is_false() {
            return Ok(None);
        }
        let cell = |c: usize| row.cells[c];
        let key = self.dedup.hash(self.cols.len(), cell);
        if let Some(idx) = self.dedup.find_hashed(key, &self.cols, cell) {
            let cond = &mut self.conds[idx as usize];
            let changed = merge_cond(cond, &mut self.side, idx, row.cond);
            return Ok(changed.then_some(idx as usize));
        }
        // `END` marks the end of a posting chain.
        let idx = u32::try_from(self.conds.len())
            .ok()
            .filter(|&i| i != END)
            .expect("row count overflow");
        for (col, &cell) in self.cols.iter_mut().zip(row.cells.iter()) {
            col.push(cell);
        }
        self.dedup.post_hashed(&self.cols, idx, Some(key));
        for index in &mut self.indexes {
            index.post(&self.cols, idx);
        }
        self.conds.push(store_new(&mut self.side, idx, row.cond));
        Ok(Some(idx as usize))
    }

    /// Partitioned build: merges per-worker result partitions in
    /// **stable partition order** (partition 0 first, then 1, …, and
    /// within each partition in vector order).
    ///
    /// Because parallel evaluation partitions the serial enumeration
    /// into contiguous chunks, replaying the chunks in order makes the
    /// insert sequence — and therefore every merged condition —
    /// bit-identical to a serial run. `on_changed` fires with the index
    /// of each row that changed the table (new terms or a new condition
    /// disjunct) and the row that changed it, in that same deterministic
    /// order; the engine uses it to record semi-naive deltas.
    pub fn absorb_partitions(
        &mut self,
        partitions: Vec<Vec<PreparedRow>>,
        mut on_changed: impl FnMut((usize, &PreparedRow)),
    ) -> Result<(), ArityError> {
        for part in partitions {
            for prow in &part {
                if let Some(idx) = self.insert_prepared(prow)? {
                    on_changed((idx, prow));
                }
            }
        }
        Ok(())
    }

    /// Where a probe on `key` finds its candidates — `key[c]` is the
    /// cell column `c` must match, `None` for a free column — in the
    /// order it examines them. A key of constants on every column is
    /// one dedup-index lookup; otherwise the index over exactly the
    /// key's constant columns; otherwise the index whose columns are
    /// all bound to constants and whose key has the fewest candidates
    /// (the first such on a tie); otherwise every row. Within a key,
    /// rows come oldest first, and c-variable rows after constant ones.
    /// A c-variable in the key conditionally matches every constant, so
    /// no index can serve its column.
    ///
    /// The exact index is the one a compiled plan asks for, so it wins
    /// whatever other indexes a shared table has collected for other
    /// programs: a plan's match order does not depend on them.
    fn candidates(&self, key: &[Option<Cell>]) -> Candidates<'_> {
        debug_assert_eq!(key.len(), self.cols.len(), "key arity");
        let constant = |c: usize| key[c].is_some_and(|cell| cell.as_var().is_none());
        let bound = |c: usize| key[c].expect("a lookup reads bound columns only");
        if (0..key.len()).all(constant) {
            let row = self.dedup.find(&self.cols, bound);
            return Candidates::Exact(row, self.dedup.var_rows.iter());
        }
        let exact = self.indexes.iter().find(|ix| {
            ix.cols
                .iter()
                .copied()
                .eq((0..key.len()).filter(|&c| constant(c)))
        });
        let best = match exact {
            Some(ix) => Some((ix, ix.chain(key.len(), bound))),
            None => self
                .indexes
                .iter()
                .filter(|ix| ix.cols.iter().all(|&c| constant(c)))
                .map(|ix| (ix, ix.chain(key.len(), bound)))
                .min_by_key(|(ix, chain)| {
                    chain.map_or(0, |ch| ch.len as usize) + ix.var_rows.len()
                }),
        };
        match best {
            Some((ix, chain)) => Candidates::Chain {
                at: chain.map_or(END, |ch| ch.head),
                next: &ix.next,
                then: ix.var_rows.iter(),
            },
            None => Candidates::Scan(0..self.len() as u32),
        }
    }

    /// The probe key of per-column patterns.
    pub(crate) fn pattern_key(&self, pats: &[Pattern]) -> Vec<Option<Cell>> {
        assert_eq!(pats.len(), self.schema.arity(), "pattern arity mismatch");
        pats.iter()
            .map(|p| match p {
                Pattern::Any => None,
                Pattern::Exact(t) => Some(Cell::encode(t)),
            })
            .collect()
    }

    /// Calls `visit` with every row matching `key` (see
    /// [`candidates`](Table::candidates)) and its match condition `μ`,
    /// in candidate order. Returns how many rows it examined.
    pub(crate) fn matches(
        &self,
        reg: &CVarRegistry,
        key: &[Option<Cell>],
        mut visit: impl FnMut(u32, Condition),
    ) -> usize {
        let mut examined = 0usize;
        for row in self.candidates(key) {
            examined += 1;
            if let Some(mu) = self.match_key(reg, row, key) {
                visit(row, mu);
            }
        }
        examined
    }

    /// Matches a row against per-column patterns, producing the match
    /// condition `μ`, or `None` if the row cannot match.
    ///
    /// The row's own condition is **not** included; callers conjoin it.
    pub fn match_row(reg: &CVarRegistry, row: &CTuple, pats: &[Pattern]) -> Option<Condition> {
        debug_assert_eq!(row.arity(), pats.len());
        let mut cond = Condition::True;
        for (term, pat) in row.terms.iter().zip(pats) {
            match pat {
                Pattern::Any => {}
                Pattern::Exact(p) => match (p, term) {
                    (Term::Const(a), Term::Const(b)) => {
                        if a != b {
                            return None;
                        }
                    }
                    (Term::Const(c), Term::Var(v)) => {
                        if !reg.domain(*v).contains(c) {
                            return None;
                        }
                        cond = cond.and(Condition::eq(Term::Var(*v), Term::Const(c.clone())));
                    }
                    (Term::Var(u), Term::Const(d)) => {
                        if !reg.domain(*u).contains(d) {
                            return None;
                        }
                        cond = cond.and(Condition::eq(Term::Var(*u), Term::Const(d.clone())));
                    }
                    (Term::Var(u), Term::Var(v)) => {
                        if u != v {
                            cond = cond.and(Condition::eq(Term::Var(*u), Term::Var(*v)));
                        }
                    }
                },
            }
        }
        Some(cond)
    }

    /// Columnar [`match_row`](Table::match_row) of row `idx` against a
    /// probe key: the same four cases and the same μ construction
    /// order, reading `Copy` cells straight out of the column vectors.
    pub(crate) fn match_key(
        &self,
        reg: &CVarRegistry,
        idx: u32,
        key: &[Option<Cell>],
    ) -> Option<Condition> {
        let mut cond = Condition::True;
        for (col, want) in self.cols.iter().zip(key) {
            let Some(want) = *want else { continue };
            let cell = col[idx as usize];
            match (want, cell) {
                (Cell::Var(u), Cell::Var(v)) => {
                    if u != v {
                        cond = cond.and(Condition::eq(Term::Var(u), Term::Var(v)));
                    }
                }
                (Cell::Var(u), d) | (d, Cell::Var(u)) => {
                    let d = d.decode_const().expect("non-var cell decodes to const");
                    if !reg.domain(u).contains(&d) {
                        return None;
                    }
                    cond = cond.and(Condition::eq(Term::Var(u), Term::Const(d)));
                }
                (a, b) => {
                    if a != b {
                        return None;
                    }
                }
            }
        }
        Some(cond)
    }

    /// Finds all rows matching the per-column patterns. Returns
    /// `(row index, match condition μ)` pairs, in the order the probe
    /// examines its candidates: looked up by the constant key the
    /// patterns bind (see [`ensure_index`](Table::ensure_index)), c-variable
    /// rows last.
    pub fn find_matches(&self, reg: &CVarRegistry, pats: &[Pattern]) -> Vec<(usize, Condition)> {
        let mut out = Vec::new();
        self.matches(reg, &self.pattern_key(pats), |row, mu| {
            out.push((row as usize, mu));
        });
        out
    }

    /// The c-table negation condition for a candidate tuple `terms`:
    ///
    /// ```text
    /// ⋀ over matching rows r:  ¬(ψ_r ∧ μ(terms, r))
    /// ```
    ///
    /// i.e. the condition under which `terms` is **not** derivable from
    /// this table. This is the "not derivable from the c-table"
    /// semantics the paper adopts for negation.
    pub fn negation_condition(&self, reg: &CVarRegistry, terms: &[Term]) -> Condition {
        let cells: Vec<Cell> = terms.iter().map(Cell::encode).collect();
        self.negation_condition_cells(reg, &cells)
    }

    /// [`negation_condition`](Table::negation_condition) of an already
    /// encoded tuple.
    pub fn negation_condition_cells(&self, reg: &CVarRegistry, cells: &[Cell]) -> Condition {
        assert_eq!(cells.len(), self.schema.arity(), "pattern arity mismatch");
        let key: Vec<Option<Cell>> = cells.iter().copied().map(Some).collect();
        let mut cond = Condition::True;
        self.matches(reg, &key, |row, mu| {
            if cond != Condition::False {
                let psi = self.cond(row as usize);
                cond = std::mem::replace(&mut cond, Condition::True).and(psi.and(mu).negate());
            }
        });
        cond
    }

    /// Solver phase: removes rows with unsatisfiable conditions and
    /// simplifies the remaining ones, in place. Returns the number of
    /// rows removed. Columns and indexes are touched (compacted,
    /// rebuilt) only if some row goes.
    ///
    /// Whether a condition survives, and as what, is a fact about the
    /// condition: it is decided once per distinct [`CondId`] and the
    /// rows are then a walk over the condition column. Antichain
    /// conditions are pruned **per disjunct** (each disjunct is a plain
    /// conjunction — a single theory query); opaque conditions go
    /// through the budget-guarded whole-condition simplification, row
    /// by row. Survivors stay in order, each as a fresh insert of its
    /// simplified condition would store it.
    pub fn prune(
        &mut self,
        reg: &CVarRegistry,
        session: &mut Session,
    ) -> Result<usize, SolverError> {
        self.prune_in_place(reg, session, 0..self.len())
    }

    /// Decides and applies the fate of the rows at `indices`, then
    /// compacts the dead ones away. Returns how many went.
    fn prune_in_place(
        &mut self,
        reg: &CVarRegistry,
        session: &mut Session,
        indices: impl IntoIterator<Item = usize>,
    ) -> Result<usize, SolverError> {
        let mut decided: HashMap<CondId, Fate> = HashMap::new();
        let mut kill: Vec<bool> = Vec::new();
        let mut removed = 0usize;
        for idx in indices {
            let id = self.conds[idx];
            let fate = match self.side.get(&(idx as u32)) {
                Some(CondRepr::Sets(sets)) => {
                    Fate::of(Self::prune_cond(reg, session, id, Some(sets))?)
                }
                Some(CondRepr::Opaque(_)) => Fate::of(Self::prune_cond(reg, session, id, None)?),
                None => match decided.get(&id) {
                    Some(&fate) => fate,
                    None => {
                        let form = dnf::normal_form(id);
                        let fate =
                            Fate::of(Self::prune_cond(reg, session, id, form.sets.as_deref())?);
                        decided.insert(id, fate);
                        fate
                    }
                },
            };
            match fate {
                Fate::Store { cond, opaque } => self.store(idx, cond, opaque),
                Fate::Drop => {
                    if kill.is_empty() {
                        kill = vec![false; self.len()];
                    }
                    if !std::mem::replace(&mut kill[idx], true) {
                        removed += 1;
                    }
                }
            }
        }
        if !kill.is_empty() {
            self.compact(&kill);
        }
        Ok(removed)
    }

    /// The simplified condition of a row whose condition is `cond`:
    /// [`CondId::FALSE`] if it is unsatisfiable. `sets` is the row's
    /// antichain (`cond == intern(condition_of(sets))`), `None` for an
    /// opaque row. A deterministic function of its arguments (solver
    /// results are ground truth), which is what lets one decision stand
    /// for every row sharing the condition, on any thread.
    ///
    /// The solver is asked one question per condition. An opaque or
    /// single-disjunct condition is simplified and nothing else: the
    /// simplification decides its satisfiability on the way. A wider
    /// antichain asks each disjunct whether it is satisfiable, then
    /// simplifies the disjunction of the live ones.
    fn prune_cond(
        reg: &CVarRegistry,
        session: &mut Session,
        cond: CondId,
        sets: Option<&[AtomSet]>,
    ) -> Result<CondId, SolverError> {
        let sets = match sets {
            Some(sets) if sets.len() > 1 => sets,
            _ => return session.simplify_pruned_id(reg, cond),
        };
        let mut live: Vec<&AtomSet> = Vec::with_capacity(sets.len());
        for set in sets {
            let conj = pool::intern(&dnf::condition_of(std::slice::from_ref(set)));
            if session.satisfiable_id(reg, conj)? {
                live.push(set);
            }
        }
        if live.is_empty() {
            return Ok(CondId::FALSE);
        }
        let survivor = if live.len() == sets.len() {
            cond
        } else {
            let live: Vec<AtomSet> = live.into_iter().cloned().collect();
            pool::intern(&dnf::condition_of(&live))
        };
        if pool::resolve(survivor).size() <= 128 {
            // Small survivor: also detect validity (e.g.
            // {x̄=0} ∨ {x̄=1} over {0,1} → empty condition).
            session.simplify_pruned_id(reg, survivor)
        } else {
            Ok(survivor)
        }
    }

    /// The row index holding exactly these terms, if present (expected
    /// O(1): one dedup chain, its rows compared cell by cell).
    /// Nothing is allocated: the terms are encoded as the lookup reads
    /// them.
    pub fn find_row(&self, terms: &[Term]) -> Option<usize> {
        if terms.len() != self.cols.len() {
            return None;
        }
        self.dedup
            .find(&self.cols, |c| Cell::encode(&terms[c]))
            .map(|i| i as usize)
    }

    /// [`find_row`](Table::find_row) on already encoded cells.
    pub fn find_row_cells(&self, cells: &[Cell]) -> Option<usize> {
        if cells.len() != self.cols.len() {
            return None;
        }
        self.dedup
            .find(&self.cols, |c| cells[c])
            .map(|i| i as usize)
    }

    /// Whether row `idx` stores its condition as a minimal-DNF
    /// antichain (the `Sets` representation). Incremental maintenance
    /// only certifies a merged row as "pure antichain append" — safe to
    /// propagate upward as just its new disjuncts — when this holds;
    /// opaque conditions fall back to delete-and-reinsert propagation.
    pub fn has_sets_repr(&self, idx: usize) -> bool {
        !matches!(self.side.get(&(idx as u32)), Some(CondRepr::Opaque(_)))
    }

    /// Whether any row stores a c-variable in a *cell* (conditions may
    /// still mention c-variables freely). Join results over var-free
    /// cells are independent of the plan's literal order — bindings
    /// never chain through a c-variable, so every match condition is a
    /// ground comparison that folds on the spot. Incremental
    /// maintenance uses this as the gate for in-place delta
    /// propagation; tables with var cells fall back to stratum
    /// recomputation to stay bit-identical with batch evaluation.
    pub fn has_var_cells(&self) -> bool {
        !self.dedup.var_rows.is_empty()
    }

    /// Removes the rows at `indices` (duplicates and any order are
    /// fine), returning the removed rows materialised in index order.
    ///
    /// Each removal moves the table's last row into the freed slot and
    /// patches the dedup index, the two rows' posting chains and
    /// c-variable lists and the side list — work proportional to the
    /// rows removed,
    /// not to the table. Surviving rows keep their exact condition
    /// representation; their *order* is not kept (it is not part of the
    /// contract: the row set and the stored conditions are).
    pub fn remove_rows(&mut self, indices: &[usize]) -> Vec<CTuple> {
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let removed = sorted.iter().map(|&i| self.row(i)).collect();
        // Highest first: the row moved into a freed slot then always
        // comes from above every index still to go.
        for &idx in sorted.iter().rev() {
            self.swap_remove(idx);
        }
        removed
    }

    /// Removes row `idx` by moving the last row into its place.
    fn swap_remove(&mut self, idx: usize) {
        let last = self.len() - 1;
        let (row, moved) = (idx as u32, last as u32);
        // The lists and chains are patched while both rows' cells are
        // in place.
        for index in std::iter::once(&mut self.dedup).chain(&mut self.indexes) {
            index.swap_remove(&self.cols, row, moved);
        }
        for col in &mut self.cols {
            col.swap_remove(idx);
        }
        self.conds.swap_remove(idx);
        if !self.side.is_empty() {
            self.side.remove(&row);
            if let Some(repr) = self.side.remove(&moved) {
                self.side.insert(row, repr);
            }
        }
    }

    /// Unions `rows` into the table for the time being: each is an
    /// ordinary insert, and the returned [`Overlay`] remembers what the
    /// inserts changed so that [`remove_overlay`](Table::remove_overlay)
    /// can take exactly that back. Incremental maintenance overlays the
    /// old versions of deleted rows while it looks for the rows derived
    /// from them. Nothing else may write to the table in between.
    pub fn overlay<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a CTuple>,
    ) -> Result<Overlay, ArityError> {
        let mut undo = Vec::new();
        for row in rows {
            let prow = PreparedRow::from_tuple(row);
            let found = self.find_row_cells(&prow.cells);
            let before = found.map(|idx| RowCond {
                cond: self.conds[idx],
                side: self.side.get(&(idx as u32)).cloned(),
            });
            // A merge can rewrite a side-list entry without changing
            // the condition, so such a row is put back either way.
            let rewritable = before.as_ref().is_some_and(|b| b.side.is_some());
            let changed = self.insert_prepared(&prow)?;
            if let Some(idx) = changed.or(found.filter(|_| rewritable)) {
                undo.push((idx, before));
            }
        }
        Ok(Overlay { undo })
    }

    /// Undoes an [`overlay`](Table::overlay): a row it added is removed,
    /// a row it merged into gets back the condition (and side-list
    /// entry) it had, a row it left unchanged is not touched.
    pub fn remove_overlay(&mut self, overlay: Overlay) {
        // Newest first, so a row named twice ends as it began, and a
        // row the overlay added is the last when it goes: no other write
        // comes in between, and undoing a merge moves no row.
        for (idx, before) in overlay.undo.into_iter().rev() {
            match before {
                None => {
                    debug_assert_eq!(idx + 1, self.len(), "an added row is the last");
                    self.swap_remove(idx);
                }
                Some(RowCond { cond, side }) => {
                    self.conds[idx] = cond;
                    match side {
                        Some(repr) => self.side.insert(idx as u32, repr),
                        None => self.side.remove(&(idx as u32)),
                    };
                }
            }
        }
    }

    /// Compacts away every row `r` with `kill[r]` set and rebuilds the
    /// indexes over the survivors.
    fn compact(&mut self, kill: &[bool]) {
        fn keep<T>(v: &mut Vec<T>, kill: &[bool]) {
            let mut w = 0usize;
            for (r, &dead) in kill.iter().enumerate() {
                if !dead {
                    v.swap(w, r);
                    w += 1;
                }
            }
            v.truncate(w);
        }
        for col in &mut self.cols {
            keep(col, kill);
        }
        keep(&mut self.conds, kill);
        if !self.side.is_empty() {
            // Side entries follow their rows to the new indices.
            let mut old = std::mem::take(&mut self.side);
            let survivors = kill.iter().enumerate().filter(|(_, &dead)| !dead);
            for (new_idx, (old_idx, _)) in survivors.enumerate() {
                if let Some(repr) = old.remove(&(old_idx as u32)) {
                    self.side.insert(new_idx as u32, repr);
                }
            }
        }
        self.reindex();
    }

    /// Rebuilds the dedup index and every probe index from the column
    /// vectors.
    fn reindex(&mut self) {
        let len = self.len() as u32;
        for index in std::iter::once(&mut self.dedup).chain(&mut self.indexes) {
            index.clear();
            for idx in 0..len {
                index.post(&self.cols, idx);
            }
        }
    }

    /// Replaces one row's condition in place, leaving its pooled id and
    /// (antichain or opaque) representation exactly as a fresh insert
    /// of that condition would. Returns `false` when the new condition
    /// is `False` or normalises to the empty DNF — the row is then dead
    /// and the caller must [`remove_rows`](Table::remove_rows) it.
    pub fn adjust_condition(&mut self, idx: usize, cond: &Condition) -> bool {
        match Fate::of(pool::intern(cond)) {
            Fate::Store { cond, opaque } => {
                self.store(idx, cond, opaque);
                true
            }
            Fate::Drop => false,
        }
    }

    /// Writes a [`Fate::Store`] into row `idx`.
    fn store(&mut self, idx: usize, cond: CondId, opaque: bool) {
        self.conds[idx] = cond;
        if opaque {
            self.side.insert(idx as u32, CondRepr::Opaque(vec![cond]));
        } else if !self.side.is_empty() {
            self.side.remove(&(idx as u32));
        }
    }

    /// Row-targeted [`prune`](Table::prune): solver-prunes only the
    /// rows at `indices` (distinct), adjusting surviving conditions in
    /// place and removing rows whose condition is unsatisfiable or
    /// simplifies to an empty DNF. Returns the number of rows removed.
    /// Each row's fate is the same function of its condition as in a
    /// full prune, so pruning a subset leaves the rest bit-identical to
    /// never having pruned.
    pub fn prune_rows(
        &mut self,
        reg: &CVarRegistry,
        session: &mut Session,
        indices: &[usize],
    ) -> Result<usize, SolverError> {
        self.prune_in_place(reg, session, indices.iter().copied())
    }

    /// Applies one §5-style deletion pattern: `cols[i] = Some(c)`
    /// constrains attribute `i` to the constant `c`, `None` leaves it
    /// free. Mirrors the Levy–Sagiv semantics of
    /// `faure_core::update::apply_to_database` exactly, per row:
    ///
    /// * a constant cell that disagrees with its constraint keeps the
    ///   row untouched;
    /// * otherwise μ conjoins `v̄ = c` for every c-variable cell under a
    ///   constrained column (in column order);
    /// * μ = `True` removes the row; anything else weakens the row's
    ///   condition to `ψ ∧ ¬μ` (and removes it if that collapses).
    pub fn delete_where(&mut self, cols: &[Option<Const>]) -> DeletionEffect {
        assert_eq!(cols.len(), self.schema.arity(), "pattern arity mismatch");
        // Only a row holding the constants, or c-variables, under the
        // constrained columns can match: a probe's candidates, in row
        // order.
        let key: Vec<Option<Cell>> = cols
            .iter()
            .map(|want| want.as_ref().map(Cell::encode_const))
            .collect();
        let mut candidates: Vec<usize> = self.candidates(&key).map(|r| r as usize).collect();
        candidates.sort_unstable();
        let mut drop_idx = Vec::new();
        let mut weakened = Vec::new();
        for idx in candidates {
            let mut mu = Condition::True;
            let mut keep = false;
            for (col, want) in self.cols.iter().zip(cols) {
                if let Some(c) = want {
                    match col[idx] {
                        Cell::Var(v) => {
                            mu = mu.and(Condition::eq(Term::Var(v), Term::Const(c.clone())));
                        }
                        cell => {
                            if cell != Cell::encode_const(c) {
                                keep = true;
                                break;
                            }
                        }
                    }
                }
            }
            if keep {
                continue;
            }
            if mu == Condition::True {
                drop_idx.push(idx);
            } else {
                let old = self.row(idx);
                let new_cond = old.cond.clone().and(mu.negate());
                if !self.adjust_condition(idx, &new_cond) {
                    drop_idx.push(idx);
                    // Reported as removed (it is gone), not weakened.
                    continue;
                }
                weakened.push(old);
            }
        }
        // `drop_idx` rows still hold their old condition (a failed
        // `adjust_condition` does not write), so `remove_rows`
        // materialises the old versions.
        let removed = self.remove_rows(&drop_idx);
        DeletionEffect { removed, weakened }
    }
}

/// The prune this table ran before conditions stayed interned, kept as
/// the reference the in-place walk is tested against: drain every row,
/// decide it on its own through the condition *trees*, re-insert the
/// survivors into the emptied table. Nothing here goes through
/// [`Table::prune_cond`] or the id-taking [`Session`] entry points.
#[cfg(test)]
impl Table {
    fn prune_by_reinsertion(
        &mut self,
        reg: &CVarRegistry,
        session: &mut Session,
    ) -> Result<usize, SolverError> {
        let work = self.take_rows();
        let mut kept_rows = Vec::with_capacity(work.len());
        let mut removed = 0usize;
        for (row, repr) in work {
            match Self::prune_row(reg, session, row, repr)? {
                Some(kept) => kept_rows.push(kept),
                None => removed += 1,
            }
        }
        self.rebuild_from(kept_rows);
        Ok(removed)
    }

    /// Drains the table into `(materialised row, repr)` work items,
    /// leaving it empty (columns and indexes cleared).
    fn take_rows(&mut self) -> Vec<(CTuple, CondRepr)> {
        let work = (0..self.len())
            .map(|i| {
                let repr = self.side.get(&(i as u32)).cloned().unwrap_or_else(|| {
                    let form = dnf::normal_form(self.conds[i]);
                    CondRepr::Sets(form.sets.clone().expect("antichain of a row by id"))
                });
                (self.row(i), repr)
            })
            .collect();
        *self = Table::new(self.schema.clone());
        work
    }

    /// Prunes one row: `None` if its condition is unsatisfiable,
    /// otherwise the row with its condition simplified.
    fn prune_row(
        reg: &CVarRegistry,
        session: &mut Session,
        row: CTuple,
        repr: CondRepr,
    ) -> Result<Option<CTuple>, SolverError> {
        let simplified = match repr {
            CondRepr::Sets(sets) => {
                let mut live = Vec::with_capacity(sets.len());
                for set in sets {
                    let conj = dnf::condition_of(std::slice::from_ref(&set));
                    if session.satisfiable(reg, &conj)? {
                        live.push(set);
                    }
                }
                let cond = dnf::condition_of(&live);
                if cond == Condition::False {
                    Condition::False
                } else if cond.size() <= 128 {
                    session.simplify_pruned(reg, &cond)?
                } else {
                    cond
                }
            }
            CondRepr::Opaque(_) => session.simplify_pruned(reg, &row.cond)?,
        };
        Ok((simplified != Condition::False).then_some(CTuple {
            terms: row.terms,
            cond: simplified,
        }))
    }

    fn rebuild_from(&mut self, rows: Vec<CTuple>) {
        for row in rows {
            self.insert(row)
                .expect("rebuilt rows came from this table and match its arity");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{Database, Domain};

    fn db_with_xy() -> (CVarRegistry, faure_ctable::CVarId, faure_ctable::CVarId) {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar(
            "y",
            Domain::Consts(vec![Const::sym("1.2.3.4"), Const::sym("1.2.3.5")]),
        );
        (db.cvars, x, y)
    }

    #[test]
    fn insert_dedups_terms_and_merges_conditions() {
        let (reg, x, _) = db_with_xy();
        let _ = reg;
        let mut t = Table::new(Schema::new("T", &["a"]));
        let c0 = Condition::eq(Term::Var(x), Term::int(0));
        let c1 = Condition::eq(Term::Var(x), Term::int(1));
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], c0.clone()))
                .unwrap(),
            InsertOutcome::New
        );
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], c0.clone()))
                .unwrap(),
            InsertOutcome::Unchanged
        );
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], c1.clone()))
                .unwrap(),
            InsertOutcome::Merged
        );
        assert_eq!(t.len(), 1);
        assert!(faure_solver::equivalent(&reg, &t.row(0).cond, &c0.or(c1)).unwrap());
    }

    #[test]
    fn unconditional_row_absorbs() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::new([Term::int(7)])).unwrap();
        assert_eq!(
            t.insert(CTuple::with_cond(
                [Term::int(7)],
                Condition::eq(Term::Var(x), Term::int(0))
            ))
            .unwrap(),
            InsertOutcome::Unchanged
        );
        assert_eq!(t.row(0).cond, Condition::True);
    }

    #[test]
    fn false_condition_rejected() {
        let mut t = Table::new(Schema::new("T", &["a"]));
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], Condition::False))
                .unwrap(),
            InsertOutcome::Unchanged
        );
        assert!(t.is_empty());
    }

    #[test]
    fn cell_encoding_is_injective_round_trip() {
        // Int(1), Sym("1") and List([1]) must stay three distinct
        // cells and decode back to their exact source terms.
        let terms = [
            Term::int(1),
            Term::sym("1"),
            Term::Const(Const::list([Const::Int(1)])),
        ];
        let cells: Vec<Cell> = terms.iter().map(Cell::encode).collect();
        assert_ne!(cells[0], cells[1]);
        assert_ne!(cells[0], cells[2]);
        assert_ne!(cells[1], cells[2]);
        for (t, c) in terms.iter().zip(&cells) {
            assert_eq!(&c.decode(), t);
        }
    }

    #[test]
    fn dedup_keys_on_exact_cells_not_hashes() {
        // Rows whose term vectors differ only in representation kind
        // (Int vs Sym vs List spelling the "same" value) must never
        // merge, and re-inserting each exact row must hit its own row:
        // the dedup chain is found by a hash, and every row on it is
        // compared with the key cell by cell. A c-variable cell is
        // hashed and compared as itself: it never dedups onto a
        // constant or another variable.
        let (_, x, y) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        let rows = [
            [Term::int(1), Term::int(2)],
            [Term::sym("1"), Term::int(2)],
            [Term::int(1), Term::sym("2")],
            [Term::Const(Const::list([Const::Int(1)])), Term::int(2)],
            [Term::int(2), Term::int(1)], // swapped order is distinct
            [Term::Var(x), Term::int(2)],
            [Term::Var(y), Term::int(2)],
            [Term::Var(x), Term::int(1)],
        ];
        for row in &rows {
            assert_eq!(
                t.insert(CTuple::new(row.clone())).unwrap(),
                InsertOutcome::New
            );
        }
        assert_eq!(t.len(), rows.len());
        // Exact re-inserts dedup onto the existing row, never a new one.
        for row in &rows {
            assert_eq!(
                t.insert(CTuple::new(row.clone())).unwrap(),
                InsertOutcome::Unchanged
            );
        }
        assert_eq!(t.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(t.row(i).terms, row.to_vec());
        }
    }

    #[test]
    fn constant_pattern_matches_var_cell_conditionally() {
        let (reg, _, y) = db_with_xy();
        let mut t = Table::new(Schema::new("P", &["dest", "path"]));
        t.insert(CTuple::with_cond(
            [Term::Var(y), Term::sym("[ABE]")],
            Condition::ne(Term::Var(y), Term::sym("1.2.3.4")),
        ))
        .unwrap();
        // Pattern P(1.2.3.5, Any) — the paper's q3 example.
        let pats = [Pattern::Exact(Term::sym("1.2.3.5")), Pattern::Any];
        let matches = t.find_matches(&reg, &pats);
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].1,
            Condition::eq(Term::Var(y), Term::sym("1.2.3.5"))
        );
    }

    #[test]
    fn constant_outside_domain_does_not_match() {
        let (reg, _, y) = db_with_xy();
        let mut t = Table::new(Schema::new("P", &["dest"]));
        t.insert(CTuple::new([Term::Var(y)])).unwrap();
        // 9.9.9.9 is outside dom(ȳ) = {1.2.3.4, 1.2.3.5}.
        let matches = t.find_matches(&reg, &[Pattern::Exact(Term::sym("9.9.9.9"))]);
        assert!(matches.is_empty());
    }

    #[test]
    fn index_probe_equals_full_scan() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("F", &["a", "b"]));
        for i in 0..100 {
            t.insert(CTuple::new([Term::int(i % 10), Term::int(i)]))
                .unwrap();
        }
        t.insert(CTuple::with_cond(
            [Term::Var(x), Term::int(1000)],
            Condition::True,
        ))
        .unwrap();
        let pats = [Pattern::Exact(Term::int(3)), Pattern::Any];
        let mut via_index: Vec<usize> = t
            .find_matches(&reg, &pats)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        via_index.sort_unstable();
        let mut via_scan: Vec<usize> = t
            .iter()
            .enumerate()
            .filter_map(|(i, row)| Table::match_row(&reg, &row, &pats).map(|_| i))
            .collect();
        via_scan.sort_unstable();
        assert_eq!(via_index, via_scan);
        // 10 constant matches plus the var row (3 ∈ {0,1}? no — x̄ is
        // Bool01, and 3 ∉ {0,1}, so the var row does NOT match).
        assert_eq!(via_index.len(), 10);
    }

    /// A probe bound on columns 0 and 2 examines its candidates in the
    /// order the index over exactly (0, 2) gives — constant rows, then
    /// c-variable rows — whether or not the table also has an index
    /// over column 0 alone, which here ties with it on candidates and
    /// would list them in row order.
    #[test]
    fn the_exact_index_decides_the_candidate_order() {
        let (reg, x, _) = db_with_xy();
        let rows = [
            CTuple::new([Term::int(1), Term::int(7), Term::Var(x)]),
            CTuple::new([Term::int(1), Term::int(8), Term::int(0)]),
        ];
        let pats = [
            Pattern::Exact(Term::int(1)),
            Pattern::Any,
            Pattern::Exact(Term::int(0)),
        ];
        let order = |indexes: &[&[usize]]| -> Vec<usize> {
            let mut t = Table::new(Schema::new("F", &["a", "b", "c"]));
            for cols in indexes {
                t.ensure_index(cols);
            }
            for row in &rows {
                t.insert(row.clone()).unwrap();
            }
            t.find_matches(&reg, &pats)
                .into_iter()
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(order(&[&[0, 2]]), [1, 0]);
        assert_eq!(order(&[&[0], &[0, 2]]), [1, 0]);
        assert_eq!(order(&[&[0, 2], &[0]]), [1, 0]);
        // Without it, the fewest candidates win: column 0's chain, in
        // row order.
        assert_eq!(order(&[&[0], &[2]]), [0, 1]);
    }

    fn twin_db() -> Database {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        db.create_relation(Schema::new("F", &["a", "b"])).unwrap();
        for (a, b) in [(1, 2), (2, 3), (1, 2), (3, 1)] {
            db.insert("F", CTuple::new([Term::int(a), Term::int(b)]))
                .unwrap();
        }
        db.insert(
            "F",
            CTuple::with_cond(
                [Term::int(2), Term::int(3)],
                Condition::eq(Term::Var(x), Term::int(1)),
            ),
        )
        .unwrap();
        db
    }

    /// A twin is the table `from_relation` loads, with the indexes asked
    /// for; asked again it is the same `Arc`, and asked for one more
    /// index it is a copy that has it — neither encodes a row, and both
    /// report the load's changed-row count.
    #[test]
    fn a_twin_is_loaded_once_and_extended_by_copy() {
        let db = twin_db();
        let rel = db.relation("F").unwrap();
        let first = Table::twin(&db, "F", &[&[0]]).unwrap().unwrap();
        assert_eq!((first.changed, first.encoded), (3, rel.len()));
        assert_eq!(
            first.table.iter().collect::<Vec<_>>(),
            Table::from_relation(rel).iter().collect::<Vec<_>>()
        );
        let cols = |t: &Table| {
            t.indexed_columns()
                .map(<[usize]>::to_vec)
                .collect::<Vec<_>>()
        };
        assert_eq!(cols(&first.table), [vec![0]]);

        let again = Table::twin(&db, "F", &[]).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first.table, &again.table));
        assert_eq!((again.changed, again.encoded), (3, 0));

        let wider = Table::twin(&db, "F", &[&[1]]).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first.table, &wider.table));
        assert_eq!((wider.changed, wider.encoded), (3, 0));
        assert_eq!(cols(&wider.table), [vec![0], vec![1]]);
        assert_eq!(cols(&first.table), [vec![0]], "the old twin is not written");
        let cached = Table::cached_twin(&db, "F").unwrap();
        assert!(Arc::ptr_eq(&cached, &wider.table));

        assert!(Table::twin(&db, "G", &[]).unwrap().is_none());
        assert!(Table::cached_twin(&db, "G").is_none());
    }

    /// A relation holding a row of the wrong arity yields the error every
    /// time and caches nothing.
    #[test]
    fn a_twin_that_fails_to_load_is_not_cached() {
        let mut db = twin_db();
        db.relation_mut("F")
            .unwrap()
            .tuples
            .push(CTuple::new([Term::int(1)]));
        for _ in 0..2 {
            let err = Table::twin(&db, "F", &[]).unwrap_err();
            assert_eq!((err.expected, err.got), (2, 1));
            assert!(Table::cached_twin(&db, "F").is_none());
        }
    }

    #[test]
    fn negation_condition_empty_table_is_true() {
        let reg = CVarRegistry::new();
        let t = Table::new(Schema::new("Fw", &["a", "b"]));
        assert_eq!(
            t.negation_condition(&reg, &[Term::sym("Mkt"), Term::sym("CS")]),
            Condition::True
        );
    }

    #[test]
    fn negation_condition_unconditional_match_is_false() {
        let reg = CVarRegistry::new();
        let mut t = Table::new(Schema::new("Fw", &["a", "b"]));
        t.insert(CTuple::new([Term::sym("Mkt"), Term::sym("CS")]))
            .unwrap();
        assert_eq!(
            t.negation_condition(&reg, &[Term::sym("Mkt"), Term::sym("CS")]),
            Condition::False
        );
    }

    #[test]
    fn negation_condition_conditional_match_negates() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("Lb", &["a"]));
        t.insert(CTuple::with_cond(
            [Term::sym("R&D")],
            Condition::eq(Term::Var(x), Term::int(1)),
        ))
        .unwrap();
        let c = t.negation_condition(&reg, &[Term::sym("R&D")]);
        // ¬(x̄ = 1) folded to x̄ ≠ 1 by `negate`.
        assert!(
            faure_solver::equivalent(&reg, &c, &Condition::ne(Term::Var(x), Term::int(1))).unwrap()
        );
    }

    #[test]
    fn locally_visible_contradictions_rejected_at_insert() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        // x̄ = 0 ∧ x̄ = 1 is caught by the DNF local filter: no row.
        assert_eq!(
            t.insert(CTuple::with_cond(
                [Term::int(1)],
                Condition::eq(Term::Var(x), Term::int(0))
                    .and(Condition::eq(Term::Var(x), Term::int(1))),
            ))
            .unwrap(),
            InsertOutcome::Unchanged
        );
        assert!(t.is_empty());
    }

    #[test]
    fn prune_removes_contradictions() {
        use faure_ctable::{CmpOp, LinExpr};
        let (reg, x, _) = db_with_xy();
        let mut db2 = Database::new();
        let y = db2.fresh_cvar("y", Domain::Bool01);
        let _ = reg;
        let reg = db2.cvars.clone();
        let mut t = Table::new(Schema::new("T", &["a"]));
        let _ = x;
        // ȳ + ȳ = 3 over {0,1}: unsatisfiable, but not a var=const
        // contradiction, so only the solver phase can remove it.
        t.insert(CTuple::with_cond(
            [Term::int(1)],
            Condition::cmp(
                LinExpr::var(y).plus_var(1, y),
                CmpOp::Eq,
                LinExpr::constant(3),
            ),
        ))
        .unwrap();
        t.insert(CTuple::with_cond(
            [Term::int(2)],
            Condition::eq(Term::Var(y), Term::int(0)),
        ))
        .unwrap();
        assert_eq!(t.len(), 2);
        let mut session = Session::new();
        let removed = t.prune(&reg, &mut session).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).terms, vec![Term::int(2)]);
        assert!(session.stats().sat_calls + session.stats().simplify_calls >= 2);
    }

    #[test]
    fn prune_turns_valid_conditions_into_true() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::with_cond(
            [Term::int(1)],
            Condition::eq(Term::Var(x), Term::int(0)).or(Condition::eq(Term::Var(x), Term::int(1))),
        ))
        .unwrap();
        let mut session = Session::new();
        t.prune(&reg, &mut session).unwrap();
        assert_eq!(t.row(0).cond, Condition::True);
        assert_eq!(t.cond_id(0), CondId::TRUE);
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        let err = t.insert(CTuple::new([Term::int(1)])).unwrap_err();
        assert_eq!(
            err,
            ArityError {
                table: "T".into(),
                expected: 2,
                got: 1,
            }
        );
        assert!(err.to_string().contains("arity 1"));
        assert!(err.to_string().contains("table T"));
        assert!(t.is_empty());
    }

    #[test]
    fn absorb_partitions_matches_serial_inserts() {
        let (_, x, _) = db_with_xy();
        let c0 = Condition::eq(Term::Var(x), Term::int(0));
        let c1 = Condition::eq(Term::Var(x), Term::int(1));
        let rows = vec![
            CTuple::with_cond([Term::int(7)], c0.clone()),
            CTuple::with_cond([Term::int(8)], Condition::True),
            CTuple::with_cond([Term::int(7)], c1.clone()),
            CTuple::with_cond([Term::int(7)], c0.clone()), // dup disjunct
            CTuple::with_cond([Term::int(9)], Condition::False),
        ];
        let mut serial = Table::new(Schema::new("T", &["a"]));
        let mut serial_changed = Vec::new();
        for row in &rows {
            if serial.insert(row.clone()).unwrap().changed() {
                serial_changed.push(row.terms.clone());
            }
        }
        // Same rows split across two partitions preserving order.
        let parts: Vec<Vec<PreparedRow>> = vec![
            rows[..2].iter().cloned().map(PreparedRow::new).collect(),
            rows[2..].iter().cloned().map(PreparedRow::new).collect(),
        ];
        let mut part = Table::new(Schema::new("T", &["a"]));
        let mut part_changed = Vec::new();
        part.absorb_partitions(parts, |(_, prow)| part_changed.push(prow.terms().to_vec()))
            .unwrap();
        assert_eq!(part.len(), serial.len());
        for (a, b) in part.iter().zip(serial.iter()) {
            assert_eq!(a, b); // bit-identical rows, conditions included
        }
        assert_eq!(part_changed, serial_changed);
    }

    #[test]
    fn absorb_partitions_propagates_arity_errors() {
        let mut t = Table::new(Schema::new("T", &["a"]));
        let bad = vec![vec![PreparedRow::new(CTuple::new([
            Term::int(1),
            Term::int(2),
        ]))]];
        assert!(t.absorb_partitions(bad, |_| {}).is_err());
    }

    /// The condition a fresh insert would store for `cond` (inserts
    /// normalise through min-DNF, which may reorient atoms).
    fn normalized(cond: &Condition) -> Condition {
        let mut t = Table::new(Schema::new("N", &["a"]));
        t.insert(CTuple::with_cond([Term::int(0)], cond.clone()))
            .unwrap();
        t.row(0).cond
    }

    #[test]
    fn remove_rows_patches_the_indexes() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        for i in 0..6i64 {
            t.insert(CTuple::new([Term::int(i % 2), Term::int(i)]))
                .unwrap();
        }
        t.insert(CTuple::with_cond(
            [Term::Var(x), Term::int(99)],
            Condition::ne(Term::Var(x), Term::int(0)),
        ))
        .unwrap();
        let removed = t.remove_rows(&[1, 4, 1]); // dups are fine
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].terms, vec![Term::int(1), Term::int(1)]);
        assert_eq!(removed[1].terms, vec![Term::int(0), Term::int(4)]);
        assert_eq!(t.len(), 5);
        // Surviving rows keep their exact conditions and the indexes
        // answer probes correctly once the last rows have moved into
        // the freed slots.
        assert!(t.find_row(&[Term::int(1), Term::int(1)]).is_none());
        let idx = t.find_row(&[Term::Var(x), Term::int(99)]).unwrap();
        assert_eq!(
            t.row(idx).cond,
            normalized(&Condition::ne(Term::Var(x), Term::int(0)))
        );
        let pats = [Pattern::Exact(Term::int(0)), Pattern::Any];
        let hits = t.find_matches(&reg, &pats);
        assert_eq!(hits.len(), 3); // rows 0,2 (consts) + the x̄ row
        assert!(t.remove_rows(&[]).is_empty());
    }

    #[test]
    fn overlay_comes_off_without_a_trace() {
        let (_, x, y) = db_with_xy();
        let c0 = Condition::eq(Term::Var(x), Term::int(0));
        let c1 = Condition::eq(Term::Var(x), Term::int(1));
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::new([Term::int(1)])).unwrap();
        t.insert(CTuple::with_cond([Term::int(2)], c0.clone()))
            .unwrap();
        t.insert(CTuple::with_cond([Term::Var(y)], c0.clone()))
            .unwrap();
        let before: Vec<(CTuple, CondId)> =
            (0..t.len()).map(|i| (t.row(i), t.cond_id(i))).collect();
        let overlaid = [
            // Unchanged: `True` absorbs it.
            CTuple::with_cond([Term::int(1)], c1.clone()),
            // Merged: the row's condition widens to x̄ = 0 ∨ x̄ = 1 ...
            CTuple::with_cond([Term::int(2)], c1.clone()),
            // ... new, then named again: merged into the row just added.
            CTuple::with_cond([Term::int(3)], c0.clone()),
            CTuple::with_cond([Term::int(3)], c1.clone()),
            // Never stored at all.
            CTuple::with_cond([Term::int(4)], Condition::False),
        ];
        let overlay = t.overlay(&overlaid).unwrap();
        assert_eq!(t.len(), 4);
        assert_ne!(t.cond_id(1), before[1].1);
        assert!(t.find_row(&[Term::int(3)]).is_some());
        t.remove_overlay(overlay);
        let after: Vec<(CTuple, CondId)> = (0..t.len()).map(|i| (t.row(i), t.cond_id(i))).collect();
        assert_eq!(after, before);
        assert!(t.find_row(&[Term::int(3)]).is_none());
        assert!(t.has_var_cells());
        // An overlay of nothing new is empty.
        let overlay = t.overlay(&before.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
        assert!(overlay.unwrap().undo.is_empty());
    }

    #[test]
    fn adjust_condition_matches_fresh_insert() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::new([Term::int(1)])).unwrap();
        let c = Condition::eq(Term::Var(x), Term::int(0));
        assert!(t.adjust_condition(0, &c));
        let mut fresh = Table::new(Schema::new("T", &["a"]));
        fresh
            .insert(CTuple::with_cond([Term::int(1)], c.clone()))
            .unwrap();
        assert_eq!(t.row(0), fresh.row(0));
        assert_eq!(t.cond_id(0), fresh.cond_id(0));
        // A condition that is locally contradictory reports dead.
        let dead = Condition::eq(Term::Var(x), Term::int(0))
            .and(Condition::eq(Term::Var(x), Term::int(1)));
        assert!(!t.adjust_condition(0, &dead));
        assert!(!t.adjust_condition(0, &Condition::False));
        // A failed adjust leaves the row untouched.
        assert_eq!(t.row(0).cond, normalized(&c));
    }

    #[test]
    fn prune_rows_matches_full_prune_on_subset() {
        use faure_ctable::{CmpOp, LinExpr};
        let mut db = Database::new();
        let y = db.fresh_cvar("y", Domain::Bool01);
        let reg = db.cvars.clone();
        let unsat = Condition::cmp(
            LinExpr::var(y).plus_var(1, y),
            CmpOp::Eq,
            LinExpr::constant(3),
        );
        let valid =
            Condition::eq(Term::Var(y), Term::int(0)).or(Condition::eq(Term::Var(y), Term::int(1)));
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::with_cond([Term::int(1)], unsat)).unwrap();
        t.insert(CTuple::with_cond([Term::int(2)], valid)).unwrap();
        t.insert(CTuple::with_cond(
            [Term::int(3)],
            Condition::eq(Term::Var(y), Term::int(1)),
        ))
        .unwrap();
        let mut session = Session::new();
        let removed = t.prune_rows(&reg, &mut session, &[0, 1]).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).terms, vec![Term::int(2)]);
        assert_eq!(t.row(0).cond, Condition::True); // valid → simplified
                                                    // Untouched row 3 keeps its condition verbatim.
        assert_eq!(
            t.row(1).cond,
            normalized(&Condition::eq(Term::Var(y), Term::int(1)))
        );
    }

    #[test]
    fn delete_where_mirrors_levy_sagiv_semantics() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        t.insert(CTuple::new([Term::int(1), Term::int(2)])).unwrap();
        t.insert(CTuple::new([Term::int(1), Term::int(3)])).unwrap();
        t.insert(CTuple::new([Term::Var(x), Term::int(2)])).unwrap();
        // Delete T(1, 2): the ground match drops, the x̄ row weakens.
        let eff = t.delete_where(&[Some(Const::int(1)), Some(Const::int(2))]);
        assert_eq!(eff.removed.len(), 1);
        assert_eq!(eff.removed[0].terms, vec![Term::int(1), Term::int(2)]);
        assert_eq!(eff.weakened.len(), 1);
        assert_eq!(eff.weakened[0].cond, Condition::True); // old version
        assert_eq!(t.len(), 2);
        let idx = t.find_row(&[Term::Var(x), Term::int(2)]).unwrap();
        assert_eq!(
            t.row(idx).cond,
            normalized(&Condition::ne(Term::Var(x), Term::int(1))) // ¬(x̄ = 1) folded
        );
        // A second exact delete of an absent tuple is a no-op.
        let eff = t.delete_where(&[Some(Const::int(9)), Some(Const::int(9))]);
        assert!(eff.is_empty());
        assert_eq!(t.len(), 2);
    }

    // ---- what the drain-and-reinsert prune did, pinned -----------------

    /// `n` fresh `{0,1}` c-variables named `{prefix}{i}`.
    fn bool_vars(db: &mut Database, prefix: &str, n: usize) -> Vec<faure_ctable::CVarId> {
        (0..n)
            .map(|i| db.fresh_cvar(format!("{prefix}{i}"), Domain::Bool01))
            .collect()
    }

    /// `⋀ᵢ (āᵢ = 1 ∨ b̄ᵢ = 1)` over nine variable pairs: satisfiable, but
    /// its DNF has 512 disjuncts — over the 256-set budget, so a row
    /// carrying it is stored opaque.
    fn over_budget(a: &[faure_ctable::CVarId], b: &[faure_ctable::CVarId]) -> Condition {
        Condition::conj(
            a.iter()
                .zip(b)
                .map(|(&a, &b)| {
                    Condition::eq(Term::Var(a), Term::int(1))
                        .or(Condition::eq(Term::Var(b), Term::int(1)))
                })
                .collect(),
        )
    }

    #[test]
    fn prune_survivors_keep_their_row_order() {
        use faure_ctable::{CmpOp, LinExpr};
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        let reg = db.cvars.clone();
        let unsat = Condition::cmp(
            LinExpr::var(x).plus_var(1, y),
            CmpOp::Eq,
            LinExpr::constant(3),
        );
        let mut t = Table::new(Schema::new("T", &["a"]));
        for i in 0..9i64 {
            let cond = match i % 3 {
                0 => unsat.clone(),
                1 => Condition::eq(Term::Var(x), Term::int(i % 2)),
                _ => Condition::True,
            };
            t.insert(CTuple::with_cond([Term::int(i)], cond)).unwrap();
        }
        assert_eq!(t.prune(&reg, &mut Session::new()).unwrap(), 3);
        let kept: Vec<Term> = t.iter().map(|r| r.terms[0].clone()).collect();
        assert_eq!(kept, [1, 2, 4, 5, 7, 8].map(Term::int).to_vec());
        for i in 0..t.len() {
            assert_eq!(t.find_row(&t.row(i).terms), Some(i), "dedup index follows");
        }
    }

    #[test]
    fn prune_counts_a_survivor_whose_renormalised_dnf_is_empty() {
        // A simplified condition that normalises to the empty DNF is a
        // dead row, whatever the solver said of the row's own condition.
        // Re-insertion used to lose such a row without counting it; its
        // fate is now `Drop`, which the walk counts like any other dead
        // row. A complete solver never answers like this, and a
        // session's memo holds only its own answers, so the fate of
        // such an answer is checked directly.
        let (_, x, _) = db_with_xy();
        let contradictory = Condition::eq(Term::Var(x), Term::int(0))
            .and(Condition::eq(Term::Var(x), Term::int(1)));
        assert_eq!(Fate::of(pool::intern(&contradictory)), Fate::Drop);
        let live = pool::intern(&Condition::eq(Term::Var(x), Term::int(1)));
        assert_eq!(
            Fate::of(live),
            Fate::Store {
                cond: dnf::normal_form(live).stored,
                opaque: false
            }
        );
    }

    #[test]
    fn prune_rewrites_a_row_whose_representation_kind_changes() {
        use faure_ctable::{CmpOp, LinExpr};
        // Sets -> Opaque with the id unchanged: 257 single-atom
        // disjuncts are an antichain the table built by merging, but a
        // fresh normalisation of their disjunction is over budget.
        let mut db = Database::new();
        let vs = bool_vars(&mut db, "v", 257);
        let reg = db.cvars.clone();
        let mut t = Table::new(Schema::new("T", &["a"]));
        for &v in &vs {
            t.insert(CTuple::with_cond(
                [Term::int(1)],
                Condition::eq(Term::Var(v), Term::int(1)),
            ))
            .unwrap();
        }
        assert!(t.has_sets_repr(0));
        let before = t.cond_id(0);
        assert_eq!(t.prune(&reg, &mut Session::new()).unwrap(), 0);
        assert_eq!(t.cond_id(0), before);
        assert!(!t.has_sets_repr(0));

        // Opaque -> Sets: the over-budget disjunct is unsatisfiable, so
        // simplification leaves the small one.
        let mut db = Database::new();
        let a = bool_vars(&mut db, "a", 9);
        let b = bool_vars(&mut db, "b", 9);
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        let reg = db.cvars.clone();
        let small = Condition::eq(Term::Var(x), Term::int(1));
        let dead = over_budget(&a, &b).and(Condition::cmp(
            LinExpr::var(x).plus_var(1, y),
            CmpOp::Eq,
            LinExpr::constant(3),
        ));
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::with_cond([Term::int(1)], small.clone()))
            .unwrap();
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(1)], dead)).unwrap(),
            InsertOutcome::Merged
        );
        assert!(!t.has_sets_repr(0));
        assert_eq!(t.prune(&reg, &mut Session::new()).unwrap(), 0);
        assert!(t.has_sets_repr(0));
        assert_eq!(t.row(0).cond, normalized(&small));
    }

    #[test]
    fn prune_decides_opaque_rows_one_by_one() {
        let mut db = Database::new();
        let a = bool_vars(&mut db, "a", 9);
        let b = bool_vars(&mut db, "b", 9);
        let reg = db.cvars.clone();
        let mut t = Table::new(Schema::new("T", &["a"]));
        for i in 0..3i64 {
            t.insert(CTuple::with_cond([Term::int(i)], over_budget(&a, &b)))
                .unwrap();
        }
        assert!((0..3).all(|i| !t.has_sets_repr(i)));
        let mut session = Session::new();
        assert_eq!(t.prune(&reg, &mut session).unwrap(), 0);
        assert_eq!(t.len(), 3);
        assert_eq!(session.stats().simplify_calls, 3);
        assert_eq!(session.stats().sat_calls, 0);
    }

    // ---- the id-keyed paths against the tree paths ------------------------

    #[test]
    fn prune_asks_the_solver_once_per_distinct_condition() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        for i in 0..5i64 {
            t.insert(CTuple::with_cond(
                [Term::int(i)],
                Condition::eq(Term::Var(x), Term::int(i % 2)),
            ))
            .unwrap();
        }
        let mut session = Session::new();
        assert_eq!(t.prune(&reg, &mut session).unwrap(), 0);
        // Two distinct single-disjunct conditions over five rows: one
        // simplification each, and no satisfiability query beside it.
        let st = session.stats();
        assert_eq!(st.simplify_calls, 2);
        assert_eq!(st.sat_calls, 0);
        assert_eq!((st.memo_misses, st.memo_hits), (2, 0));
    }

    #[test]
    fn prune_asks_each_disjunct_then_the_survivor() {
        use faure_ctable::{CmpOp, LinExpr};
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        let reg = db.cvars.clone();
        let mut t = Table::new(Schema::new("T", &["a"]));
        // x̄ = 1 ∨ (x̄ + ȳ = 3): the second disjunct is dead.
        let dead = Condition::cmp(
            LinExpr::var(x).plus_var(1, y),
            CmpOp::Eq,
            LinExpr::constant(3),
        );
        let live = Condition::eq(Term::Var(x), Term::int(1));
        t.insert(CTuple::with_cond([Term::int(1)], live.clone().or(dead)))
            .unwrap();
        assert!(t.has_sets_repr(0));
        let mut session = Session::new();
        assert_eq!(t.prune(&reg, &mut session).unwrap(), 0);
        assert_eq!(t.row(0).cond, normalized(&live));
        assert_eq!(session.stats().sat_calls, 2);
        assert_eq!(session.stats().simplify_calls, 1);
    }

    mod differential {
        use super::*;
        use crate::exec::OpStats;
        use faure_ctable::{CVarId, CmpOp, LinExpr};
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// 18 `{0,1}` variables — enough for the over-budget product —
        /// then two over `{0,1,2}` for the linear shapes.
        fn registry() -> CVarRegistry {
            let mut reg = CVarRegistry::new();
            for i in 0..18 {
                reg.fresh(format!("d{i}"), Domain::Bool01);
            }
            for i in 18..20 {
                reg.fresh(format!("d{i}"), Domain::Ints(vec![0, 1, 2]));
            }
            reg
        }

        fn var(i: u32) -> Term {
            Term::Var(CVarId(i))
        }

        /// Conditions of every kind the solver phase tells apart:
        /// plain atoms, disjuncts only the solver refutes (`d̄ᵥ + d̄ᵥ₊₁ = 3`
        /// over `{0,1}²`, `d̄18 + d̄19 = 5` over `{0,1,2}²`), a tight but
        /// satisfiable sum (`= 4`), valid disjunctions (`= 0 ∨ = 1`,
        /// `= 0 ∨ ≠ 0`), an over-budget product, `False`, and small
        /// conjunctions and disjunctions of those.
        fn arb_cond() -> impl Strategy<Value = Condition> {
            let vars: Vec<CVarId> = (0..18).map(CVarId).collect();
            let product = over_budget(&vars[..9], &vars[9..]);
            let leaf = prop_oneof![
                (4i64..6).prop_map(|k| Condition::cmp(
                    LinExpr::var(CVarId(18)).plus_var(1, CVarId(19)),
                    CmpOp::Eq,
                    LinExpr::constant(k),
                )),
                Just(Condition::eq(var(18), Term::int(0)).or(Condition::ne(var(18), Term::int(0)))),
                (0u32..4, 0i64..2).prop_map(|(v, k)| Condition::eq(var(v), Term::int(k))),
                (0u32..4, 0i64..2).prop_map(|(v, k)| Condition::ne(var(v), Term::int(k))),
                (0u32..3).prop_map(|v| Condition::cmp(
                    LinExpr::var(CVarId(v)).plus_var(1, CVarId(v + 1)),
                    CmpOp::Eq,
                    LinExpr::constant(3),
                )),
                (0u32..4)
                    .prop_map(|v| Condition::eq(var(v), Term::int(0))
                        .or(Condition::eq(var(v), Term::int(1)))),
                Just(product),
                Just(Condition::False),
                Just(Condition::True),
            ];
            leaf.prop_recursive(2, 6, 3, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 1..3).prop_map(Condition::conj),
                    prop::collection::vec(inner, 1..3).prop_map(Condition::disj),
                ]
            })
        }

        fn arb_rows() -> impl Strategy<Value = Vec<CTuple>> {
            prop::collection::vec(
                (0i64..6, arb_cond()).prop_map(|(k, c)| CTuple::with_cond([Term::int(k)], c)),
                1..14,
            )
        }

        /// Everything a prune can change, row by row.
        fn state(t: &Table) -> Vec<(Vec<Term>, CondId, bool)> {
            (0..t.len())
                .map(|i| (t.row(i).terms, t.cond_id(i), t.has_sets_repr(i)))
                .collect()
        }

        /// A cell of the two-column table under test: a small integer
        /// or one of two c-variables.
        fn arb_cell() -> impl Strategy<Value = Term> {
            prop_oneof![
                (0i64..3).prop_map(Term::int),
                (0i64..3).prop_map(Term::int),
                (0u32..2).prop_map(var),
            ]
        }

        fn arb_row() -> impl Strategy<Value = CTuple> {
            (arb_cell(), arb_cell(), arb_cond())
                .prop_map(|(a, b, cond)| CTuple::with_cond([a, b], cond))
        }

        #[derive(Clone, Debug)]
        enum Op {
            Insert(CTuple),
            /// Row picks, taken modulo the table's length.
            Remove(Vec<usize>),
            Delete(Vec<Option<Const>>),
            Overlay(Vec<CTuple>),
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            let want = || prop_oneof![Just(None), (0i64..3).prop_map(|k| Some(Const::Int(k)))];
            let op = prop_oneof![
                arb_row().prop_map(Op::Insert),
                arb_row().prop_map(Op::Insert),
                arb_row().prop_map(Op::Insert),
                prop::collection::vec(0usize..64, 1..4).prop_map(Op::Remove),
                (want(), want()).prop_map(|(a, b)| Op::Delete(vec![a, b])),
                prop::collection::vec(arb_row(), 1..4).prop_map(Op::Overlay),
            ];
            prop::collection::vec(op, 1..24)
        }

        /// What the table holds, by row key: the stored condition and
        /// its representation kind.
        fn row_map(t: &Table) -> BTreeMap<Vec<Term>, (CondId, bool)> {
            let rows: BTreeMap<_, _> = (0..t.len())
                .map(|i| (t.row(i).terms, (t.cond_id(i), t.has_sets_repr(i))))
                .collect();
            assert_eq!(rows.len(), t.len(), "one row per key");
            rows
        }

        /// Every index of `t` agrees with a table built afresh from
        /// `t`'s rows: the dedup index, the posting lists behind
        /// `find_matches` (every pattern over the cell alphabet), the
        /// c-variable lists behind `has_var_cells`.
        fn answers_like_a_rebuilt_table(reg: &CVarRegistry, t: &Table) {
            let rebuilt = Table::from_relation(&t.to_relation());
            assert_eq!(row_map(t), row_map(&rebuilt));
            assert_eq!(t.has_var_cells(), rebuilt.has_var_cells());
            for i in 0..t.len() {
                assert_eq!(t.find_row(&t.row(i).terms), Some(i));
            }
            let mut pats = vec![Pattern::Any];
            pats.extend((0..3).map(|k| Pattern::Exact(Term::int(k))));
            pats.extend((0..2).map(|v| Pattern::Exact(var(v))));
            let matches = |t: &Table, pats: &[Pattern]| -> BTreeSet<String> {
                t.find_matches(reg, pats)
                    .into_iter()
                    .map(|(i, mu)| format!("{:?} if {mu:?}", t.row(i).terms))
                    .collect()
            };
            for a in &pats {
                for b in &pats {
                    let pats = [a.clone(), b.clone()];
                    assert_eq!(matches(t, &pats), matches(&rebuilt, &pats), "{pats:?}");
                }
            }
        }

        /// A cell of the three-column table the index differential runs
        /// on: a small integer, or a c-variable over `{0,1}` (`d0`) or
        /// over `{0,1,2}` (`d18`).
        fn arb_cell3() -> impl Strategy<Value = Term> {
            prop_oneof![
                (0i64..3).prop_map(Term::int),
                (0i64..3).prop_map(Term::int),
                (0i64..3).prop_map(Term::int),
                Just(var(0)),
                Just(var(18)),
            ]
        }

        /// Plain atoms, and a sum only the solver refutes (a prune
        /// drops its rows).
        fn arb_small_cond() -> impl Strategy<Value = Condition> {
            prop_oneof![
                Just(Condition::True),
                Just(Condition::True),
                (1u32..4, 0i64..2).prop_map(|(v, k)| Condition::eq(var(v), Term::int(k))),
                (1u32..4, 0i64..2).prop_map(|(v, k)| Condition::ne(var(v), Term::int(k))),
                Just(Condition::cmp(
                    LinExpr::var(CVarId(1)).plus_var(1, CVarId(2)),
                    CmpOp::Eq,
                    LinExpr::constant(3),
                )),
            ]
        }

        fn arb_row3() -> impl Strategy<Value = CTuple> {
            (arb_cell3(), arb_cell3(), arb_cell3(), arb_small_cond())
                .prop_map(|(a, b, c, cond)| CTuple::with_cond([a, b, c], cond))
        }

        /// The column sets an index over three columns can cover.
        const COLUMN_SETS: [&[usize]; 6] = [&[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2]];

        #[derive(Clone, Debug)]
        enum IndexOp {
            Insert(CTuple),
            /// Row picks, taken modulo the table's length.
            Remove(Vec<usize>),
            Prune,
            Overlay(Vec<CTuple>),
            Delete(Vec<Option<Const>>),
            /// `ensure_index` on the populated table, by `COLUMN_SETS`
            /// position.
            Index(usize),
        }

        fn arb_index_ops() -> impl Strategy<Value = Vec<IndexOp>> {
            let want = || prop_oneof![Just(None), (0i64..3).prop_map(|k| Some(Const::Int(k)))];
            let op = prop_oneof![
                arb_row3().prop_map(IndexOp::Insert),
                arb_row3().prop_map(IndexOp::Insert),
                arb_row3().prop_map(IndexOp::Insert),
                arb_row3().prop_map(IndexOp::Insert),
                prop::collection::vec(0usize..64, 1..4).prop_map(IndexOp::Remove),
                Just(IndexOp::Prune),
                prop::collection::vec(arb_row3(), 1..4).prop_map(IndexOp::Overlay),
                (want(), want(), want()).prop_map(|(a, b, c)| IndexOp::Delete(vec![a, b, c])),
                (0..COLUMN_SETS.len()).prop_map(IndexOp::Index),
            ];
            prop::collection::vec(op, 1..20)
        }

        /// `c` split into its top-level conjuncts, sorted: `and` folds
        /// flatten, so two folds over one multiset of terms in two
        /// orders give equal lists.
        fn conjuncts(c: Condition) -> Vec<Condition> {
            let mut parts = match c {
                Condition::And(cs) => Condition::take_children(cs),
                other => vec![other],
            };
            parts.sort();
            parts
        }

        /// Every probe key over the cell alphabet — free, a constant, or
        /// a c-variable per column — answers like a full scan of the
        /// rows: the cell-keyed probe and `find_matches` find the same
        /// rows under the same `μ`, a negation conjoins the same terms,
        /// and a deletion pattern touches the same rows. A probe whose
        /// constant key an index (or the dedup index) covers exactly
        /// examines only its matches on a table of constants.
        fn answers_like_a_full_scan(reg: &CVarRegistry, t: &Table) {
            let rows: Vec<CTuple> = t.iter().collect();
            let alphabet = [
                None,
                Some(Term::int(0)),
                Some(Term::int(1)),
                Some(Term::int(2)),
                Some(var(0)),
                Some(var(18)),
            ];
            let indexed: Vec<&[usize]> = t.indexed_columns().collect();
            for a in &alphabet {
                for b in &alphabet {
                    for c in &alphabet {
                        let terms = [a, b, c];
                        let pats: Vec<Pattern> = terms
                            .iter()
                            .map(|&t| t.clone().map_or(Pattern::Any, Pattern::Exact))
                            .collect();
                        let scan: Vec<(usize, Condition)> = rows
                            .iter()
                            .enumerate()
                            .filter_map(|(i, r)| Table::match_row(reg, r, &pats).map(|mu| (i, mu)))
                            .collect();
                        let mut found = t.find_matches(reg, &pats);
                        found.sort();
                        assert_eq!(found, scan, "find_matches {pats:?}");

                        let key = t.pattern_key(&pats);
                        let (mut out, mut ops) = (Vec::new(), OpStats::default());
                        crate::exec::probe_key(t, reg, &key, &mut out, &mut ops);
                        out.sort();
                        let interned: Vec<(u32, CondId)> = scan
                            .iter()
                            .map(|(i, mu)| match mu {
                                Condition::True => (*i as u32, CondId::TRUE),
                                mu => (*i as u32, pool::intern(mu)),
                            })
                            .collect();
                        assert_eq!(out, interned, "probe {pats:?}");
                        let constant: Vec<usize> = (0..3)
                            .filter(|&c| terms[c].as_ref().is_some_and(|t| t.as_const().is_some()))
                            .collect();
                        let var_key = terms
                            .iter()
                            .any(|t| t.as_ref().is_some_and(|t| t.as_const().is_none()));
                        let exact = constant.len() == 3 || indexed.contains(&&constant[..]);
                        if exact && !var_key && !t.has_var_cells() {
                            assert_eq!(ops.rows_examined, ops.rows_matched, "exact key {pats:?}");
                        }

                        if let [Some(a), Some(b), Some(c)] = terms {
                            let fold = scan.iter().fold(Condition::True, |acc, (i, mu)| {
                                acc.and(t.cond(*i).and(mu.clone()).negate())
                            });
                            let tuple = [a.clone(), b.clone(), c.clone()];
                            let negated = t.negation_condition(reg, &tuple);
                            assert_eq!(conjuncts(negated), conjuncts(fold), "negation {pats:?}");
                        }

                        if var_key || constant.is_empty() {
                            continue;
                        }
                        let want: Vec<Option<Const>> = terms
                            .iter()
                            .map(|t| t.as_ref().and_then(|t| t.as_const().cloned()))
                            .collect();
                        let eff = t.clone().delete_where(&want);
                        let reported: BTreeSet<&[Term]> = eff
                            .removed
                            .iter()
                            .chain(&eff.weakened)
                            .map(|r| &r.terms[..])
                            .collect();
                        let affected: BTreeSet<&[Term]> = rows
                            .iter()
                            .filter(|r| {
                                r.terms.iter().zip(&want).all(|(term, w)| match (term, w) {
                                    (Term::Const(c), Some(w)) => c == w,
                                    _ => true,
                                })
                            })
                            .map(|r| &r.terms[..])
                            .collect();
                        assert_eq!(reported, affected, "delete {want:?}");
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// What a `Changed` records of two iterations' merges — the
            /// second reading the mark the first left — is what a delta
            /// table of each iteration's own would hold: the changed
            /// rows, oldest change first, under the same condition ids.
            #[test]
            fn changed_rows_carry_what_a_delta_table_holds(
                rows in arb_rows(),
                cuts in (0usize..14, 0usize..14),
            ) {
                let (a, b) = (cuts.0.min(cuts.1), cuts.0.max(cuts.1));
                let (a, b) = (a.min(rows.len()), b.min(rows.len()));
                let mut standing = Table::new(Schema::new("T", &["a"]));
                for row in &rows[..a] {
                    standing.insert(row.clone()).unwrap();
                }
                let mut mark = Mark::default();
                for round in [&rows[a..b], &rows[b..]] {
                    let mut changed = Changed::default();
                    let mut delta = Table::new(Schema::new("T", &["a"]));
                    let prepared = round.iter().map(PreparedRow::from_tuple).collect();
                    standing
                        .absorb_partitions(vec![prepared], |(row, prow)| {
                            changed.record(&mut mark, row, prow);
                            delta.insert_prepared(prow).unwrap();
                        })
                        .unwrap();
                    prop_assert_eq!(changed.rows().len(), delta.len());
                    for (i, &(row, cond)) in changed.rows().iter().enumerate() {
                        prop_assert_eq!(standing.row(row as usize).terms, delta.row(i).terms);
                        prop_assert_eq!(cond, delta.cond_id(i));
                    }
                }
            }

            /// The in-place prune leaves what the drain-and-reinsert
            /// prune leaves: rows, order, ids, representation kinds and
            /// the removal count.
            #[test]
            fn in_place_prune_matches_reinsertion(rows in arb_rows()) {
                let reg = registry();
                let build = || {
                    let mut t = Table::new(Schema::new("T", &["a"]));
                    for row in &rows {
                        t.insert(row.clone()).unwrap();
                    }
                    t
                };
                let mut reference = build();
                let removed = reference
                    .prune_by_reinsertion(&reg, &mut Session::new())
                    .unwrap();
                let mut t = build();
                let got = t.prune(&reg, &mut Session::new()).unwrap();
                prop_assert_eq!(got, removed, "removed");
                prop_assert_eq!(state(&t), state(&reference));
                for i in 0..t.len() {
                    prop_assert_eq!(t.find_row(&t.row(i).terms), Some(i));
                }
            }

            /// Inserts, removals, pattern deletions and overlays in any
            /// order leave a table that answers like one rebuilt from
            /// its rows, and each of them changes the row set the way
            /// its contract says.
            #[test]
            fn interleaved_removals_keep_the_indexes_true(ops in arb_ops()) {
                let reg = registry();
                let mut t = Table::new(Schema::new("T", &["a", "b"]));
                for op in ops {
                    let before = row_map(&t);
                    match op {
                        Op::Insert(row) => {
                            let mut rebuilt = Table::from_relation(&t.to_relation());
                            let outcome = t.insert(row.clone()).unwrap();
                            prop_assert_eq!(outcome, rebuilt.insert(row).unwrap());
                            prop_assert_eq!(row_map(&t), row_map(&rebuilt));
                        }
                        Op::Remove(picks) if !t.is_empty() => {
                            let idxs: Vec<usize> = picks.iter().map(|p| p % t.len()).collect();
                            let mut sorted = idxs.clone();
                            sorted.sort_unstable();
                            sorted.dedup();
                            let expected: Vec<CTuple> = sorted.iter().map(|&i| t.row(i)).collect();
                            prop_assert_eq!(t.remove_rows(&idxs), expected.clone());
                            let mut left = before;
                            for row in &expected {
                                prop_assert!(left.remove(&row.terms).is_some());
                            }
                            prop_assert_eq!(row_map(&t), left);
                        }
                        Op::Remove(_) => {}
                        Op::Delete(cols) => {
                            // A row is affected unless a constant cell
                            // disagrees with its constraint.
                            let affected = |terms: &[Term]| {
                                terms.iter().zip(&cols).all(|(term, want)| match (term, want) {
                                    (Term::Const(c), Some(w)) => c == w,
                                    _ => true,
                                })
                            };
                            let eff = t.delete_where(&cols);
                            let after = row_map(&t);
                            let mut reported = BTreeSet::new();
                            for old in &eff.removed {
                                prop_assert!(!after.contains_key(&old.terms));
                                prop_assert!(reported.insert(old.terms.clone()));
                            }
                            for old in &eff.weakened {
                                prop_assert!(after.contains_key(&old.terms));
                                prop_assert!(reported.insert(old.terms.clone()));
                            }
                            for (terms, kept) in &before {
                                prop_assert_eq!(affected(terms), reported.contains(terms));
                                if !affected(terms) {
                                    prop_assert_eq!(after.get(terms), Some(kept));
                                }
                            }
                            prop_assert_eq!(after.len(), before.len() - eff.removed.len());
                        }
                        Op::Overlay(rows) => {
                            let overlay = t.overlay(&rows).unwrap();
                            answers_like_a_rebuilt_table(&reg, &t);
                            t.remove_overlay(overlay);
                            prop_assert_eq!(row_map(&t), before);
                        }
                    }
                    answers_like_a_rebuilt_table(&reg, &t);
                }
            }

            /// Whatever indexes a table has — none, per column, composite,
            /// or one built on the populated table — and whatever
            /// inserts, removals, prunes, deletions and overlays it goes
            /// through, every probe answers like a full scan.
            #[test]
            fn indexes_answer_like_a_full_scan(
                first in prop::collection::vec(0..COLUMN_SETS.len(), 0..3),
                ops in arb_index_ops(),
            ) {
                let reg = registry();
                let mut t = Table::new(Schema::new("T", &["a", "b", "c"]));
                for k in first {
                    t.ensure_index(COLUMN_SETS[k]);
                }
                for op in ops {
                    match op {
                        IndexOp::Insert(row) => {
                            t.insert(row).unwrap();
                        }
                        IndexOp::Remove(picks) if !t.is_empty() => {
                            let idxs: Vec<usize> = picks.iter().map(|p| p % t.len()).collect();
                            t.remove_rows(&idxs);
                        }
                        IndexOp::Remove(_) => {}
                        IndexOp::Prune => {
                            t.prune(&reg, &mut Session::new()).unwrap();
                        }
                        IndexOp::Overlay(rows) => {
                            let before = row_map(&t);
                            let overlay = t.overlay(&rows).unwrap();
                            answers_like_a_full_scan(&reg, &t);
                            t.remove_overlay(overlay);
                            prop_assert_eq!(row_map(&t), before);
                        }
                        IndexOp::Delete(cols) => {
                            t.delete_where(&cols);
                        }
                        IndexOp::Index(k) => t.ensure_index(COLUMN_SETS[k]),
                    }
                    answers_like_a_full_scan(&reg, &t);
                }
            }

            /// A row built from an id is the row built from the tuple,
            /// and both carry what normalising the tree by hand gives —
            /// computed here without the normal-form table.
            #[test]
            fn prepared_row_from_id_matches_from_tuple(cond in arb_cond()) {
                let tuple = CTuple::with_cond([Term::int(1), var(2)], cond.clone());
                let cells: Box<[Cell]> = tuple.terms.iter().map(Cell::encode).collect();
                let by_tuple = PreparedRow::new(tuple);
                let by_id = PreparedRow::from_id(cells.clone(), pool::intern(&cond));
                let sets = dnf::to_min_dnf(&cond, dnf::DEFAULT_SET_BUDGET);
                let stored = match &sets {
                    Some(sets) => pool::intern(&dnf::condition_of(sets)),
                    None => pool::intern(&cond),
                };
                for row in [&by_tuple, &by_id] {
                    prop_assert_eq!(row.cells(), &cells[..]);
                    prop_assert_eq!(row.cond_id(), stored);
                    prop_assert_eq!(row.is_false(), sets.as_ref().is_some_and(Vec::is_empty));
                }
                prop_assert_eq!(&dnf::normal_form(pool::intern(&cond)).sets, &sets);
                // What lets a table keep `stored` and nothing else: the
                // stored condition normalises to the same antichain, so
                // its id is a fixed point.
                if sets.is_some() {
                    let again = dnf::to_min_dnf(&pool::resolve(stored), dnf::DEFAULT_SET_BUDGET);
                    prop_assert_eq!(&again, &sets);
                    prop_assert_eq!(&dnf::normal_form(stored).sets, &sets);
                    prop_assert_eq!(dnf::normal_form(stored).stored, stored);
                }
            }
        }
    }

    #[test]
    fn round_trip_relation() {
        let mut rel = Relation::empty(Schema::new("T", &["a", "b"]));
        rel.push(CTuple::new([Term::int(1), Term::int(2)])).unwrap();
        rel.push(CTuple::new([Term::int(1), Term::int(2)])).unwrap(); // dup
        rel.push(CTuple::new([Term::int(3), Term::int(4)])).unwrap();
        let t = Table::from_relation(&rel);
        assert_eq!(t.len(), 2); // dedup
        let back = t.to_relation();
        assert_eq!(back.len(), 2);
        let consumed = Table::from_relation(&rel).into_relation();
        assert_eq!(consumed.tuples, back.tuples);
    }
}
