//! Global hash-consed condition pool.
//!
//! Every [`Condition`] can be *interned* to a [`CondId`] — a `u32`
//! naming one structurally-unique node in a process-wide pool. Equal
//! conditions always intern to equal ids, so id comparison is O(1)
//! structural equality and downstream consumers (the storage dedup
//! index, the solver memo) can key on a `u32` instead of re-hashing
//! whole trees. Like the [`symbol`](crate::symbol) interner the pool
//! only ever grows; the set of distinct conditions in an analysis run
//! is bounded and reused heavily across inserts, joins and prunes.
//!
//! The pool also offers [`conj`] / [`disj`] / [`neg`] directly on ids.
//! These mirror the tree smart constructors [`Condition::and`],
//! [`Condition::or`] and [`Condition::negate`] **exactly** — constant
//! folding, `And`/`Or` flattening, double-negation and atom-operator
//! negation — so `resolve(conj(intern(a), intern(b)))` is structurally
//! equal to `a.and(b)`. The bit-identity proptest suites rely on this.
//!
//! A second small interner maps list constants (`Const::List`) to
//! dense [`ListId`]s so columnar storage cells stay `Copy`.

use crate::condition::{Atom, Condition};
use crate::value::Const;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// An interned condition. Cheap to copy, hash, and compare; equal ids
/// iff the interned conditions are structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CondId(u32);

impl CondId {
    /// The id of [`Condition::False`] (always slot 0).
    pub const FALSE: CondId = CondId(0);
    /// The id of [`Condition::True`] (always slot 1).
    pub const TRUE: CondId = CondId(1);

    /// The raw pool index. Stable for the life of the process; useful
    /// as a shard or memo key.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Whether this is the interned [`Condition::True`].
    pub fn is_true(self) -> bool {
        self == CondId::TRUE
    }

    /// Whether this is the interned [`Condition::False`].
    pub fn is_false(self) -> bool {
        self == CondId::FALSE
    }
}

/// Structural key of one pool node: children are ids, so equal keys
/// mean structurally equal trees by induction.
#[derive(Clone, PartialEq, Eq, Hash)]
enum NodeKey {
    False,
    True,
    Atom(Atom),
    Not(u32),
    And(Vec<u32>),
    Or(Vec<u32>),
}

struct Pool {
    dedup: HashMap<NodeKey, u32>,
    kinds: Vec<NodeKey>,
    /// One materialised tree per id, so `resolve` is an O(1)
    /// (Arc-backed) clone. Subtrees are shared: a node's cached tree
    /// holds the cached trees of its children.
    conds: Vec<Condition>,
}

fn pool() -> &'static RwLock<Pool> {
    static POOL: OnceLock<RwLock<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut p = Pool {
            dedup: HashMap::new(),
            kinds: Vec::new(),
            conds: Vec::new(),
        };
        // Pin False to 0 and True to 1 so the constants above hold.
        p.dedup.insert(NodeKey::False, 0);
        p.kinds.push(NodeKey::False);
        p.conds.push(Condition::False);
        p.dedup.insert(NodeKey::True, 1);
        p.kinds.push(NodeKey::True);
        p.conds.push(Condition::True);
        RwLock::new(p)
    })
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Point-in-time pool counters, exported through the bench/CLI
/// `pool` metrics block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Dedup lookups that found an existing node.
    pub hits: u64,
    /// Dedup lookups that allocated a new node.
    pub misses: u64,
    /// Number of distinct condition nodes interned.
    pub size: usize,
}

faure_trace::stats!(PoolStats {
    hits: Counter, "pool_hits", "faure_pool_hits_total", "Condition-pool dedup lookups that found an existing node.";
    misses: Counter, "pool_misses", "faure_pool_misses_total", "Condition-pool dedup lookups that allocated a new node.";
    size: Gauge, "pool_size", "faure_pool_size", "Distinct condition nodes interned.";
});

impl PoolStats {
    /// hits / (hits + misses), or 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter movement since `baseline` (an earlier [`pool_stats`]
    /// snapshot). `hits`/`misses` are the lookups performed in
    /// between; `size` is the pool size *now*, since the pool only
    /// grows and the absolute size is what callers report.
    ///
    /// The pool counters are process-global and cumulative, so a raw
    /// value observed mid-suite depends on every test that ran before
    /// it in the same process. Assertions about a region of interest
    /// (a bench stage, one evaluation) must take a snapshot first and
    /// assert on the delta, never on the absolute counters.
    pub fn since(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            size: self.size,
        }
    }
}

/// Snapshot of the pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        size: pool().read().expect("condition pool poisoned").kinds.len(),
    }
}

/// Pool counter movement since `baseline`: shorthand for
/// `pool_stats().since(baseline)`. Use this to scope hit-rate
/// assertions to a region of interest instead of depending on
/// whatever ran earlier in the process.
pub fn pool_stats_since(baseline: &PoolStats) -> PoolStats {
    pool_stats().since(baseline)
}

/// Looks `key` up in the pool, inserting a node materialised by
/// `make` when absent. `make` runs with **no lock held** (it may read
/// the pool itself, e.g. to clone child trees); a racing insert of the
/// same key is resolved by the re-check under the write lock — both
/// racers materialise structurally equal trees, first one in wins.
fn intern_node(key: NodeKey, make: impl FnOnce() -> Condition) -> CondId {
    let lock = pool();
    if let Some(&id) = lock
        .read()
        .expect("condition pool poisoned")
        .dedup
        .get(&key)
    {
        HITS.fetch_add(1, Ordering::Relaxed);
        return CondId(id);
    }
    let cond = make();
    let mut w = lock.write().expect("condition pool poisoned");
    if let Some(&id) = w.dedup.get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return CondId(id);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let id = u32::try_from(w.kinds.len()).expect("condition pool overflow");
    w.kinds.push(key.clone());
    w.conds.push(cond);
    w.dedup.insert(key, id);
    CondId(id)
}

/// Interns a condition, returning its [`CondId`].
///
/// Interning performs **no** simplification — empty or singleton
/// `And`/`Or` nodes, nested negations, everything is preserved — so
/// `resolve(intern(c))` is structurally identical to `c` and interning
/// is idempotent.
pub fn intern(cond: &Condition) -> CondId {
    match cond {
        Condition::False => CondId::FALSE,
        Condition::True => CondId::TRUE,
        Condition::Atom(a) => intern_node(NodeKey::Atom(a.clone()), || cond.clone()),
        Condition::Not(inner) => {
            let child = intern(inner);
            intern_node(NodeKey::Not(child.0), || cond.clone())
        }
        Condition::And(cs) => {
            let ids: Vec<u32> = cs.iter().map(|c| intern(c).0).collect();
            intern_node(NodeKey::And(ids), || cond.clone())
        }
        Condition::Or(cs) => {
            let ids: Vec<u32> = cs.iter().map(|c| intern(c).0).collect();
            intern_node(NodeKey::Or(ids), || cond.clone())
        }
    }
}

/// Returns the condition an id was interned from. O(1): clones the
/// cached (Arc-backed, structurally shared) tree.
pub fn resolve(id: CondId) -> Condition {
    pool().read().expect("condition pool poisoned").conds[id.0 as usize].clone()
}

/// Writes [`resolve`] of each id in `ids` into the matching slot of
/// `out`, in order, under one read lock: exporting a whole condition
/// column costs one lock, not one per row, and no buffer beside the
/// rows it fills. `out` is drained under the lock, so it must not
/// intern.
pub fn resolve_into<'a>(ids: &[CondId], out: impl IntoIterator<Item = &'a mut Condition>) {
    let r = pool().read().expect("condition pool poisoned");
    for (id, slot) in ids.iter().zip(out) {
        *slot = r.conds[id.0 as usize].clone();
    }
}

/// The interned children of an `And` node, or `None` for any other
/// kind. Used by callers that flatten conjunctions id-wise.
fn and_children(id: CondId) -> Option<Vec<u32>> {
    match &pool().read().expect("condition pool poisoned").kinds[id.0 as usize] {
        NodeKey::And(cs) => Some(cs.clone()),
        _ => None,
    }
}

fn or_children(id: CondId) -> Option<Vec<u32>> {
    match &pool().read().expect("condition pool poisoned").kinds[id.0 as usize] {
        NodeKey::Or(cs) => Some(cs.clone()),
        _ => None,
    }
}

fn materialize_nary(children: &[u32], conj_node: bool) -> Condition {
    let kids: Vec<Condition> = {
        let r = pool().read().expect("condition pool poisoned");
        children
            .iter()
            .map(|&c| r.conds[c as usize].clone())
            .collect()
    };
    if conj_node {
        Condition::And(Arc::new(kids))
    } else {
        Condition::Or(Arc::new(kids))
    }
}

/// Pooled conjunction. Mirrors [`Condition::and`]: `False` dominates,
/// `True` disappears, nested `And`s flatten.
pub fn conj(a: CondId, b: CondId) -> CondId {
    if a.is_false() || b.is_false() {
        return CondId::FALSE;
    }
    if a.is_true() {
        return b;
    }
    if b.is_true() {
        return a;
    }
    let children = match (and_children(a), and_children(b)) {
        (Some(mut xs), Some(ys)) => {
            xs.extend(ys);
            xs
        }
        (Some(mut xs), None) => {
            xs.push(b.0);
            xs
        }
        (None, Some(ys)) => {
            let mut xs = Vec::with_capacity(ys.len() + 1);
            xs.push(a.0);
            xs.extend(ys);
            xs
        }
        (None, None) => vec![a.0, b.0],
    };
    let key = NodeKey::And(children);
    intern_node(key.clone(), || match &key {
        NodeKey::And(cs) => materialize_nary(cs, true),
        _ => unreachable!(),
    })
}

/// Pooled disjunction. Mirrors [`Condition::or`]: `True` dominates,
/// `False` disappears, nested `Or`s flatten.
pub fn disj(a: CondId, b: CondId) -> CondId {
    if a.is_true() || b.is_true() {
        return CondId::TRUE;
    }
    if a.is_false() {
        return b;
    }
    if b.is_false() {
        return a;
    }
    let children = match (or_children(a), or_children(b)) {
        (Some(mut xs), Some(ys)) => {
            xs.extend(ys);
            xs
        }
        (Some(mut xs), None) => {
            xs.push(b.0);
            xs
        }
        (None, Some(ys)) => {
            let mut xs = Vec::with_capacity(ys.len() + 1);
            xs.push(a.0);
            xs.extend(ys);
            xs
        }
        (None, None) => vec![a.0, b.0],
    };
    let key = NodeKey::Or(children);
    intern_node(key.clone(), || match &key {
        NodeKey::Or(cs) => materialize_nary(cs, false),
        _ => unreachable!(),
    })
}

/// Pooled negation. Mirrors [`Condition::negate`]: constant folding,
/// double-negation elimination, direct atom-operator negation.
pub fn neg(id: CondId) -> CondId {
    if id.is_true() {
        return CondId::FALSE;
    }
    if id.is_false() {
        return CondId::TRUE;
    }
    let kind = {
        let r = pool().read().expect("condition pool poisoned");
        match &r.kinds[id.0 as usize] {
            NodeKey::Not(inner) => return CondId(*inner),
            NodeKey::Atom(a) => NodeKey::Atom(Atom {
                lhs: a.lhs.clone(),
                op: a.op.negated(),
                rhs: a.rhs.clone(),
            }),
            _ => NodeKey::Not(id.0),
        }
    };
    match kind {
        NodeKey::Atom(a) => {
            let cond = Condition::Atom(a.clone());
            intern_node(NodeKey::Atom(a), move || cond)
        }
        NodeKey::Not(inner) => intern_node(NodeKey::Not(inner), || {
            Condition::Not(Arc::new(resolve(id)))
        }),
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------------------
// List constants
// ---------------------------------------------------------------------------

/// An interned list constant (`Const::List` payload). `Copy`, so it
/// can live in a columnar storage cell.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ListId(u32);

struct ListPool {
    dedup: HashMap<Arc<[Const]>, u32>,
    lists: Vec<Arc<[Const]>>,
}

fn list_pool() -> &'static RwLock<ListPool> {
    static LISTS: OnceLock<RwLock<ListPool>> = OnceLock::new();
    LISTS.get_or_init(|| {
        RwLock::new(ListPool {
            dedup: HashMap::new(),
            lists: Vec::new(),
        })
    })
}

/// Interns a list constant payload by content.
pub fn intern_list(items: &Arc<[Const]>) -> ListId {
    let lock = list_pool();
    if let Some(&id) = lock.read().expect("list pool poisoned").dedup.get(items) {
        return ListId(id);
    }
    let mut w = lock.write().expect("list pool poisoned");
    if let Some(&id) = w.dedup.get(items) {
        return ListId(id);
    }
    let id = u32::try_from(w.lists.len()).expect("list pool overflow");
    w.lists.push(Arc::clone(items));
    w.dedup.insert(Arc::clone(items), id);
    ListId(id)
}

/// Returns the list payload an id was interned from (O(1) Arc clone).
pub fn resolve_list(id: ListId) -> Arc<[Const]> {
    Arc::clone(&list_pool().read().expect("list pool poisoned").lists[id.0 as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvar::{CVarRegistry, Domain};
    use crate::term::Term;

    fn vars2() -> (crate::cvar::CVarId, crate::cvar::CVarId) {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("px", Domain::Bool01);
        let y = reg.fresh("py", Domain::Bool01);
        (x, y)
    }

    #[test]
    fn constants_pinned() {
        assert_eq!(intern(&Condition::False), CondId::FALSE);
        assert_eq!(intern(&Condition::True), CondId::TRUE);
        assert_eq!(resolve(CondId::TRUE), Condition::True);
        assert_eq!(resolve(CondId::FALSE), Condition::False);
    }

    #[test]
    fn intern_resolve_round_trip() {
        let (x, y) = vars2();
        let c = Condition::eq(Term::Var(x), Term::int(1))
            .and(Condition::ne(Term::Var(y), Term::int(0)))
            .or(Condition::eq(Term::Var(y), Term::int(1)))
            .negate();
        let id = intern(&c);
        assert_eq!(resolve(id), c);
        assert_eq!(intern(&c), id);
        assert_eq!(intern(&resolve(id)), id);
    }

    #[test]
    fn resolve_into_is_resolve_per_id() {
        let (x, _) = vars2();
        let ids = [
            CondId::TRUE,
            intern(&Condition::eq(Term::Var(x), Term::int(7))),
            CondId::FALSE,
            CondId::TRUE,
        ];
        let one_by_one: Vec<Condition> = ids.iter().map(|&id| resolve(id)).collect();
        let mut slots = vec![Condition::False; ids.len()];
        resolve_into(&ids, &mut slots);
        assert_eq!(slots, one_by_one);
    }

    #[test]
    fn equal_structure_equal_id() {
        let (x, _) = vars2();
        let a = Condition::eq(Term::Var(x), Term::int(1));
        let b = Condition::eq(Term::Var(x), Term::int(1));
        assert_eq!(intern(&a), intern(&b));
        assert_ne!(
            intern(&a),
            intern(&Condition::ne(Term::Var(x), Term::int(1)))
        );
    }

    #[test]
    fn pooled_ops_match_tree_ops() {
        let (x, y) = vars2();
        let shapes = [
            Condition::True,
            Condition::False,
            Condition::eq(Term::Var(x), Term::int(1)),
            Condition::ne(Term::Var(y), Term::int(0)),
            Condition::eq(Term::Var(x), Term::int(1))
                .and(Condition::ne(Term::Var(y), Term::int(0))),
            Condition::eq(Term::Var(x), Term::int(0)).or(Condition::eq(Term::Var(y), Term::int(1))),
            Condition::eq(Term::Var(x), Term::int(2)).negate().negate(),
        ];
        for a in &shapes {
            assert_eq!(resolve(neg(intern(a))), a.clone().negate(), "neg {a:?}");
            for b in &shapes {
                assert_eq!(
                    resolve(conj(intern(a), intern(b))),
                    a.clone().and(b.clone()),
                    "conj {a:?} {b:?}"
                );
                assert_eq!(
                    resolve(disj(intern(a), intern(b))),
                    a.clone().or(b.clone()),
                    "disj {a:?} {b:?}"
                );
            }
        }
    }

    #[test]
    fn singleton_and_empty_nodes_survive() {
        // intern() must not simplify: degenerate nodes round-trip.
        let (x, _) = vars2();
        let single = Condition::conj(vec![Condition::eq(Term::Var(x), Term::int(1))]);
        let empty = Condition::disj(vec![]);
        assert_eq!(resolve(intern(&single)), single);
        assert_eq!(resolve(intern(&empty)), empty);
    }

    #[test]
    fn stats_grow() {
        let before = pool_stats();
        let (x, y) = vars2();
        let c = Condition::eq(Term::Var(x), Term::int(7))
            .and(Condition::eq(Term::Var(y), Term::int(9)));
        intern(&c);
        intern(&c);
        let after = pool_stats();
        assert!(after.size >= before.size);
        assert!(after.hits > before.hits, "second intern must hit");
    }

    #[test]
    fn scoped_stats_are_order_independent() {
        // Warm the pool with unrelated work, then assert on the delta
        // of a scoped region: the numbers must not depend on how much
        // ran before the snapshot. The sibling tests intern on other
        // threads meanwhile, so only what holds under concurrency is
        // asserted here; the exact deltas are pinned by
        // `tests/pool_scoped.rs`, one test in a process of its own.
        let (x, y) = vars2();
        intern(&Condition::eq(Term::Var(x), Term::int(100)));
        let baseline = pool_stats();
        let c = Condition::eq(Term::Var(x), Term::int(101))
            .and(Condition::eq(Term::Var(y), Term::int(102)));
        intern(&c);
        intern(&c);
        let scoped = pool_stats_since(&baseline);
        // `c` is three nodes (two atoms + one And); the second intern
        // hits on each.
        assert!(scoped.hits >= 3, "re-intern must hit per node: {scoped:?}");
        assert!(scoped.hit_rate() > 0.0);
        assert!(scoped.size >= baseline.size, "the pool never shrinks");
    }

    #[test]
    fn list_interning_round_trips() {
        let items: Arc<[Const]> = vec![Const::sym("A"), Const::int(3)].into();
        let id = intern_list(&items);
        assert_eq!(intern_list(&items), id);
        assert_eq!(resolve_list(id), items);
        let other: Arc<[Const]> = vec![Const::sym("B")].into();
        assert_ne!(intern_list(&other), id);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let (x, _) = vars2();
        let c = Condition::eq(Term::Var(x), Term::int(42));
        let ids: Vec<CondId> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| intern(&c)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
