//! The exact half of `pool::tests::scoped_stats_are_order_independent`.
//!
//! The pool's counters are process-global, so "this region made exactly
//! these lookups" only holds while nothing else interns. A test binary
//! with a single test is a process with a single interning thread:
//! keep it that way — a second test here would run beside this one.

use faure_ctable::pool::{intern, pool_stats, pool_stats_since};
use faure_ctable::{CVarRegistry, Condition, Domain, Term};

#[test]
fn scoped_stats_are_exact_in_a_quiet_process() {
    let mut reg = CVarRegistry::new();
    let x = reg.fresh("x", Domain::Open);
    let y = reg.fresh("y", Domain::Open);
    intern(&Condition::eq(Term::Var(x), Term::int(100)));

    let baseline = pool_stats();
    let c = Condition::eq(Term::Var(x), Term::int(101))
        .and(Condition::eq(Term::Var(y), Term::int(102)));
    intern(&c);
    let first = pool_stats_since(&baseline);
    // A cold intern of three new nodes (two atoms + one And) allocates
    // each and finds none.
    assert_eq!((first.hits, first.misses), (0, 3), "{first:?}");
    assert_eq!(first.size, baseline.size + 3);

    intern(&c);
    let scoped = pool_stats_since(&baseline);
    assert_eq!((scoped.hits, scoped.misses), (3, 3), "{scoped:?}");
    assert_eq!(scoped.size, pool_stats().size);
    assert_eq!(scoped.hit_rate(), 0.5);

    // A no-op region reads as a zero delta.
    let quiet = pool_stats_since(&pool_stats());
    assert_eq!((quiet.hits, quiet.misses), (0, 0));
}
