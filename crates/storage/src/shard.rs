//! Partition-aware routing for sharded evaluation.
//!
//! The sharded fixpoint driver (`faure_core::engine::shard`) partitions
//! each recursive predicate's delta on one key column; a derived row
//! belongs to the shard its key constant hashes to, and rows derived by
//! a different shard are *routed* to the owner, not recomputed. The
//! hash here must therefore be **stable**: independent of pointer
//! values, interning order, process, and platform, so that a fixed
//! shard count always produces the same partition of the same rows —
//! that stability is half of the determinism argument (the other half
//! is the producer-ordered merge at each barrier).
//!
//! A key cell holding a c-variable has no ground value to hash, so the
//! row cannot be assigned one owner: it is [broadcast](Route::Broadcast)
//! to every shard. Duplicate derivations downstream are absorbed by the
//! table's dedup-by-terms insert and the idempotent condition merge.

use faure_ctable::{Const, Term};
use std::time::Duration;

/// Where a row goes under a given shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The row's key is ground: exactly one shard owns it.
    To(usize),
    /// The key cell is a c-variable — every shard must see the row.
    Broadcast,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable FNV-1a hash of a constant: a discriminant byte plus the
/// constant's content (symbols hash their *names*, not their interning
/// ids, so routing survives interning-order differences between runs).
pub fn hash_const(c: &Const) -> u64 {
    hash_const_into(FNV_OFFSET, c)
}

fn hash_const_into(state: u64, c: &Const) -> u64 {
    match c {
        Const::Int(v) => fnv1a(fnv1a(state, &[0u8]), &v.to_le_bytes()),
        Const::Sym(s) => fnv1a(fnv1a(state, &[1u8]), s.as_str().as_bytes()),
        Const::List(items) => {
            let mut h = fnv1a(state, &[2u8]);
            for item in items.iter() {
                h = hash_const_into(h, item);
            }
            fnv1a(h, &[3u8])
        }
    }
}

/// Routes a key cell under `shards` partitions: ground constants hash
/// to one owner, c-variable cells broadcast (see module docs).
pub fn route_term(term: &Term, shards: usize) -> Route {
    debug_assert!(shards >= 1);
    match term {
        Term::Const(c) => Route::To((hash_const(c) % shards as u64) as usize),
        Term::Var(_) => Route::Broadcast,
    }
}

/// Accumulated sharded-evaluation statistics for one run.
///
/// All counters are collected on the driver thread at pass barriers, so
/// they are deterministic for a fixed shard count (per-shard wall times
/// are wall-clock measurements and of course are not).
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Shard count the run executed with (`0` = never sharded).
    pub shards: usize,
    /// Changed rows routed to a shard other than the one that derived
    /// them (each broadcast copy beyond the producer's own counts too).
    pub routed_rows: u64,
    /// Changed rows broadcast to every shard because the partition-key
    /// cell held a c-variable.
    pub broadcast_rows: u64,
    /// Delta batches exchanged through the bounded channels.
    pub exchanged_batches: u64,
    /// Sharded rule passes executed (one per (rule, delta-slot, barrier)).
    pub passes: u64,
    /// Summed per-shard wall clock, indexed by shard. Grown on first
    /// use; `imbalance()` reads max/mean over it.
    pub shard_wall: Vec<Duration>,
}

faure_trace::stats!(ShardStats {
    shards: Gauge, "count", "faure_shards", "Delta partitions of the last sharded run.";
    routed_rows: Counter, "routed_rows", "faure_shard_routed_rows_total", "Changed rows routed to a shard other than their producer.";
    broadcast_rows: Counter, "broadcast_rows", "faure_shard_broadcast_rows_total", "Changed rows broadcast because their key cell is a c-variable.";
    exchanged_batches: Counter, "exchanged_batches", "faure_shard_batches_total", "Delta batches exchanged between shards.";
    passes: Counter, "passes", "faure_shard_passes_total", "Sharded rule passes executed.";
});

impl ShardStats {
    /// Zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one shard's wall time for one pass.
    pub fn record_wall(&mut self, shard: usize, wall: Duration) {
        if self.shard_wall.len() <= shard {
            self.shard_wall.resize(shard + 1, Duration::ZERO);
        }
        self.shard_wall[shard] += wall;
    }

    /// Max/mean ratio over the per-shard wall times — `1.0` is a
    /// perfectly balanced run, `None` before any sharded pass ran.
    pub fn imbalance(&self) -> Option<f64> {
        let max = self.shard_wall.iter().max()?.as_secs_f64();
        let sum: f64 = self.shard_wall.iter().map(Duration::as_secs_f64).sum();
        if sum <= 0.0 {
            return None;
        }
        let mean = sum / self.shard_wall.len() as f64;
        Some(max / mean)
    }

    /// Folds another record into this one (shard counts must agree; the
    /// larger wins so absorbing a serial run's zeroed stats is a no-op).
    pub fn absorb(&mut self, other: &ShardStats) {
        faure_trace::stat::absorb(self, other);
        for (i, w) in other.shard_wall.iter().enumerate() {
            self.record_wall(i, *w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_terms_route_to_one_stable_shard() {
        for shards in [1usize, 2, 4, 8] {
            for v in 0..64i64 {
                let t = Term::int(v);
                let first = route_term(&t, shards);
                assert_eq!(first, route_term(&t, shards), "routing must be pure");
                match first {
                    Route::To(s) => assert!(s < shards),
                    Route::Broadcast => panic!("ground term broadcast"),
                }
            }
        }
    }

    #[test]
    fn symbols_hash_names_not_interning_order() {
        // Same name → same route regardless of when it was interned.
        let a = Term::sym("10.0.0.0/8");
        let b = Term::Const(Const::sym("10.0.0.0/8"));
        assert_eq!(route_term(&a, 8), route_term(&b, 8));
        // Distinct contents spread: at least two of these land apart.
        let routes: Vec<Route> = (0..16)
            .map(|i| route_term(&Term::sym(&format!("p{i}")), 8))
            .collect();
        let first = routes[0];
        assert!(routes.iter().any(|r| *r != first), "degenerate hash");
    }

    #[test]
    fn list_constants_hash_contents() {
        let path1 = Term::Const(Const::List(vec![Const::sym("A"), Const::sym("B")].into()));
        let path2 = Term::Const(Const::List(vec![Const::sym("A"), Const::sym("B")].into()));
        assert_eq!(route_term(&path1, 4), route_term(&path2, 4));
    }

    #[test]
    fn cvar_cells_broadcast() {
        let mut reg = faure_ctable::CVarRegistry::new();
        let x = reg.fresh("x", faure_ctable::Domain::Open);
        assert_eq!(route_term(&Term::Var(x), 4), Route::Broadcast);
    }

    #[test]
    fn single_shard_owns_everything() {
        for v in 0..8i64 {
            assert_eq!(route_term(&Term::int(v), 1), Route::To(0));
        }
    }

    #[test]
    fn stats_absorb_and_imbalance() {
        let mut a = ShardStats::new();
        assert_eq!(a.imbalance(), None);
        a.shards = 2;
        a.routed_rows = 3;
        a.record_wall(0, Duration::from_millis(30));
        a.record_wall(1, Duration::from_millis(10));
        let mut b = ShardStats::new();
        b.shards = 2;
        b.broadcast_rows = 2;
        b.exchanged_batches = 4;
        b.record_wall(1, Duration::from_millis(10));
        a.absorb(&b);
        assert_eq!(a.routed_rows, 3);
        assert_eq!(a.broadcast_rows, 2);
        assert_eq!(a.exchanged_batches, 4);
        // walls: [30ms, 20ms] → max 30, mean 25 → 1.2
        let imb = a.imbalance().unwrap();
        assert!((imb - 1.2).abs() < 1e-9, "imbalance {imb}");
    }
}
