//! Synthetic RIB workload — the §6 evaluation substrate.
//!
//! The paper evaluates on "realistic forwarding configuration inferred
//! from BGP RIB (route-views2.oregon-ix.net on 2021-06-10)": for each
//! prefix it randomly selects 5 AS paths, one primary and four
//! backups, with preferences set so that "a backup will be used only
//! when the primary and all the backups with higher preferences have
//! failed".
//!
//! The RIB file itself is proprietary-ish bulk data; per the
//! substitution rule this module generates an equivalent workload from
//! a seed:
//!
//! * an AS-level topology from preferential attachment (heavy-tailed
//!   like the real AS graph);
//! * per prefix, 5 random simple paths (one primary + 4 backups);
//! * **failure variables**: the primary path of each prefix traverses
//!   one of three *monitored bottleneck links* whose `{0,1}` states are
//!   the shared c-variables `x̄, ȳ, z̄` (so Listing 2's failure patterns
//!   q6–q8 are meaningful across the whole workload, exactly as in the
//!   paper's runs); each backup `i` additionally has its own per-prefix
//!   availability variable `b̄ᵖᵢ`, and is used iff the primary's
//!   monitored link is down and every higher-preference backup is
//!   unavailable:
//!
//! ```text
//! path 0 (primary):  g(p) = 1                     g(p) ∈ {x̄, ȳ, z̄}
//! path i (backup):   g(p) = 0 ∧ b̄ᵖ₁=0 ∧ … ∧ b̄ᵖᵢ₋₁=0 ∧ b̄ᵖᵢ=1
//! ```
//!
//! Each hop `(a, b)` of a usable path contributes a forwarding entry
//! `F(prefix, a, b)` guarded by that path's condition — a single
//! c-table describing every forwarding state under every failure
//! combination, per §4.
//!
//! What matters for the Table 4 reproduction is the *scaling shape*:
//! tuple counts and per-phase runtimes as a function of `#prefixes`,
//! which this generator preserves (≈ 5 paths × path-length entries per
//! prefix, conditions of the same size and form as the paper's).

use crate::topology::Graph;
use faure_ctable::{CTuple, CVarId, Condition, Database, Domain, Relation, Schema, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct RibParams {
    /// Number of prefixes (the paper sweeps 1 000 … 922 067).
    pub prefixes: usize,
    /// Candidate paths per prefix (paper: 5 = 1 primary + 4 backups).
    pub paths_per_prefix: usize,
    /// AS-topology size.
    pub as_count: usize,
    /// Path length in hops (edges); paths are simple.
    pub path_len: usize,
    /// RNG seed (the workload is fully reproducible).
    pub seed: u64,
}

impl Default for RibParams {
    fn default() -> Self {
        RibParams {
            prefixes: 1000,
            paths_per_prefix: 5,
            as_count: 512,
            path_len: 3,
            seed: 20210610, // the paper's RIB snapshot date
        }
    }
}

/// A generated workload: the forwarding database plus handles to the
/// monitored link-state variables.
pub struct RibWorkload {
    /// Database holding the `F(f, n1, n2)` c-table.
    pub db: Database,
    /// The three monitored link-state c-variables `x̄, ȳ, z̄`.
    pub monitored: [CVarId; 3],
    /// Per-prefix primary monitored-link choice (index into
    /// `monitored`), for tests and reporting.
    pub primary_choice: Vec<u8>,
}

/// Generates the workload.
pub fn generate(params: &RibParams) -> RibWorkload {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let graph = Graph::preferential_attachment(
        params.as_count,
        3,
        &mut StdRng::seed_from_u64(params.seed ^ 0x9e37_79b9),
    );

    let mut db = Database::new();
    let x = db.fresh_cvar("x", Domain::Bool01);
    let y = db.fresh_cvar("y", Domain::Bool01);
    let z = db.fresh_cvar("z", Domain::Bool01);
    let monitored = [x, y, z];
    let mut primary_choice = Vec::with_capacity(params.prefixes);

    // `F` is filled here and handed to the database whole; the walk,
    // the variable names and the backup list reuse one buffer each.
    let mut f = Relation::empty(Schema::new("F", &["f", "n1", "n2"]));
    f.tuples
        .reserve(params.prefixes * params.paths_per_prefix * params.path_len);
    let mut path = Vec::with_capacity(params.path_len + 1);
    let mut name = String::new();
    let mut backups: Vec<CVarId> = Vec::with_capacity(params.paths_per_prefix);
    let eq = |v: CVarId, state: i64| Condition::eq(Term::Var(v), Term::int(state));

    for p in 0..params.prefixes {
        let choice = rng.gen_range(0..3u8);
        primary_choice.push(choice);
        let g = monitored[choice as usize];

        // Per-prefix backup availability variables b1..b{k-1}.
        backups.clear();
        for i in 1..params.paths_per_prefix {
            name.clear();
            write!(name, "b{p}_{i}").expect("writing to a String");
            backups.push(db.fresh_cvar(name.as_str(), Domain::Bool01));
        }

        for i in 0..params.paths_per_prefix {
            if !graph.random_simple_path_into(params.path_len, &mut rng, &mut path) {
                continue;
            }
            // Condition for "path i is the one in use": the flat
            // conjunction the chained `and`s would build.
            let cond = if i == 0 {
                eq(g, 1)
            } else {
                let mut atoms = Vec::with_capacity(i + 1);
                atoms.push(eq(g, 0));
                atoms.extend(backups[..i - 1].iter().map(|&b| eq(b, 0)));
                atoms.push(eq(backups[i - 1], 1));
                Condition::conj(atoms)
            };
            for hop in path.windows(2) {
                f.tuples.push(CTuple::with_cond(
                    [
                        Term::int(p as i64),
                        Term::int(hop[0] as i64),
                        Term::int(hop[1] as i64),
                    ],
                    cond.clone(),
                ));
            }
        }
    }
    db.set_relation(f);

    RibWorkload {
        db,
        monitored,
        primary_choice,
    }
}

/// Returns the most frequent forwarding hop `(n1, n2)` of the
/// workload — a live pair for q7-style point-to-point queries (the
/// paper picks nodes 2 and 5 of its example; on a synthetic topology
/// the interesting pairs depend on the seed).
pub fn frequent_pair(workload: &RibWorkload) -> Option<(i64, i64)> {
    let f = workload.db.relation("F")?;
    let mut counts: std::collections::HashMap<(i64, i64), usize> = std::collections::HashMap::new();
    for t in f.iter() {
        let (Some(a), Some(b)) = (
            t.terms[1].as_const().and_then(|c| c.as_int()),
            t.terms[2].as_const().and_then(|c| c.as_int()),
        ) else {
            continue;
        };
        *counts.entry((a, b)).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(pair, c)| (c, std::cmp::Reverse(pair)))
        .map(|(pair, _)| pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_core::{evaluate, evaluate_with, EvalOptions, PrunePolicy};

    fn small() -> RibParams {
        RibParams {
            prefixes: 20,
            as_count: 128,
            ..Default::default()
        }
    }

    fn fnv1a(lines: impl Iterator<Item = String>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in lines.flat_map(String::into_bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The generator's output as the allocating generator it replaced
    /// produced it: FNV-1a digests of every `F` tuple and of every
    /// registered variable (in order), the size of `F` and the first
    /// primary choices, recorded before the rewrite.
    #[test]
    fn output_is_what_the_allocating_generator_produced() {
        type Pinned = ((u64, usize, usize), u64, usize, u64, [u8; 8]);
        let pinned: [Pinned; 3] = [
            (
                (20210610, 300, 3),
                0x6a42_6769_ea59_3317,
                4500,
                0xb579_fb70_4200_85cf,
                [0, 2, 2, 0, 0, 2, 1, 2],
            ),
            (
                (7, 100, 16),
                0xbdf9_c27d_7a5a_e281,
                8000,
                0x28de_ce10_a795_a3bf,
                [0, 0, 2, 0, 2, 0, 1, 0],
            ),
            (
                (42, 50, 5),
                0xa71c_dbc4_30bb_5101,
                1250,
                0x9b03_0d26_9a1c_0fb7,
                [1, 1, 1, 2, 1, 1, 1, 0],
            ),
        ];
        for ((seed, prefixes, path_len), tuples, len, variables, choices) in pinned {
            let w = generate(&RibParams {
                prefixes,
                paths_per_prefix: 5,
                as_count: 256,
                path_len,
                seed,
            });
            let triple = (seed, prefixes, path_len);
            let f = w.db.relation("F").unwrap();
            assert_eq!(f.len(), len, "{triple:?}");
            assert_eq!(
                fnv1a(f.iter().map(|t| format!("{:?}|{:?}\n", t.terms, t.cond))),
                tuples,
                "{triple:?}"
            );
            assert_eq!(
                fnv1a(
                    w.db.cvars
                        .iter()
                        .map(|(_, v)| format!("{}:{:?}\n", v.name, v.domain))
                ),
                variables,
                "{triple:?}"
            );
            assert_eq!(w.primary_choice[..8], choices, "{triple:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(
            a.db.relation("F").unwrap().len(),
            b.db.relation("F").unwrap().len()
        );
        assert_eq!(a.primary_choice, b.primary_choice);
    }

    #[test]
    fn tuple_count_scales_with_prefixes() {
        let w1 = generate(&small());
        let w2 = generate(&RibParams {
            prefixes: 40,
            as_count: 128,
            ..Default::default()
        });
        let n1 = w1.db.relation("F").unwrap().len();
        let n2 = w2.db.relation("F").unwrap().len();
        // Roughly double (dedup of shared hops makes it inexact).
        assert!(n2 > n1 + n1 / 2, "n1={n1} n2={n2}");
        // ≈ prefixes × paths × hops (minus merged duplicates).
        assert!(n1 <= 20 * 5 * 3);
        assert!(n1 >= 20 * 3);
    }

    #[test]
    fn conditions_partition_paths() {
        // For any prefix, at most one path is in use per world: the
        // conditions of different paths are mutually exclusive.
        let w = generate(&small());
        let f = w.db.relation("F").unwrap();
        // Collect distinct conditions for prefix 0.
        let mut conds = Vec::new();
        for t in f.iter() {
            if t.terms[0] == Term::int(0) && !conds.contains(&t.cond) {
                conds.push(t.cond.clone());
            }
        }
        assert!(conds.len() >= 2);
        for (i, a) in conds.iter().enumerate() {
            for b in conds.iter().skip(i + 1) {
                let both = a.clone().and(b.clone());
                assert!(
                    !faure_solver::satisfiable(&w.db.cvars, &both).unwrap(),
                    "path-use conditions must be mutually exclusive"
                );
            }
        }
    }

    #[test]
    fn reachability_runs_on_workload() {
        let w = generate(&RibParams {
            prefixes: 5,
            as_count: 64,
            ..Default::default()
        });
        let out = evaluate_with(
            &crate::queries::reachability_program(),
            &w.db,
            &EvalOptions {
                prune: PrunePolicy::Never, // keep it fast; counts only
                ..Default::default()
            },
        )
        .unwrap();
        let r = out.relation("R").unwrap();
        assert!(r.len() >= w.db.relation("F").unwrap().len());
    }

    #[test]
    fn q6_on_workload_respects_pattern() {
        let w = generate(&RibParams {
            prefixes: 3,
            as_count: 64,
            ..Default::default()
        });
        let mut program = crate::queries::reachability_program();
        program.extend(crate::queries::q6_two_link_failure());
        let out = evaluate(&program, &w.db).unwrap();
        let t1 = out.relation("T1").unwrap();
        assert!(!t1.is_empty());
        use faure_ctable::{CmpOp, LinExpr};
        let [x, y, z] = w.monitored;
        let pattern = Condition::cmp(LinExpr::sum([x, y, z]), CmpOp::Eq, LinExpr::constant(1));
        for row in t1.iter().take(10) {
            assert!(faure_solver::implies(&out.database.cvars, &row.cond, &pattern).unwrap());
        }
    }
}
