//! Output checks, all outside any timed region.
//!
//! Two independent witnesses: a digest over the canonical form of every
//! derived row (equal across iterations, repetitions, shard counts and
//! the incremental path), and `faure_core::reference` — a plain
//! per-world Datalog evaluator sharing no code with the engine — on
//! sampled prefixes in every possible world.

use faure_core::engine::canonicalize;
use faure_core::reference::evaluate_ground;
use faure_core::Program;
use faure_ctable::worlds::instantiate;
use faure_ctable::{
    Assignment, Atom, CTuple, CVarId, CmpOp, Condition, Const, Database, GroundTuple, Relation,
    Term,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Prefixes sampled for the per-world check.
pub const SAMPLED_PREFIXES: usize = 8;

/// SplitMix64: the benchmark's only random source, so a seed fixes
/// every input without depending on the repository's `rand` stand-in.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The generator for sampling what gets checked and replayed: a
    /// stream of its own, apart from the one `seed` feeds the RIB.
    pub fn for_checks(seed: u64) -> SplitMix64 {
        SplitMix64(seed ^ 0x5eed_c4ec)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value below `n` (`n` > 0). The bias of the plain remainder is
    /// irrelevant at the sizes sampled here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` distinct values below `n`, in draw order.
pub fn sample_distinct(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    while picked.len() < count.min(n) {
        let v = rng.below(n);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

/// Puts the operands of `=` / `!=` in one order: the pooled DNF form
/// may store `x = 1` as `1 = x` relative to a condition built directly.
fn orient(c: Condition) -> Condition {
    match c {
        Condition::Atom(a)
            if matches!(a.op, CmpOp::Eq | CmpOp::Ne)
                && format!("{:?}", a.lhs) > format!("{:?}", a.rhs) =>
        {
            Condition::Atom(Atom {
                lhs: a.rhs,
                op: a.op,
                rhs: a.lhs,
            })
        }
        Condition::Not(inner) => Condition::Not(Arc::new(orient((*inner).clone()))),
        Condition::And(cs) => Condition::And(Arc::new(cs.iter().cloned().map(orient).collect())),
        Condition::Or(cs) => Condition::Or(Arc::new(cs.iter().cloned().map(orient).collect())),
        other => other,
    }
}

/// The spelling-independent form of a condition: the comparison the
/// repository's own differential suites use.
fn canonical(c: &Condition) -> Condition {
    canonicalize(orient(canonicalize(c.clone())))
}

/// FNV-1a over the sorted canonical rows of `relations`. Row order and
/// condition spelling do not enter; rows and logical structure do.
pub fn digest<'a>(relations: impl IntoIterator<Item = &'a Relation>) -> u64 {
    let mut rows: Vec<String> = Vec::new();
    for rel in relations {
        let pred = &rel.schema.name;
        rows.extend(
            rel.iter()
                .map(|t| format!("{pred}{:?}|{:?}", t.terms, canonical(&t.cond))),
        );
    }
    rows.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for row in &rows {
        for byte in row.bytes().chain(std::iter::once(b'\n')) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The engine's answer for `prefix` in `pred`, reduced to the world
/// `assignment`: rows whose condition holds there.
fn engine_rows_in_world(rows: &[&CTuple], assignment: &Assignment) -> BTreeSet<GroundTuple> {
    let lookup = assignment.lookup();
    rows.iter()
        .filter(|t| t.cond.eval(&lookup) == Some(true))
        .filter_map(|t| {
            t.terms
                .iter()
                .map(|term| term.instantiate(&lookup))
                .collect()
        })
        .collect()
}

/// Compares the engine's output against the reference evaluator on
/// `prefixes`, in every world of each prefix's c-variables.
///
/// `input` holds the `F` table, `reference_program` derives `preds`
/// from `F` alone, and `output` holds what the engine derived for
/// `preds`. Each prefix's `F` rows form a sub-database whose worlds
/// range over the three monitored links plus that prefix's backup
/// variables (7 variables, 128 worlds, on the generated RIB).
/// Returns the number of worlds compared, or the first disagreement.
pub fn reference_check(
    input: &Database,
    monitored: [CVarId; 3],
    reference_program: &Program,
    output: &Database,
    preds: &[&str],
    prefixes: &[usize],
) -> Result<usize, String> {
    let f = input.relation("F").ok_or("input has no F relation")?;
    let wanted: BTreeSet<i64> = prefixes.iter().map(|&p| p as i64).collect();
    let prefix_of = |t: &CTuple| match t.terms.first() {
        Some(Term::Const(Const::Int(p))) if wanted.contains(p) => Some(*p),
        _ => None,
    };

    let mut engine: BTreeMap<(&str, i64), Vec<&CTuple>> = BTreeMap::new();
    for &pred in preds {
        let rel = output
            .relation(pred)
            .ok_or_else(|| format!("output has no {pred} relation"))?;
        for t in rel.iter() {
            if let Some(p) = prefix_of(t) {
                engine.entry((pred, p)).or_default().push(t);
            }
        }
    }

    let mut worlds = 0usize;
    for &p in &wanted {
        let mut sub = Database::new();
        sub.cvars = input.cvars.clone();
        let mut rel = Relation::empty(f.schema.clone());
        rel.tuples = f
            .iter()
            .filter(|t| prefix_of(t) == Some(p))
            .cloned()
            .collect();
        let mut vars: BTreeSet<CVarId> = monitored.into_iter().collect();
        for t in &rel.tuples {
            t.cond.collect_cvars(&mut vars);
        }
        sub.set_relation(rel);
        let vars: Vec<CVarId> = vars.into_iter().collect();
        let domains: Vec<Vec<Const>> =
            vars.iter()
                .map(|&v| {
                    input.cvars.domain(v).members().ok_or_else(|| {
                        format!("c-variable {} has an open domain", input.cvars.name(v))
                    })
                })
                .collect::<Result<_, _>>()?;

        let total: usize = domains.iter().map(Vec::len).product();
        for mut code in 0..total {
            let mut assignment = Assignment::new();
            for (v, domain) in vars.iter().zip(&domains) {
                assignment.set(*v, domain[code % domain.len()].clone());
                code /= domain.len();
            }
            let world = instantiate(&sub, &assignment).map_err(|e| e.to_string())?;
            let expected = evaluate_ground(reference_program, &sub.cvars, &world)
                .map_err(|e| e.to_string())?;
            for &pred in preds {
                let want = expected.get(pred).cloned().unwrap_or_default();
                let got = engine
                    .get(&(pred, p))
                    .map(|rows| engine_rows_in_world(rows, &assignment))
                    .unwrap_or_default();
                if got != want {
                    return Err(format!(
                        "{pred} for prefix {p} differs from the reference in world {assignment:?}: \
                         engine {} rows, reference {} rows",
                        got.len(),
                        want.len()
                    ));
                }
            }
            worlds += 1;
        }
    }
    Ok(worlds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::Schema;

    fn rel(name: &str, rows: Vec<CTuple>) -> Relation {
        let mut r = Relation::empty(Schema::new(name, &["a", "b"]));
        r.tuples = rows;
        r
    }

    #[test]
    fn digest_ignores_row_order_and_condition_spelling() {
        let x = CVarId(0);
        let y = CVarId(1);
        let a = Condition::eq(Term::Var(x), Term::int(1));
        let b = Condition::eq(Term::Var(y), Term::int(0));
        let flipped = Condition::eq(Term::int(1), Term::Var(x));
        let t1 = CTuple::with_cond([Term::int(1), Term::int(2)], a.clone().and(b.clone()));
        let t1_respelled = CTuple::with_cond([Term::int(1), Term::int(2)], b.clone().and(flipped));
        let t2 = CTuple::new([Term::int(3), Term::int(4)]);
        let one = digest([&rel("R", vec![t1.clone(), t2.clone()])]);
        let two = digest([&rel("R", vec![t2.clone(), t1_respelled])]);
        assert_eq!(one, two);
        // A different condition, a different relation name or a missing
        // row all change it.
        let weaker = CTuple::with_cond([Term::int(1), Term::int(2)], a);
        assert_ne!(one, digest([&rel("R", vec![weaker, t2.clone()])]));
        assert_ne!(one, digest([&rel("S", vec![t1.clone(), t2])]));
        assert_ne!(one, digest([&rel("R", vec![t1])]));
    }

    #[test]
    fn sampling_is_seeded_and_distinct() {
        let a = sample_distinct(&mut SplitMix64(7), 100, 8);
        let b = sample_distinct(&mut SplitMix64(7), 100, 8);
        let c = sample_distinct(&mut SplitMix64(8), 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), 8);
        assert_eq!(sample_distinct(&mut SplitMix64(1), 3, 8).len(), 3);
    }
}
