//! Fixpoint drivers: stratified naive and semi-naive iteration.
//!
//! Each rule pass yields its derived rows as ordered partitions (one
//! per worker under parallel evaluation, a single partition serially);
//! the drivers replay the partitions through
//! [`Table::absorb_partitions`] in order, so the merged table — and
//! therefore every later iteration — is independent of the thread
//! count.

use super::rule::eval_rule;
use super::{Ctx, EvalError, EvalOptions, PrunePolicy};
use crate::ast::Rule;
use crate::plan::PlanCache;
use faure_solver::Session;
use faure_storage::{PhaseStats, PreparedRow, Table};
use std::collections::{BTreeSet, HashMap};

#[allow(clippy::too_many_arguments)]
pub(super) fn eval_stratum_semi_naive(
    ctx: &Ctx<'_>,
    rules: &[(usize, &Rule)],
    stratum_preds: &BTreeSet<&str>,
    tables: &mut HashMap<String, Table>,
    plans: &mut PlanCache,
    session: &mut Session,
    opts: &EvalOptions,
    stats: &mut PhaseStats,
) -> Result<(), EvalError> {
    // Iteration 0: every rule against the full tables (recursive rules
    // see the — possibly empty — current contents of stratum IDBs).
    let t_iter = ctx.tracer.now_ns();
    let mut delta: HashMap<String, Table> = HashMap::new();
    for &(ri, rule) in rules {
        let plan = plans.get_or_compile(ri, rule, None);
        let derived = eval_rule(
            ctx,
            ri,
            rule,
            plan,
            tables,
            None,
            session,
            opts,
            &mut stats.ops,
        )?;
        merge_derived(rule.head.pred.as_str(), derived, tables, &mut delta)?;
    }
    let delta_rows = record_delta_size(&delta, stats);
    super::publish::publish_iteration(delta_rows);
    ctx.tracer
        .emit_span("fixpoint", "iteration", t_iter, 0, || {
            vec![
                ("iteration", 0usize.into()),
                ("delta_rows", delta_rows.into()),
            ]
        });

    let mut iterations = 0usize;
    while !delta.is_empty() {
        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let t_iter = ctx.tracer.now_ns();
        if opts.prune == PrunePolicy::EveryIteration {
            // One span for the whole delta sweep: per-table spans would
            // follow `HashMap` iteration order, which is not
            // deterministic across runs.
            let t_prune = ctx.tracer.now_ns();
            let wall = std::time::Instant::now();
            let mut removed = 0usize;
            let mut rows = 0usize;
            for t in delta.values_mut() {
                rows += t.len();
                removed += t.prune(ctx.reg, session)?;
            }
            stats.prune_wall += wall.elapsed();
            super::publish::publish_prune(rows, removed);
            ctx.tracer.emit_span("eval", "prune", t_prune, 0, || {
                vec![
                    ("pred", "(delta)".into()),
                    ("rows", rows.into()),
                    ("removed", removed.into()),
                    ("threads", 1usize.into()),
                ]
            });
            delta.retain(|_, t| !t.is_empty());
            if delta.is_empty() {
                break;
            }
        }
        let mut next_delta: HashMap<String, Table> = HashMap::new();
        for &(ri, rule) in rules {
            // One pass per positive body literal whose predicate is in
            // this stratum and has a pending delta. The plan for each
            // (rule, delta slot) is compiled once — later iterations
            // are cache hits that only execute.
            for (pos, lit) in rule.body.iter().enumerate() {
                if lit.is_negative() {
                    continue;
                }
                let p = lit.atom().pred.as_str();
                if !stratum_preds.contains(p) {
                    continue;
                }
                let Some(d) = delta.get(p) else { continue };
                if d.is_empty() {
                    continue;
                }
                let plan = plans.get_or_compile(ri, rule, Some(pos));
                let derived = eval_rule(
                    ctx,
                    ri,
                    rule,
                    plan,
                    tables,
                    Some(d),
                    session,
                    opts,
                    &mut stats.ops,
                )?;
                merge_derived(rule.head.pred.as_str(), derived, tables, &mut next_delta)?;
            }
        }
        delta = next_delta;
        let delta_rows = record_delta_size(&delta, stats);
        super::publish::publish_iteration(delta_rows);
        let iteration = iterations;
        ctx.tracer
            .emit_span("fixpoint", "iteration", t_iter, 0, || {
                vec![
                    ("iteration", iteration.into()),
                    ("delta_rows", delta_rows.into()),
                ]
            });
    }
    Ok(())
}

/// Records the total delta size of a just-finished fixpoint iteration
/// (the empty delta that terminates the loop is not recorded); returns
/// the size.
fn record_delta_size(delta: &HashMap<String, Table>, stats: &mut PhaseStats) -> usize {
    let total: usize = delta.values().map(Table::len).sum();
    if total > 0 {
        stats.delta_sizes.push(total);
    }
    total
}

#[allow(clippy::too_many_arguments)]
pub(super) fn eval_stratum_naive(
    ctx: &Ctx<'_>,
    rules: &[(usize, &Rule)],
    tables: &mut HashMap<String, Table>,
    plans: &mut PlanCache,
    session: &mut Session,
    opts: &EvalOptions,
    stats: &mut PhaseStats,
) -> Result<(), EvalError> {
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let t_iter = ctx.tracer.now_ns();
        let mut changed = false;
        for &(ri, rule) in rules {
            let plan = plans.get_or_compile(ri, rule, None);
            let derived = eval_rule(
                ctx,
                ri,
                rule,
                plan,
                tables,
                None,
                session,
                opts,
                &mut stats.ops,
            )?;
            let table = tables
                .get_mut(rule.head.pred.as_str())
                .expect("table created in setup");
            table.absorb_partitions(derived, |_| changed = true)?;
        }
        let iteration = iterations - 1;
        super::publish::publish_iteration(0);
        ctx.tracer
            .emit_span("fixpoint", "iteration", t_iter, 0, || {
                vec![
                    ("iteration", iteration.into()),
                    ("changed", u64::from(changed).into()),
                ]
            });
        if !changed {
            return Ok(());
        }
    }
}

/// Merges derived partitions into the full table in partition order;
/// changed rows (new terms or new disjunct) are recorded in `delta`
/// carrying only the new disjunct — `insert_prepared` reuses the
/// already-normalised condition, so the delta write costs a hash
/// lookup, not a second DNF pass.
fn merge_derived(
    pred: &str,
    derived: Vec<Vec<PreparedRow>>,
    tables: &mut HashMap<String, Table>,
    delta: &mut HashMap<String, Table>,
) -> Result<(), EvalError> {
    if derived.iter().all(Vec::is_empty) {
        return Ok(());
    }
    let table = tables.get_mut(pred).expect("table created in setup");
    let schema = table.schema.clone();
    table.absorb_partitions(derived, |prow| {
        delta
            .entry(pred.to_owned())
            .or_insert_with(|| Table::new(schema.clone()))
            .insert_prepared(prow)
            .expect("delta schema matches the full table");
    })?;
    Ok(())
}
