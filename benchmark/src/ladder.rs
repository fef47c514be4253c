//! `verify_ladder`: the paper's second component, relative-complete
//! verification (section 5), on the enterprise fixtures. One operation
//! is one request as a caller would issue it: parse the two team
//! policies and the target constraint from text, then `verify`. Five
//! request kinds rotate; each must come out as the paper's table says.

use crate::api::{self, Constraint, Level, Report, VerifyError};
use crate::run::{
    self, end_to_end, fill_missing_layers, op_context, peak_rss_kb, repeat_setup, rss_kb, spanned,
    Loop, Metrics, RunConfig, RunOutput, Tracing,
};
use crate::stats;
use faure_core::{apply_to_database, expand_constraint, subsumes, Update};
use faure_ctable::pool::pool_stats;
use faure_ctable::{CVarRegistry, Condition, Database, Term};
use faure_net::enterprise;
use faure_trace::Tracer;
use faure_verify::{category_i, category_ii, check_direct};
use std::hint::black_box;
use std::time::Instant;

/// What a request must come out as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expected {
    Proven(Level),
    Unknown,
    Violated(Level),
}

impl Expected {
    fn matches(self, report: &Report) -> bool {
        match self {
            Expected::Proven(level) => {
                report.outcome == Some(true) && report.decided_by() == Some(level)
            }
            Expected::Unknown => report.outcome.is_none(),
            Expected::Violated(level) => {
                report.outcome == Some(false)
                    && report.decided_by() == Some(level)
                    && !report.violations.is_empty()
            }
        }
    }
}

/// One rung pattern of the ladder: target, optional update, optional
/// post-state, and the paper's verdict.
struct Request {
    target: usize,
    with_update: bool,
    post_state: Option<usize>,
    expected: Expected,
}

/// Indexes into [`Fixtures::texts`] / [`Fixtures::states`].
const T1: usize = 2;
const T2: usize = 3;
const UPDATED: usize = 0;
const VIOLATING: usize = 1;

/// The section 5 table: T1 is proven by category (i); T2 is unknown
/// without more information, proven by category (ii) given the Listing
/// 4 update (with or without a post-state), and violated on a state
/// that lacks the load balancer.
const REQUESTS: [Request; 5] = [
    Request {
        target: T1,
        with_update: false,
        post_state: None,
        expected: Expected::Proven(Level::CategoryI),
    },
    Request {
        target: T2,
        with_update: false,
        post_state: None,
        expected: Expected::Unknown,
    },
    Request {
        target: T2,
        with_update: true,
        post_state: None,
        expected: Expected::Proven(Level::CategoryII),
    },
    Request {
        target: T2,
        with_update: true,
        post_state: Some(UPDATED),
        expected: Expected::Proven(Level::CategoryII),
    },
    Request {
        target: T2,
        with_update: false,
        post_state: Some(VIOLATING),
        expected: Expected::Violated(Level::Direct),
    },
];

struct Fixtures {
    /// Source text of C_lb, C_s, T1, T2, as a caller would hold them.
    texts: [(&'static str, String); 4],
    update: Update,
    /// The compliant network after the Listing 4 update; the network
    /// that violates T2.
    states: [Database; 2],
    reg: CVarRegistry,
    apply_update_s: f64,
}

fn fixtures(tracer: &Tracer) -> Fixtures {
    let update = enterprise::listing4_update();
    let (mut updated, _) = enterprise::compliant_net();
    let (_, apply_update_s) = spanned(tracer, "apply-update", 0, || {
        apply_to_database(&update, &mut updated).expect("the Listing 4 update fits the Lb schema")
    });
    Fixtures {
        texts: [
            ("C_lb", enterprise::c_lb().to_string()),
            ("C_s", enterprise::c_s().to_string()),
            ("T1", enterprise::t1().to_string()),
            ("T2", enterprise::t2().to_string()),
        ],
        update,
        states: [updated, enterprise::t2_violating_net().0],
        reg: enterprise::constraint_registry(),
        apply_update_s,
    }
}

fn parse(f: &Fixtures, index: usize) -> Constraint {
    let (name, text) = &f.texts[index];
    Constraint::parse(*name, text).expect("a fixture program printed by the engine's own Display")
}

/// Issues request `kind` once. Returns the report and the parse wall.
fn request(
    f: &Fixtures,
    kind: usize,
    tracer: &Tracer,
    op: u64,
) -> (Result<Report, VerifyError>, f64) {
    let r = &REQUESTS[kind];
    let ((known, target), parse_s) = spanned(tracer, "parse", op, || {
        ([parse(f, 0), parse(f, 1)], parse(f, r.target))
    });
    let (report, _) = spanned(tracer, "verify", op, || {
        api::verify(
            &known,
            &target,
            r.with_update.then_some(&f.update),
            r.post_state.map(|s| &f.states[s]),
            &f.reg,
        )
    });
    (report, parse_s)
}

/// Set-up: the fixtures, then the five requests `rounds` times over, so
/// the measured loop starts with the symbol table, the condition pool
/// and the allocator in their steady state.
fn setup(cfg: &RunConfig, tracer: &Tracer) -> Fixtures {
    let f = fixtures(tracer);
    for _ in 0..cfg.sizes.verify_warmup_rounds {
        for kind in 0..REQUESTS.len() {
            black_box(request(&f, kind, &Tracer::disabled(), 0).0.is_ok());
        }
    }
    f
}

/// Rounds of a traced run that are traced (as many again run untraced
/// between them).
const TRACED_ROUNDS: u64 = 400;

/// Mean wall in microseconds of `f` over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Times each public function of the ladder on its own (source **S**):
/// `verify` takes no tracer, so from outside its rungs can only be
/// priced by calling them directly.
fn rungs(m: &mut Metrics, f: &Fixtures, n: usize) {
    let known = [parse(f, 0), parse(f, 1)];
    let (t1, t2) = (parse(f, T1), parse(f, T2));
    m.set(
        "verify.category_i_us",
        mean_us(n, || {
            black_box(category_i(&known, &t1, &f.reg)).expect("fixture constraints");
        }),
    );
    m.set(
        "verify.category_ii_us",
        mean_us(n, || {
            black_box(category_ii(&known, &t2, &f.update, &f.reg)).expect("fixture constraints");
        }),
    );
    m.set(
        "verify.direct_us",
        mean_us(n, || {
            black_box(check_direct(&t2, &f.states[VIOLATING])).expect("fixture constraints");
        }),
    );
    let policies = enterprise::team_policies();
    m.set(
        "containment.subsumes_us",
        mean_us(n, || {
            black_box(subsumes(&policies, &t1.program, &f.reg)).expect("fixture constraints");
        }),
    );
    m.set(
        "update.expand_constraint_us",
        mean_us(n, || {
            black_box(expand_constraint(&t2.program, &f.update)).expect("fixture constraints");
        }),
    );
    m.set(
        "prepare.wall_us",
        mean_us(n, || {
            black_box(api::prepare(
                &t2.program,
                api::options(1, 1),
                &Tracer::disabled(),
            ))
            .expect("fixture constraints");
        }),
    );

    // solver::implies on the kind of pair containment asks about: does
    // a port restriction entail membership in the policy's port set?
    let (_, vars) = enterprise::empty_net();
    let port = |p: i64| Condition::eq(Term::Var(vars.p), Term::int(p));
    let premise = port(7000).and(Condition::eq(Term::Var(vars.x), Term::sym("Mkt")));
    let conclusion = Condition::any([port(80), port(344), port(7000)]);
    m.set(
        "solver.implies_ns",
        1e3 * mean_us(n, || {
            black_box(faure_solver::implies(&f.reg, &premise, &conclusion))
                .expect("finite-domain conditions");
        }),
    );
}

/// One run of `verify_ladder`.
pub fn run(cfg: &RunConfig) -> RunOutput {
    let tracing = Tracing::new(cfg.trace);
    let (setup_s, f) = repeat_setup(|| setup(cfg, &tracing.tracer));

    // The seed picks where in the rotation the run starts.
    let offset = (cfg.seed % REQUESTS.len() as u64) as usize;
    let min_ops = (cfg.sizes.verify_min_rounds * REQUESTS.len()) as u64;
    let mut l = Loop::default();
    let mut parse_s = Vec::new();
    let (mut pool_before, mut rss_before, mut growth_from) = (pool_stats(), rss_kb(), 0u64);
    let started = Instant::now();
    while l.attempted < min_ops || started.elapsed().as_secs_f64() < cfg.seconds {
        let op = l.attempted;
        let kind = (op as usize + offset) % REQUESTS.len();
        // A traced run alternates by round, so each request kind is
        // measured both ways, for its first rounds only: the recorder
        // holds every span in memory, and growth of the resident set is
        // measured over the requests after it has stopped growing.
        let round = op / REQUESTS.len() as u64;
        let tracer = if round < 2 * TRACED_ROUNDS {
            tracing.for_op(round)
        } else {
            &tracing.off
        };
        if cfg.trace && op == 2 * TRACED_ROUNDS * REQUESTS.len() as u64 {
            (pool_before, rss_before, growth_from) = (pool_stats(), rss_kb(), op);
        }
        l.attempted += 1;
        let ((report, p_s), wall) =
            spanned(tracer, "request", op, || request(&f, kind, tracer, op));
        if tracer.is_enabled() {
            l.traced.push(wall);
        } else {
            l.plain.push(wall);
            parse_s.push(p_s);
        }
        match report {
            Ok(report) if REQUESTS[kind].expected.matches(&report) => {}
            Ok(report) => {
                l.failed += 1;
                l.problem(format!(
                    "request {kind} came out as `{report}`, the paper says {:?}",
                    REQUESTS[kind].expected
                ));
            }
            Err(e) => {
                l.failed += 1;
                l.problem(format!("request {kind} failed: {e}"));
            }
        }
    }
    let rss_after = rss_kb();
    let pool_after = pool_stats();
    let peak_kb = peak_rss_kb();

    let end_to_end = end_to_end(&setup_s, &l.plain, REQUESTS.len(), peak_kb);
    let mut per_layer = Metrics::default();
    let events = tracing.take();
    if cfg.trace {
        let m = &mut per_layer;
        let per_1k = |delta: u64| delta as f64 * 1e3 / (l.attempted - growth_from).max(1) as f64;
        op_context(m, &l.plain);
        m.set("parser.parse_us", stats::median_of(&parse_s) * 1e6);
        m.set("update.apply_to_database_us", f.apply_update_s * 1e6);
        m.set(
            "verify.pool_growth_per_1k",
            per_1k(pool_after.size.saturating_sub(pool_before.size) as u64),
        );
        m.set(
            "verify.rss_growth_kb_per_1k",
            per_1k(rss_after.saturating_sub(rss_before)),
        );
        m.set(
            "pool.size_delta",
            pool_after.size.saturating_sub(pool_before.size) as f64,
        );
        m.set("pool.hit_rate", pool_after.since(&pool_before).hit_rate());
        run::trace_overhead(m, &l, events.len());
        rungs(m, &f, cfg.sizes.replay_samples);
        fill_missing_layers(m);
    }

    RunOutput::from_loop(l, end_to_end, per_layer, events)
}
