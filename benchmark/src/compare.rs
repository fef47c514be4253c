//! `--compare A.jsonl B.jsonl`: a verdict per metric and workload from
//! medians, quartiles and the metric's bound, with A as the parent.

use crate::catalogue;
use crate::jsonl::{self, Record, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better by more than the spread between A's runs.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    Indistinguishable,
    /// A's own runs spread wider than the bound and the two sets
    /// overlap: the data cannot tell a regression from noise.
    Unresolved,
    /// An exact count: every value in both files is the same.
    Equal,
    /// An exact count that is not.
    Differs,
    /// A per-layer timing: reported, never judged (it has no bound).
    Unjudged,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Indistinguishable => "indistinguishable",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
            Verdict::Unjudged => "-",
        })
    }
}

impl Verdict {
    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = stats::sorted(values.to_vec());
        let (q1, q3) = stats::quartiles(&sorted);
        Summary {
            n: sorted.len(),
            median: stats::median(&sorted),
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The verdict for a metric with a regression bound.
pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    // Positive when B is worse, as a share of A's median.
    let worse_by = if a.median == 0.0 {
        0.0
    } else if lower_is_better {
        (b.median - a.median) / a.median.abs()
    } else {
        (a.median - b.median) / a.median.abs()
    };
    let separated = a.max < b.min || b.max < a.min;
    if a.spread() > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > a.spread() && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Indistinguishable
    }
}

type Grouped = BTreeMap<(String, String), (String, Vec<f64>)>;

fn group(records: &[Record]) -> Grouped {
    let mut out = Grouped::new();
    for r in records {
        out.entry((r.workload.clone(), r.metric.clone()))
            .or_insert_with(|| (r.unit.clone(), Vec::new()))
            .1
            .push(r.value);
    }
    out
}

/// Compares two result sets. Exact counts are compared only when
/// `same_seed`: a different seed is a different input.
pub fn compare(a: &[Record], b: &[Record], same_seed: bool) -> Vec<Row> {
    let (a, b) = (group(a), group(b));
    let mut rows = Vec::new();
    for (key, (unit, a_values)) in &a {
        let Some((_, b_values)) = b.get(key) else {
            continue;
        };
        let (sa, sb) = (Summary::of(a_values), Summary::of(b_values));
        let verdict = if let Some(e) = catalogue::end_to_end(&key.1) {
            judge(&sa, &sb, e.better == "lower", e.bound)
        } else if catalogue::layer(&key.1).is_some_and(|l| l.exact) && same_seed {
            let first = a_values[0];
            if a_values.iter().chain(b_values).all(|v| *v == first) {
                Verdict::Equal
            } else {
                Verdict::Differs
            }
        } else {
            Verdict::Unjudged
        };
        rows.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            unit: unit.clone(),
            a: sa,
            b: sb,
            verdict,
        });
    }
    rows
}

/// A results file: its header fields and its records.
pub struct ResultFile {
    pub header: Vec<(String, Value)>,
    pub records: Vec<Record>,
}

impl ResultFile {
    pub fn parse(text: &str) -> ResultFile {
        let mut file = ResultFile {
            header: Vec::new(),
            records: Vec::new(),
        };
        for line in text.lines() {
            if let Some(record) = Record::from_line(line) {
                file.records.push(record);
            } else if let Some(fields) = jsonl::parse_object(line) {
                file.header.extend(fields);
            }
        }
        file
    }

    pub fn seed(&self) -> Option<f64> {
        self.header.iter().find_map(|(k, v)| match v {
            Value::Num(n) if k == "seed" => Some(*n),
            _ => None,
        })
    }
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<38} {:>14} {:>14} {:>8}  {}\n",
        "workload", "metric", "A median", "B median", "B/A", "verdict"
    );
    for r in rows {
        let ratio = if r.a.median == 0.0 {
            "-".to_owned()
        } else {
            format!("{:.3}", r.b.median / r.a.median)
        };
        out.push_str(&format!(
            "{:<16} {:<38} {:>14.4} {:>14.4} {:>8}  {}  [{}; n={}/{}; A q1..q3 {:.4}..{:.4}]\n",
            r.workload,
            r.metric,
            r.a.median,
            r.b.median,
            ratio,
            r.verdict,
            r.unit,
            r.a.n,
            r.b.n,
            r.a.q1,
            r.a.q3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{OPS_PER_S, OP_P50_MS, REACH_BATCH};

    fn records(metric: &str, values: &[f64]) -> Vec<Record> {
        values
            .iter()
            .enumerate()
            .map(|(rep, v)| Record {
                workload: REACH_BATCH.into(),
                metric: metric.into(),
                value: *v,
                unit: catalogue::unit(metric).into(),
                rep: rep as u32,
            })
            .collect()
    }

    fn verdict_of(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let rows = compare(&records(metric, a), &records(metric, b), true);
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn identical_sets_are_indistinguishable() {
        assert_eq!(
            verdict_of(OP_P50_MS, &STEADY, &STEADY),
            Verdict::Indistinguishable
        );
    }

    #[test]
    fn half_as_slow_again_is_worse_in_either_direction_of_better() {
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.5).collect();
        assert_eq!(verdict_of(OP_P50_MS, &STEADY, &slower), Verdict::Worse);
        // Latency down a third is better; a rate up by half is better,
        // down a third is worse.
        assert_eq!(verdict_of(OP_P50_MS, &slower, &STEADY), Verdict::Better);
        assert_eq!(verdict_of(OPS_PER_S, &STEADY, &slower), Verdict::Better);
        assert_eq!(verdict_of(OPS_PER_S, &slower, &STEADY), Verdict::Worse);
    }

    #[test]
    fn a_parent_noisier_than_the_bound_is_unresolved_unless_separated() {
        let noisy = [80.0, 100.0, 125.0, 90.0, 110.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict_of(OP_P50_MS, &noisy, &shifted), Verdict::Unresolved);
        // Every run of B slower than every run of A: noise is no excuse.
        let far: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(verdict_of(OP_P50_MS, &noisy, &far), Verdict::Worse);
    }

    #[test]
    fn exact_counts_are_equal_or_differ() {
        let metric = "engine.derived_tuples";
        assert_eq!(verdict_of(metric, &[7.0, 7.0], &[7.0, 7.0]), Verdict::Equal);
        assert_eq!(
            verdict_of(metric, &[7.0, 7.0], &[7.0, 8.0]),
            Verdict::Differs
        );
        assert!(Verdict::Differs.fails() && Verdict::Worse.fails());
        assert!(!Verdict::Unresolved.fails());
        // Another seed is another input: nothing to hold equal.
        let rows = compare(&records(metric, &[7.0]), &records(metric, &[8.0]), false);
        assert_eq!(rows[0].verdict, Verdict::Unjudged);
        // A per-layer timing is never judged.
        assert_eq!(
            verdict_of("engine.run_s", &[1.0], &[9.0]),
            Verdict::Unjudged
        );
    }

    #[test]
    fn result_files_split_header_from_records() {
        let text = format!(
            "{}\n{}\nnot json\n",
            r#"{"header":1,"seed":20210610,"commit":"abc"}"#,
            records(OP_P50_MS, &[1.5])[0].to_line()
        );
        let file = ResultFile::parse(&text);
        assert_eq!(file.seed(), Some(20210610.0));
        assert_eq!(file.records.len(), 1);
    }
}
