//! What a run reports and how it is written down: the human-readable
//! table, the one-line JSON result, the result file, and
//! `BENCHMARK.json` itself.

use crate::metrics::{self, Kind, MetricDef, END_TO_END, PER_LAYER};
use crate::runner::RunArgs;
use crate::stats::Summary;
use serde_json::Value;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Its catalogue entry.
    pub def: &'static MetricDef,
    /// Median (timed) or the value itself (exact).
    pub value: f64,
    /// The samples behind a timed value; `n` = 0 for exact ones.
    pub samples: Summary,
}

/// Everything one run found.
#[derive(Debug)]
pub struct Report {
    /// The run's parameters.
    pub args: RunArgs,
    /// Whether this was the traced binary.
    pub traced: bool,
    /// Repeats made (untraced + traced).
    pub repeats: usize,
    /// Ops attempted over all repeats.
    pub attempted: u64,
    /// Ops covered by a failed output check.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// `(last set-up s, timed phase s, traced)` of every repeat, in order.
    pub repeat_times: Vec<(f64, f64, bool)>,
    /// End-to-end metrics (from untraced repeats).
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics the workload exercises: all of them in the
    /// traced binary, the exact values it knows without tracing
    /// otherwise.
    pub per_layer: Vec<Measured>,
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Measured {
    /// The result-file entry. `judged` is false for the end-to-end
    /// numbers of the traced binary: they come with the counting
    /// allocator linked, so they are context, not end-to-end results,
    /// and carry no bound.
    fn to_value(&self, judged: bool) -> Value {
        let (kind, bound) = match self.def.kind {
            Kind::Exact => ("exact", Value::Null),
            Kind::Timed(Some(b)) if judged => ("timed", Value::F64(b)),
            Kind::Timed(_) => ("timed", Value::Null),
        };
        map(vec![
            ("value", Value::F64(self.value)),
            ("unit", Value::Str(self.def.unit.into())),
            ("better", Value::Str(self.def.better.as_str().into())),
            ("kind", Value::Str(kind.into())),
            ("bound", bound),
            ("n", Value::U64(self.samples.n as u64)),
            ("q1", Value::F64(self.samples.q1)),
            ("q3", Value::F64(self.samples.q3)),
        ])
    }
}

impl Report {
    /// No output check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    /// The metrics are every end-to-end metric untraced and every
    /// per-layer metric traced, 0 for a layer the workload does not
    /// exercise.
    pub fn result_line(&self) -> String {
        let (catalogue, measured) = if self.traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let metrics = catalogue
            .iter()
            .map(|def| {
                let value = measured
                    .iter()
                    .find(|m| m.def.name == def.name)
                    .map_or(0.0, |m| m.value);
                let entry = map(vec![
                    ("value", Value::F64(value)),
                    ("unit", Value::Str(def.unit.into())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        let line = map(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }

    /// Every metric by name with unit, quartiles and sample count.
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let a = &self.args;
        let mut out = format!(
            "# {} seed={} seconds={} {} repeats={}\n",
            a.workload,
            a.seed,
            a.seconds,
            if self.traced { "traced" } else { "untraced" },
            self.repeats
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = write!(
                out,
                "{:<36} {:>18.6} {:<9}",
                m.def.name, m.value, m.def.unit
            );
            let s = &m.samples;
            let _ = match s.n {
                0 => writeln!(out, " exact"),
                _ => writeln!(out, " n={} q1={:.6} q3={:.6}", s.n, s.q1, s.q3),
            };
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<36} {share:>18.6} {:<9} {} of {} ops",
            "failed_share", "share", self.failed, self.attempted
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// The result file's content.
    pub fn to_value(&self) -> Value {
        let list = |ms: &[Measured], judged: bool| {
            Value::Map(
                ms.iter()
                    .map(|m| (m.def.name.to_string(), m.to_value(judged)))
                    .collect(),
            )
        };
        map(vec![
            ("workload", Value::Str(self.args.workload.clone())),
            ("seed", Value::U64(self.args.seed)),
            ("seconds", Value::F64(self.args.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("repeats", Value::U64(self.repeats as u64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "failures",
                Value::Seq(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "repeat_times",
                Value::Seq(
                    self.repeat_times
                        .iter()
                        .map(|&(setup, wall, traced)| {
                            map(vec![
                                ("setup_s", Value::F64(setup)),
                                ("wall_s", Value::F64(wall)),
                                ("traced", Value::Bool(traced)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", list(&self.end_to_end, !self.traced)),
            ("per_layer", list(&self.per_layer, true)),
        ])
    }
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json(run_seconds: u64) -> String {
    let s = |v: &str| Value::Str(v.to_string());
    let strs = |items: &[&str]| Value::Seq(items.iter().map(|i| s(i)).collect());
    // Only end-to-end metrics have a bound.
    let metric = |m: &MetricDef| {
        let mut entry = vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.as_str())),
        ];
        if let Kind::Timed(Some(b)) = m.kind {
            entry.push(("bound", Value::F64(b)));
        }
        map(entry)
    };
    let doc = map(vec![
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Seq(
                metrics::WORKLOADS
                    .iter()
                    .map(|w| map(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a value tree always serializes") + "\n"
}
