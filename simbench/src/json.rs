//! The machine-readable result line and the metric names it may carry.

/// End-to-end metrics, printed by every untraced run (`--trace 0`), as
/// `(name, unit)`. `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_mips", "Minstr/s"),
    ("chunk_ms_p50", "ms"),
    ("chunk_ms_p90", "ms"),
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Layer
/// prefixes are the crate names; `ns/instr` figures are shares of one
/// simulated instruction, `ns/call` figures come from layer drives.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workloads.next_instr_ns", "ns/instr"),
    ("trace.next_instr_ns", "ns/instr"),
    ("trace.bytes_per_instr", "B/instr"),
    ("trace.record_ns_per_instr", "ns/instr"),
    ("cpu.step_self_ns", "ns/instr"),
    ("prefetch.l1d_ns", "ns/instr"),
    ("prefetch.calls_per_kinstr", "1/kinstr"),
    ("prefetch.candidates_per_kinstr", "1/kinstr"),
    ("prefetch.accuracy", "ratio"),
    ("core.policy_ns", "ns/instr"),
    ("core.decide_per_kinstr", "1/kinstr"),
    ("core.pgc_issue_ratio", "ratio"),
    ("core.pgc_accuracy", "ratio"),
    ("core.spec_walks_per_kinstr", "1/kinstr"),
    ("mem.demand_data_ns", "ns/call"),
    ("mem.translate_ns", "ns/call"),
    ("mem.l1d_mpki", "1/kinstr"),
    ("mem.llc_mpki", "1/kinstr"),
    ("mem.dtlb_mpki", "1/kinstr"),
    ("mem.stlb_mpki", "1/kinstr"),
    ("mem.walks_per_kinstr", "1/kinstr"),
    ("os.before_access_ns", "ns/call"),
    ("os.faults_per_kinstr", "1/kinstr"),
    ("os.major_share", "ratio"),
    ("os.reclaims_per_kinstr", "1/kinstr"),
    ("os.shootdowns_per_kinstr", "1/kinstr"),
    ("os.ipis_per_kinstr", "1/kinstr"),
    ("bench.cell_ms_p50", "ms"),
    ("bench.cell_ms_p90", "ms"),
    ("bench.setup_ms_per_cell", "ms"),
    ("bench.shard_imbalance", "ratio"),
    ("bench.parallel_speedup", "ratio"),
    ("tracing.clock_read_ns", "ns"),
    ("tracing.overhead_ratio", "ratio"),
];

/// True for a valid metric name: starts with a letter or digit and holds
/// at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run prints as its last line.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Pairs `values` (looked up by name) with the `(name, unit)` list of
    /// `schema`, in schema order. Panics on a missing or unknown name: the
    /// printed set must be exactly the schema.
    pub fn new(
        schema: &[(&'static str, &'static str)],
        mut values: Vec<(&'static str, f64)>,
    ) -> Self {
        let metrics = schema
            .iter()
            .map(|&(name, unit)| {
                assert!(
                    valid_name(name) && valid_unit(unit),
                    "bad metric {name} [{unit}]"
                );
                let at = values
                    .iter()
                    .position(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                let (_, value) = values.swap_remove(at);
                Metric { name, unit, value }
            })
            .collect();
        assert!(values.is_empty(), "metrics outside the schema: {values:?}");
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics,
        }
    }

    /// The single-line JSON object. Names and units are from the fixed
    /// charsets above, so they need no escaping; a non-finite value has no
    /// JSON spelling and is written as 0 after failing the run.
    pub fn into_json(mut self) -> String {
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                eprintln!("simbench: metric {} is not finite ({})", m.name, m.value);
                m.value = 0.0;
                self.correct = false;
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough to read back the result line and
    /// `BENCHMARK.json`.
    #[derive(Clone, Debug, PartialEq)]
    enum Value {
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        fn get(&self, key: &str) -> &Value {
            match self {
                Value::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                other => panic!("{other:?} is not an object"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Value::Str(s) => s,
                other => panic!("{other:?} is not a string"),
            }
        }
    }

    fn parse(s: &str) -> Value {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing input");
        v
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.b[self.i] as char, c as char, "at byte {}", self.i);
            self.i += 1;
        }
        fn value(&mut self) -> Value {
            self.ws();
            match self.b[self.i] {
                b'{' => {
                    self.eat(b'{');
                    let mut kv = Vec::new();
                    self.ws();
                    if self.b[self.i] == b'}' {
                        self.i += 1;
                        return Value::Obj(kv);
                    }
                    loop {
                        let Value::Str(k) = self.value() else {
                            panic!("object key must be a string")
                        };
                        self.eat(b':');
                        kv.push((k, self.value()));
                        self.ws();
                        self.i += 1;
                        if self.b[self.i - 1] == b'}' {
                            return Value::Obj(kv);
                        }
                    }
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    self.ws();
                    if self.b[self.i] == b']' {
                        self.i += 1;
                        return Value::Arr(items);
                    }
                    loop {
                        items.push(self.value());
                        self.ws();
                        self.i += 1;
                        if self.b[self.i - 1] == b']' {
                            return Value::Arr(items);
                        }
                    }
                }
                b'"' => {
                    let start = self.i + 1;
                    let end = start
                        + self.b[start..]
                            .iter()
                            .position(|&c| c == b'"')
                            .expect("closed string");
                    self.i = end + 1;
                    Value::Str(String::from_utf8(self.b[start..end].to_vec()).expect("utf-8"))
                }
                b't' | b'f' => {
                    let t = self.b[self.i] == b't';
                    self.i += if t { 4 } else { 5 };
                    Value::Bool(t)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.b.len()
                        && matches!(
                            self.b[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                    Value::Num(text.parse().expect("number"))
                }
            }
        }
    }

    fn outcome_of(v: &Value) -> Outcome {
        let Value::Obj(kv) = v.get("metrics") else {
            panic!("metrics is not an object")
        };
        let schema: Vec<(&'static str, &'static str)> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let metrics = kv
            .iter()
            .map(|(name, m)| {
                let &(name, unit) = schema.iter().find(|(n, _)| n == name).expect("known");
                assert_eq!(m.get("unit").str(), unit);
                let Value::Num(value) = *m.get("value") else {
                    panic!("value is not a number")
                };
                Metric { name, unit, value }
            })
            .collect();
        let num = |k: &str| match v.get(k) {
            Value::Num(n) => *n as u64,
            other => panic!("{k} = {other:?}"),
        };
        Outcome {
            correct: *v.get("correct") == Value::Bool(true),
            attempted: num("attempted"),
            failed: num("failed"),
            metrics,
        }
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_charsets() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        for bad in ["", "_x", ".x", "a b", "ns/instr", "x\"", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("0x") && valid_name("a-b.c_d") && valid_name(&"a".repeat(64)));
        assert!(!valid_unit("") && !valid_unit("M instr/s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_round_trips() {
        let values = vec![
            ("sim_mips", 3.717_245_981_230_1),
            ("chunk_ms_p50", 12.5),
            ("chunk_ms_p90", 0.000_000_1),
            ("cells_per_s", 123_456_789.0),
            ("setup_s", 0.812_7),
            ("peak_rss_mb", 61.25),
        ];
        let mut out = Outcome::new(&END_TO_END, values);
        out.attempted = 57;
        out.failed = 1;
        out.correct = false;
        let line = out.clone().into_json();
        assert!(!line.contains('\n'));
        assert_eq!(outcome_of(&parse(&line)), out);
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut values: Vec<(&'static str, f64)> =
            END_TO_END.iter().map(|(n, _)| (*n, 1.0)).collect();
        values[0].1 = f64::NAN;
        let out = Outcome::new(&END_TO_END, values);
        let back = outcome_of(&parse(&out.into_json()));
        assert!(!back.correct);
        assert_eq!(back.metrics[0].value, 0.0);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Outcome::new(&END_TO_END, vec![("sim_mips", 1.0)]);
    }

    /// The metric lists printed here and the ones `BENCHMARK.json`
    /// declares must agree name for name and unit for unit.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = parse(&text);
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Value::Arr(items) = spec.get(key) else {
                panic!("{key} is not a list")
            };
            let declared: Vec<(&str, &str)> = items
                .iter()
                .map(|m| (m.get("name").str(), m.get("unit").str()))
                .collect();
            assert_eq!(declared, list, "{key}");
        }
        let Value::Arr(workloads) = spec.get("workloads") else {
            panic!("workloads is not a list")
        };
        let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
        let ours: Vec<&str> = crate::workloads::WorkloadId::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
