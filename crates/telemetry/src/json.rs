//! JSONL emission and validation for interval records.
//!
//! The workspace is zero-dependency, so both directions are hand-rolled:
//! the emitter writes one flat JSON object per interval, and the validator
//! parses that flat shape back (number and null values only — no strings,
//! booleans or nesting) to check the stream a run produced.
//!
//! # Interval schema (one object per line)
//!
//! | key                 | type          | meaning                            |
//! |---------------------|---------------|------------------------------------|
//! | `seq`               | int           | interval index, dense from 0       |
//! | `instructions`      | int           | cumulative retired at interval end |
//! | `cycles`            | int           | cumulative cycles at interval end  |
//! | `ipc`               | float         | interval IPC (deltas)              |
//! | `threshold`         | int \| null   | policy threshold (filter policies) |
//! | `weight_saturation` | float \| null | saturated perceptron weight frac.  |
//! | `d_<counter>`       | int           | interval delta, one per            |
//! |                     |               | `TelemetryCounters` field          |

use pagecross_types::{Counters, IntervalRecord, TelemetryCounters};
use std::fmt::Write as _;

/// Serialises a run's intervals as a JSONL stream: one flat JSON object
/// per record, each line ending in a newline.
pub fn intervals_to_jsonl(intervals: &[IntervalRecord]) -> String {
    let mut s = String::new();
    let path = &mut String::new();
    for r in intervals {
        let _ = write!(
            s,
            "{{\"seq\":{},\"instructions\":{},\"cycles\":{},\"ipc\":{:.6}",
            r.seq,
            r.end_instructions,
            r.end_cycles,
            r.ipc()
        );
        match &r.policy {
            Some(p) => {
                let _ = write!(
                    s,
                    ",\"threshold\":{},\"weight_saturation\":{:.6}",
                    p.threshold, p.weight_saturation
                );
            }
            None => {
                s.push_str(",\"threshold\":null,\"weight_saturation\":null");
            }
        }
        r.delta.for_each_counter(path, &mut |name, value| {
            let _ = write!(s, ",\"d_{name}\":{value}");
        });
        s.push_str("}\n");
    }
    s
}

/// What JSONL validation found wrong, with the offending line (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Aggregates a valid JSONL stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonlSummary {
    /// Number of interval lines.
    pub lines: usize,
    /// Sum of every `d_*` delta across all lines — equals the run's final
    /// cumulative counters when the stream is complete.
    pub totals: TelemetryCounters,
    /// Cumulative instruction count on the last line (0 when empty).
    pub final_instructions: u64,
    /// Cumulative cycle count on the last line (0 when empty).
    pub final_cycles: u64,
}

/// A value of the interval schema: the text of a JSON number, read per key
/// by [`validate_jsonl`], or `null`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Scalar<'a> {
    Num(&'a str),
    Null,
}

impl Scalar<'_> {
    /// The value as an exact count: ASCII digits only, within `u64`.
    fn count(self) -> Option<u64> {
        match self {
            Scalar::Num(t) if t.bytes().all(|c| c.is_ascii_digit()) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as a finite float.
    fn number(self) -> Option<f64> {
        match self {
            Scalar::Num(t) => t.parse().ok().filter(|x: &f64| x.is_finite()),
            Scalar::Null => None,
        }
    }
}

/// Parses one interval line into its key/value pairs, in line order.
///
/// Accepts exactly the shape [`intervals_to_jsonl`] writes: one flat
/// object whose keys are strings without escapes and whose values are
/// numbers or `null`. Strings, booleans, nested objects and arrays are
/// not part of the schema and are rejected.
fn parse_flat_object(line: &str) -> Result<Vec<(&str, Scalar<'_>)>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected one object, '{' to '}'")?;
    if body.trim().is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|pair| {
            let (key, value) = pair.split_once(':').ok_or("expected \"key\":value")?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .filter(|k| !k.contains(['"', '\\']))
                .ok_or_else(|| format!("bad key {}", key.trim()))?;
            let value = match value.trim() {
                "null" => Scalar::Null,
                v if v.starts_with(|c: char| c == '-' || c.is_ascii_digit()) => Scalar::Num(v),
                _ => return Err(format!("\"{key}\" is not a number or null")),
            };
            Ok((key, value))
        })
        .collect()
}

/// The keys of an interval line besides its `d_*` deltas, in the order
/// [`intervals_to_jsonl`] writes them.
const PLAIN_KEYS: [&str; 6] = [
    "seq",
    "instructions",
    "cycles",
    "ipc",
    "threshold",
    "weight_saturation",
];

/// Validates a telemetry JSONL stream.
///
/// Checks, per the schema in the module docs:
/// * every line parses as a flat JSON object of numbers and nulls;
/// * every key is one of the schema's, present exactly once: the plain
///   keys and one `d_<counter>` per `TelemetryCounters` field;
/// * `seq` is dense from 0;
/// * cumulative `instructions`/`cycles` and every `d_*` delta are exact
///   non-negative integers, and the cumulative pair is monotone
///   non-decreasing;
/// * each `d_*` key's sum over the stream fits a `u64`;
/// * `ipc` is a finite number; `threshold`/`weight_saturation` are finite
///   numbers or null.
///
/// Returns the line count and summed deltas on success (for reconciliation
/// against a final `Report`).
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, JsonlError> {
    let mut summary = JsonlSummary::default();
    // Cumulative (instructions, cycles) of the previous line.
    let mut prev = (0u64, 0u64);

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |message: String| JsonlError {
            line: lineno,
            message,
        };
        if raw.trim().is_empty() {
            return Err(err("blank line in JSONL stream".into()));
        }
        let kv = parse_flat_object(raw).map_err(err)?;
        let int = |v: Scalar, key: &str| {
            v.count()
                .ok_or_else(|| err(format!("\"{key}\" is not a non-negative integer")))
        };

        // Plain values by their index in PLAIN_KEYS; `seen` counts the
        // `d_*` keys per counter.
        let mut plain = [None; PLAIN_KEYS.len()];
        let mut seen = TelemetryCounters::default();
        for &(key, value) in &kv {
            if let Some(i) = PLAIN_KEYS.iter().position(|k| *k == key) {
                if plain[i].replace(value).is_some() {
                    return Err(err(format!("key \"{key}\" present more than once")));
                }
            } else if let Some(name) = key.strip_prefix("d_") {
                if seen.add_named(name, 1).is_none() {
                    return Err(err(format!("unknown counter key \"{key}\"")));
                }
                if summary.totals.add_named(name, int(value, key)?) == Some(false) {
                    return Err(err(format!("sum of \"{key}\" overflows u64")));
                }
            } else {
                return Err(err(format!("unknown key \"{key}\"")));
            }
        }
        let mut wrong = None;
        seen.for_each_counter(&mut String::new(), &mut |name, n| {
            if n != 1 && wrong.is_none() {
                wrong = Some(format!("key \"d_{name}\" present {n} times, expected once"));
            }
        });
        if let Some(message) = wrong {
            return Err(err(message));
        }
        if let Some(i) = plain.iter().position(Option::is_none) {
            return Err(err(format!("missing \"{}\"", PLAIN_KEYS[i])));
        }
        let [seq, instructions, cycles, ipc, threshold, weight_saturation] =
            plain.map(|v| v.expect("presence checked above"));

        let seq = int(seq, "seq")?;
        if seq != idx as u64 {
            return Err(err(format!("seq {seq} but expected {idx} (dense from 0)")));
        }
        let instructions = int(instructions, "instructions")?;
        let cycles = int(cycles, "cycles")?;
        for (name, before, now) in [
            ("instructions", prev.0, instructions),
            ("cycles", prev.1, cycles),
        ] {
            if now < before {
                return Err(err(format!(
                    "cumulative {name} went backwards: {before} -> {now}"
                )));
            }
        }
        prev = (instructions, cycles);

        if ipc.number().is_none() {
            return Err(err("\"ipc\" is not a finite number".into()));
        }
        for (v, key) in [
            (threshold, "threshold"),
            (weight_saturation, "weight_saturation"),
        ] {
            if v != Scalar::Null && v.number().is_none() {
                return Err(err(format!("\"{key}\" is not a finite number or null")));
            }
        }

        summary.lines = lineno;
        summary.final_instructions = instructions;
        summary.final_cycles = cycles;
    }

    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::{IntervalRecord, PolicyTelemetry};

    /// One record's JSONL line.
    fn jsonl_line(r: &IntervalRecord) -> String {
        intervals_to_jsonl(std::slice::from_ref(r))
    }

    fn record(seq: u64, instrs: u64, cycles: u64) -> IntervalRecord {
        IntervalRecord {
            seq,
            end_instructions: (seq + 1) * instrs,
            end_cycles: (seq + 1) * cycles,
            delta: TelemetryCounters {
                instructions: instrs,
                cycles,
                l1d_misses: 3,
                ..Default::default()
            },
            policy: None,
        }
    }

    #[test]
    fn emit_then_validate_round_trips() {
        let records: Vec<IntervalRecord> = (0..3).map(|s| record(s, 100, 250)).collect();
        let text = intervals_to_jsonl(&records);
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with("}\n"));
        let summary = validate_jsonl(&text).expect("valid stream");
        assert_eq!(summary.lines, 3);
        assert_eq!(summary.totals.instructions, 300);
        assert_eq!(summary.totals.cycles, 750);
        assert_eq!(summary.totals.l1d_misses, 9);
        assert_eq!(summary.final_instructions, 300);
        assert_eq!(summary.final_cycles, 750);
    }

    #[test]
    fn policy_fields_serialise_as_numbers_or_null() {
        let mut r = record(0, 10, 20);
        assert!(jsonl_line(&r).contains("\"threshold\":null"));
        r.policy = Some(PolicyTelemetry {
            threshold: -4,
            weight_saturation: 0.125,
            decisions: 10,
            issued: 4,
            discarded: 6,
        });
        let line = jsonl_line(&r);
        assert!(line.contains("\"threshold\":-4"));
        assert!(line.contains("\"weight_saturation\":0.125000"));
        validate_jsonl(&line).expect("policy line validates");
    }

    #[test]
    fn rejects_unparseable_line() {
        let e = validate_jsonl("{not json").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_non_dense_seq() {
        let a = jsonl_line(&record(0, 10, 20));
        let b = jsonl_line(&record(2, 10, 20));
        let e = validate_jsonl(&format!("{a}{b}")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("seq"));
    }

    #[test]
    fn rejects_backwards_cumulative_counters() {
        let mut r0 = record(0, 10, 20);
        r0.end_instructions = 1_000;
        let mut r1 = record(1, 10, 20);
        r1.end_instructions = 500;
        r1.end_cycles = r0.end_cycles + 1;
        let text = format!("{}{}", jsonl_line(&r0), jsonl_line(&r1));
        let e = validate_jsonl(&text).unwrap_err();
        assert!(e.message.contains("backwards"), "{}", e.message);
    }

    #[test]
    fn rejects_missing_delta_key() {
        let line = jsonl_line(&record(0, 10, 20));
        let broken = line.replace(",\"d_l1d_misses\":3", "");
        let e = validate_jsonl(&broken).unwrap_err();
        assert!(e.message.contains("d_l1d_misses"), "{}", e.message);
    }

    #[test]
    fn rejects_unknown_delta_key() {
        let line = jsonl_line(&record(0, 10, 20));
        let broken = line.replace("}", ",\"d_l1d_misses_total\":3}");
        let e = validate_jsonl(&broken).unwrap_err();
        assert!(e.message.contains("d_l1d_misses_total"), "{}", e.message);
        assert!(e.message.contains("unknown"), "{}", e.message);
    }

    #[test]
    fn rejects_negative_delta() {
        let line = jsonl_line(&record(0, 10, 20));
        let broken = line.replace("\"d_l1d_misses\":3", "\"d_l1d_misses\":-3");
        let e = validate_jsonl(&broken).unwrap_err();
        assert!(e.message.contains("non-negative"), "{}", e.message);
    }

    #[test]
    fn rejects_blank_lines() {
        let line = jsonl_line(&record(0, 10, 20));
        let e = validate_jsonl(&format!("{line}\n")).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn empty_stream_is_vacuously_valid() {
        let s = validate_jsonl("").expect("empty stream");
        assert_eq!(s.lines, 0);
        assert_eq!(s.totals, TelemetryCounters::default());
    }

    #[test]
    fn rejects_keys_and_values_outside_the_schema() {
        let line = jsonl_line(&record(0, 10, 20));
        for (broken, want) in [
            (line.replace('}', ",\"bogus\":1}"), "unknown key \"bogus\""),
            (
                line.replace('}', ",\"seq\":0}"),
                "\"seq\" present more than once",
            ),
            (
                line.replace("\"d_l1d_misses\":3", "\"d_l1d_misses\":\"3\""),
                "d_l1d_misses",
            ),
            (line.replace("\"ipc\":0.500000", "\"ipc\":true"), "ipc"),
        ] {
            let e = validate_jsonl(&broken).unwrap_err();
            assert_eq!(e.line, 1);
            assert!(e.message.contains(want), "{want}: {}", e.message);
        }
    }

    #[test]
    fn sums_deltas_as_exact_integers() {
        // 2^53 + 1: the first integer an f64 cannot hold.
        let line = jsonl_line(&record(0, 10, 20));
        let big = line.replace("\"d_l1d_misses\":3", "\"d_l1d_misses\":9007199254740993");
        let summary = validate_jsonl(&big).expect("valid line");
        assert_eq!(summary.totals.l1d_misses, 9_007_199_254_740_993);
    }

    #[test]
    fn rejects_a_delta_sum_that_overflows() {
        let max = |r| {
            jsonl_line(&r).replace(
                "\"d_l1d_misses\":3",
                "\"d_l1d_misses\":18446744073709551615",
            )
        };
        let one = max(record(0, 10, 20));
        assert_eq!(validate_jsonl(&one).unwrap().totals.l1d_misses, u64::MAX);
        let three = [
            max(record(0, 10, 20)),
            max(record(1, 20, 40)),
            max(record(2, 30, 60)),
        ]
        .concat();
        let e = validate_jsonl(&three).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains("\"d_l1d_misses\" overflows"),
            "{}",
            e.message
        );
    }

    #[test]
    fn flat_parser_handles_escapes_and_rejects_nesting() {
        let kv = parse_flat_object(r#" { "a" : 1 , "b":null } "#).unwrap();
        assert_eq!(kv, [("a", Scalar::Num("1")), ("b", Scalar::Null)]);
        assert!(parse_flat_object("{}").unwrap().is_empty());
        // The emitter writes neither strings nor escapes.
        assert!(parse_flat_object(r#"{"a":"x\"y"}"#).is_err());
        assert!(parse_flat_object(r#"{"a\"b":1}"#).is_err());
        assert!(parse_flat_object(r#"{"a":false}"#).is_err());
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a":[1]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_err());
    }
}
