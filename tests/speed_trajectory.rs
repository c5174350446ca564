//! `BENCH_simbench.json`, the committed speed trajectory: every row parses,
//! holds the four simbench workloads with a positive ratio and a passing
//! gate, and the rows run in PR order. Prints each workload's chained
//! `sim_mips` ratio since the baseline (`cargo test --test speed_trajectory
//! -- --nocapture`).

use std::collections::BTreeMap;

/// A JSON value; the workspace has no serde, and this file needs no more.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing \"{key}\"")),
            _ => panic!("\"{key}\" looked up in a non-object"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }
}

/// A recursive-descent parser over the file's bytes (no `\u` escapes).
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.skip_ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected '{}' at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    /// Parses the items of a list closed by `close`, one per `item` call.
    fn list(&mut self, close: u8, mut item: impl FnMut(&mut Self)) {
        self.skip_ws();
        if self.s.get(self.i) == Some(&close) {
            self.i += 1;
            return;
        }
        loop {
            item(self);
            self.skip_ws();
            let c = self.s.get(self.i).copied();
            self.i += 1;
            match c {
                Some(b',') => {}
                Some(c) if c == close => return,
                _ => panic!("expected ',' or '{}' at byte {}", close as char, self.i - 1),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        let rest = &self.s[self.i..];
        for (word, v) in [
            (&b"null"[..], Json::Null),
            (b"true", Json::Bool(true)),
            (b"false", Json::Bool(false)),
        ] {
            if rest.starts_with(word) {
                self.i += word.len();
                return v;
            }
        }
        match rest.first() {
            Some(b'"') => Json::Str(self.string()),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.list(b']', |p| items.push(p.value()));
                Json::Arr(items)
            }
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.list(b'}', |p| {
                    let key = p.string();
                    p.eat(b':');
                    let value = p.value();
                    assert!(map.insert(key.clone(), value).is_none(), "\"{key}\" twice");
                });
                Json::Obj(map)
            }
            _ => {
                let end = rest
                    .iter()
                    .position(|c| !matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                    .unwrap_or(rest.len());
                let text = std::str::from_utf8(&rest[..end]).unwrap();
                self.i += end;
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.i, p.s.len(), "trailing text after the JSON value");
    v
}

const WORKLOADS: [&str; 4] = ["stream_4k", "graph_replay", "os_mix2", "campaign_grid"];

#[test]
fn speed_trajectory_parses_and_chains() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_simbench.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCH_simbench.json"));
    assert_eq!(doc.get("metric"), &Json::Str("sim_mips".into()));
    let base = doc.get("baseline").get("pr").num();
    let Json::Arr(rows) = doc.get("rows") else {
        panic!("\"rows\" is not an array");
    };
    assert!(!rows.is_empty());

    let mut chained = [1.0f64; WORKLOADS.len()];
    let mut last_pr = base;
    for row in rows {
        let pr = row.get("pr").num();
        assert!(pr > last_pr, "PR {pr} does not follow PR {last_pr}");
        last_pr = pr;
        for key in ["commit", "parent", "statistic"] {
            assert!(
                matches!(row.get(key), Json::Str(s) if !s.is_empty()),
                "PR {pr}: {key}"
            );
        }
        assert!(row.get("seed").num() >= 1.0, "PR {pr}: seed");
        assert!(row.get("run_seconds").num() > 0.0, "PR {pr}: run_seconds");
        let Json::Obj(per) = row.get("workloads") else {
            panic!("PR {pr}: \"workloads\" is not an object");
        };
        assert_eq!(per.len(), WORKLOADS.len(), "PR {pr}: workloads");
        for (w, total) in WORKLOADS.iter().zip(&mut chained) {
            let cell = per.get(*w).unwrap_or_else(|| panic!("PR {pr}: no {w}"));
            let ratio = cell.get("ratio").num();
            assert!(
                ratio.is_finite() && ratio > 0.0,
                "PR {pr} {w}: ratio {ratio}"
            );
            let pairs = cell.get("pairs").num();
            assert!(pairs >= 1.0, "PR {pr} {w}: pairs");
            if let Json::Num(better) = cell.get("better") {
                assert!((0.0..=pairs).contains(better), "PR {pr} {w}: better");
            }
            assert_eq!(
                cell.get("correct"),
                &Json::Bool(true),
                "PR {pr} {w}: correct"
            );
            assert_eq!(cell.get("failed").num(), 0.0, "PR {pr} {w}: failed");
            *total *= ratio;
        }
    }
    for (w, total) in WORKLOADS.iter().zip(chained) {
        println!("{w}: sim_mips x{total:.3} since PR {base} (through PR {last_pr})");
    }
}
