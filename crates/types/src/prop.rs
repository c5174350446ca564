//! A minimal in-repo property-testing harness.
//!
//! The workspace is hermetic — no external crates — so this module replaces
//! `proptest` for the differential and invariant test suites. It keeps the
//! three properties that matter for a simulator testbed:
//!
//! * **deterministic generation** — cases are drawn from [`Rng64`], so a
//!   failing case is reproducible from the printed seed and case index;
//! * **configurable case counts** — per-call via [`Config::cases`] or
//!   globally via the `PAGECROSS_PROP_CASES` environment variable;
//! * **greedy shrinking** — on failure, [`Shrink::shrink`] candidates are
//!   tried depth-first and the first still-failing candidate is adopted,
//!   until no candidate fails or the step budget runs out.
//!
//! Properties return `Result<(), String>` (use
//! [`prop_assert!`](crate::prop_assert) /
//! [`prop_assert_eq!`](crate::prop_assert_eq)); panics inside the device
//! under test propagate unchanged so internal assertion failures are still
//! loud.
//!
//! # Example
//!
//! ```
//! use pagecross_types::prop::{check, Config};
//! use pagecross_types::{prop_assert, Rng64};
//!
//! check(
//!     &Config::cases(32).seed(7),
//!     |rng| rng.below(100),
//!     |&v| {
//!         prop_assert!(v < 100, "out of range: {v}");
//!         Ok(())
//!     },
//! );
//! ```

use crate::rng::Rng64;

/// Harness configuration for one [`check`] call.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Seed of the case stream (each case forks its own generator).
    pub seed: u64,
    /// Budget of property evaluations spent shrinking a failure.
    pub max_shrink_steps: u32,
}

impl Config {
    /// Default seed: arbitrary but fixed, so suites are reproducible.
    pub const DEFAULT_SEED: u64 = 0x9A_6E_C0_55;

    /// A config running `cases` cases (scaled by `PAGECROSS_PROP_CASES`
    /// when set, which overrides the per-call count).
    pub fn cases(cases: u32) -> Self {
        let cases = std::env::var("PAGECROSS_PROP_CASES")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(cases)
            .max(1);
        Self {
            cases,
            seed: Self::DEFAULT_SEED,
            max_shrink_steps: 2_000,
        }
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::cases(64)
    }
}

/// Types that can propose strictly "smaller" variants of themselves.
///
/// The default implementation proposes nothing (no shrinking); the harness
/// then reports the original failing case.
pub trait Shrink: Sized {
    /// Candidate reductions, most aggressive first. Must not yield `self`.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                for c in [0, v / 2, v.saturating_sub(1)] {
                    if c != v && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )*};
}
impl_shrink_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_int {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let towards_zero = if v > 0 { v - 1 } else { v + 1 };
                let mut out = Vec::new();
                for c in [0, v / 2, towards_zero] {
                    if c != v && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )*};
}
impl_shrink_int!(i8, i16, i32, i64, isize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for f64 {
    fn shrink(&self) -> Vec<Self> {
        let v = *self;
        let mut out = Vec::new();
        for c in [0.0, v / 2.0] {
            if c != v && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

impl<A: Shrink + Clone, B: Shrink + Clone> Shrink for (A, B) {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        out.extend(self.0.shrink().into_iter().map(|a| (a, self.1.clone())));
        out.extend(self.1.shrink().into_iter().map(|b| (self.0.clone(), b)));
        out
    }
}

impl<A: Shrink + Clone, B: Shrink + Clone, C: Shrink + Clone> Shrink for (A, B, C) {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        out.extend(
            self.0
                .shrink()
                .into_iter()
                .map(|a| (a, self.1.clone(), self.2.clone())),
        );
        out.extend(
            self.1
                .shrink()
                .into_iter()
                .map(|b| (self.0.clone(), b, self.2.clone())),
        );
        out.extend(
            self.2
                .shrink()
                .into_iter()
                .map(|c| (self.0.clone(), self.1.clone(), c)),
        );
        out
    }
}

/// Caps the per-step candidate fan-out on large vectors so a shrink pass
/// stays within the step budget instead of enumerating thousands of
/// single-element removals.
const VEC_CANDIDATE_CAP: usize = 24;

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // Halves first: the fastest way down for long sequences.
        if n > 1 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n / 2..].to_vec());
        }
        // Single-element removals, evenly spread when capped.
        let step = (n / VEC_CANDIDATE_CAP).max(1);
        for i in (0..n).step_by(step) {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        // In-place element shrinks.
        for i in (0..n).step_by(step) {
            for smaller in self[i].shrink() {
                let mut v = self.clone();
                v[i] = smaller;
                out.push(v);
            }
        }
        out
    }
}

/// Generates `len` elements with `f`, where `len` is uniform in
/// `[min_len, max_len)` — the harness's analogue of
/// `prop::collection::vec(elem, min..max)`.
pub fn vec_of<T>(
    rng: &mut Rng64,
    min_len: u64,
    max_len: u64,
    mut f: impl FnMut(&mut Rng64) -> T,
) -> Vec<T> {
    let len = rng.range(min_len, max_len.saturating_sub(1).max(min_len));
    (0..len).map(|_| f(rng)).collect()
}

/// Runs `prop` over `cfg.cases` inputs drawn by `gen`; on failure, greedily
/// shrinks the input and panics with the minimal counterexample.
pub fn check<T, G, P>(cfg: &Config, gen: G, prop: P)
where
    T: Clone + std::fmt::Debug + Shrink,
    G: Fn(&mut Rng64) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    let mut stream = Rng64::new(cfg.seed);
    for case in 0..cfg.cases {
        let mut case_rng = stream.fork();
        let input = gen(&mut case_rng);
        if let Err(err) = prop(&input) {
            let (minimal, minimal_err, steps) = shrink_failure(input, err, &prop, cfg);
            panic!(
                "property failed (seed {:#x}, case {case}/{}, {steps} shrink steps)\n\
                 minimal input: {minimal:?}\n\
                 error: {minimal_err}",
                cfg.seed, cfg.cases
            );
        }
    }
}

fn shrink_failure<T, P>(input: T, err: String, prop: &P, cfg: &Config) -> (T, String, u32)
where
    T: Clone + std::fmt::Debug + Shrink,
    P: Fn(&T) -> Result<(), String>,
{
    let mut cur = input;
    let mut cur_err = err;
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in cur.shrink() {
            steps += 1;
            if let Err(e) = prop(&cand) {
                cur = cand;
                cur_err = e;
                continue 'outer; // greedy: restart from the new failure
            }
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
        }
        break; // no candidate fails — local minimum
    }
    (cur, cur_err, steps)
}

/// Asserts a condition inside a property, returning `Err` (not panicking)
/// so the harness can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!("{} ({}:{})", format!($($fmt)+), file!(), line!()));
        }
    };
}

/// Asserts equality inside a property; see
/// [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) ({}:{})",
                stringify!($a),
                stringify!($b),
                a,
                b,
                file!(),
                line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{} (left: {:?}, right: {:?}) ({}:{})",
                format!($($fmt)+),
                a,
                b,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        check(
            &Config {
                cases: 37,
                seed: 1,
                max_shrink_steps: 100,
            },
            |rng| rng.below(10),
            |_| {
                count.set(count.get() + 1);
                Ok(())
            },
        );
        assert_eq!(count.get(), 37);
    }

    #[test]
    fn failure_is_shrunk_to_minimal_scalar() {
        let result = std::panic::catch_unwind(|| {
            check(
                &Config {
                    cases: 200,
                    seed: 2,
                    max_shrink_steps: 1_000,
                },
                |rng| rng.below(1_000_000),
                |&v| {
                    prop_assert!(v < 17, "too big: {v}");
                    Ok(())
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // Greedy halving from any failing value lands exactly on 17, the
        // smallest failing input.
        assert!(msg.contains("minimal input: 17"), "got: {msg}");
    }

    #[test]
    fn failure_is_shrunk_to_minimal_vec() {
        let result = std::panic::catch_unwind(|| {
            check(
                &Config {
                    cases: 200,
                    seed: 3,
                    max_shrink_steps: 4_000,
                },
                |rng| vec_of(rng, 0, 50, |r| r.below(100)),
                |v: &Vec<u64>| {
                    prop_assert!(!v.iter().any(|&x| x >= 60), "has a large element");
                    Ok(())
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // The minimal counterexample is a single element of exactly 60.
        assert!(msg.contains("minimal input: [60]"), "got: {msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = |seed| {
            let mut all = Vec::new();
            let mut stream = Rng64::new(seed);
            for _ in 0..10 {
                let mut rng = stream.fork();
                all.push(vec_of(&mut rng, 1, 8, |r| r.below(100)));
            }
            all
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        let mut rng = Rng64::new(9);
        for _ in 0..1_000 {
            let v = vec_of(&mut rng, 1, 500, |r| r.below(2));
            assert!((1..500).contains(&v.len()));
        }
    }

    #[test]
    fn tuple_shrink_covers_both_components() {
        let cands = (4u64, 6u64).shrink();
        assert!(cands.iter().any(|&(a, b)| a < 4 && b == 6));
        assert!(cands.iter().any(|&(a, b)| a == 4 && b < 6));
    }

    #[test]
    fn shrink_never_yields_self() {
        for v in [0u64, 1, 2, 97] {
            assert!(!v.shrink().contains(&v));
        }
        assert!(bool::shrink(&false).is_empty());
    }
}
