//! `simbench`: the host-speed benchmark of the pagecross simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload stream_4k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `README.md` in this
//! directory describes the workloads, the metrics and the layer map.

mod check;
mod drive;
mod driver;
mod json;
mod probe;
mod run;
mod stats;
mod workloads;

use run::Args;
use workloads::WorkloadId;

const USAGE: &str = "usage: simbench --workload <stream_4k|graph_replay|os_mix2|campaign_grid> \
[--seed <n>] [--seconds <n>] [--trace <0|1>] [--print-expected]";

fn parse(mut it: impl Iterator<Item = String>) -> Result<(Args, bool), String> {
    let mut args = Args {
        workload: WorkloadId::Stream4k,
        seed: workloads::DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let (mut workload, mut print_expected) = (None, false);
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadId::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 120),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok((args, print_expected))
}

fn main() {
    let (args, print_expected) = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("simbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if print_expected {
        match run::expected_line(args.workload, args.seed) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("simbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!("{}", run::run(&args).into_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Sim;
    use crate::probe::{ChunkClock, Clocked, Probe};
    use pagecross_cpu::trace::TraceFactory;
    use std::rc::Rc;

    fn args(s: &str) -> Result<(Args, bool), String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (a, p) = args("--workload os_mix2 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, p),
            (WorkloadId::OsMix2, 7, 10, true, false)
        );
        assert!(args("--seed 7").is_err(), "workload is required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload stream_4k --trace 2").is_err());
        assert!(args("--workload stream_4k --seed").is_err());
    }

    /// Shrinks a job so a debug-build test runs it in well under a second.
    fn short(mut job: workloads::Job) -> workloads::Job {
        job.warmup = 3_000;
        job.measure = 12_000;
        job
    }

    fn builder_run(job: &workloads::Job) -> Sim {
        let b = job.builder();
        match job.cores.as_slice() {
            [one] => Sim::Single(b.run_workload(one)),
            many => {
                let refs: Vec<&dyn TraceFactory> =
                    many.iter().map(|w| w as &dyn TraceFactory).collect();
                Sim::Mix(b.run_mix(&refs))
            }
        }
    }

    /// The traced driver, assembled by hand with decorators, reproduces
    /// `SimulationBuilder`'s counters exactly, single-core and mixed, with
    /// and without the OS.
    #[test]
    fn traced_driver_matches_the_builder() {
        for w in [
            WorkloadId::Stream4k,
            WorkloadId::GraphReplay,
            WorkloadId::OsMix2,
        ] {
            let job = short(workloads::job(w, 3).unwrap());
            let f: Vec<&dyn TraceFactory> =
                job.cores.iter().map(|w| w as &dyn TraceFactory).collect();
            let probe = Rc::new(Probe::default());
            let traced = driver::run(&job, &f, &probe).unwrap();
            assert_eq!(traced.sim, builder_run(&job), "{}", w.name());
            assert!(probe.samples.get() > 0 && probe.pf_calls.get() > 0);
            assert!(traced.counts.instrs >= job.measure * job.cores.len() as u64);
        }
    }

    /// The chunk clock only observes: a clocked run equals a plain one and
    /// sees every measured instruction.
    #[test]
    fn chunk_clock_is_transparent() {
        let job = short(workloads::job(WorkloadId::OsMix2, 5).unwrap());
        let clock = ChunkClock::new(2, job.warmup, 1_000);
        let clocked: Vec<Clocked> = job
            .cores
            .iter()
            .map(|w| Clocked {
                inner: w,
                clock: clock.clone(),
            })
            .collect();
        let refs: Vec<&dyn TraceFactory> = clocked.iter().map(|c| c as &dyn TraceFactory).collect();
        let sim = Sim::Mix(job.builder().run_mix(&refs));
        drop(refs);
        drop(clocked);
        assert_eq!(sim, builder_run(&job));
        let c = clock.summary().expect("the run reached its measured phase");
        assert!(c.instrs >= 2 * job.measure);
        assert_eq!(c.chunks_ns.len() as u64, (c.instrs - 1) / 1_000);
    }

    /// A replayed recording reproduces the generator's run.
    #[test]
    fn replay_matches_the_generator() {
        let job = short(workloads::job(WorkloadId::GraphReplay, 2).unwrap());
        let path = std::env::temp_dir().join(format!("simbench-test-{}.pct", std::process::id()));
        let w = &job.cores[0];
        drive::record_timed(w, job.warmup + job.measure, w.params.seed, &path).unwrap();
        let replay = pagecross_trace::TraceReplay::open(&path)
            .unwrap()
            .blocking();
        let replayed = Sim::Single(job.builder().run_workload(&replay));
        std::fs::remove_file(&path).ok();
        assert_eq!(replayed, builder_run(&job));
    }

    #[test]
    fn campaign_excludes_the_aliased_spec17_members() {
        let (members, schemes, _) = workloads::campaign(1);
        assert!(members.iter().all(|m| m.suite != "spec17"));
        assert!(members.len() * schemes.len() >= 100, "at least 100 cells");
    }
}
