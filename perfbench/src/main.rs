//! The repository benchmark: the live EmbRace training step and the
//! sharded embedding service, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|train-scheduled|serve-read|serve-write> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` alternates untraced and
//! traced work within the run, reports the per-layer metrics and writes a
//! Chrome trace to `perfbench/out/`. Both check the program's outputs. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when every output check passed.

#![forbid(unsafe_code)]

mod metrics;
mod serve;
mod stats;
mod train;

use embrace_obs::{chrome_trace, ClockDomain, SpanSet};
use metrics::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// A benchmark workload, by its `BENCHMARK.json` name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Train,
    TrainScheduled,
    ServeRead,
    ServeWrite,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Train, Workload::TrainScheduled, Workload::ServeRead, Workload::ServeWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::TrainScheduled => "train-scheduled",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of the run (`--seconds`).
    pub budget: Duration,
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub out_dir: PathBuf,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = argv.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

/// Run one workload at its benchmark size.
fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::Train => train::run(train::Pipeline::Inline, &train::FULL, args),
        Workload::TrainScheduled => train::run(train::Pipeline::Scheduled, &train::FULL, args),
        Workload::ServeRead => serve::run(&serve::full(serve::Mix::Read), args),
        Workload::ServeWrite => serve::run(&serve::full(serve::Mix::Write), args),
    }
}

/// Merge per-thread span sets onto one timeline and write it as a Chrome
/// trace (open in Perfetto or `chrome://tracing`). Each set's clock
/// starts at its own recorder install, so tracks are offset by thread
/// start skew (microseconds).
pub fn write_chrome_trace(args: &Args, sets: &[(String, &SpanSet)], out: &mut Outcome) {
    let mut merged = SpanSet::new(ClockDomain::Wall);
    for (label, set) in sets {
        let track = merged.add_track(label);
        for s in set.spans() {
            merged.record(track, &s.name, &s.cat, s.start, s.end);
        }
    }
    let path = args.out_dir.join(format!("{}-seed{}.trace.json", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(&merged, &[])));
    match written {
        Ok(()) => {
            out.lines.push(format!("chrome trace: {} ({} spans)", path.display(), merged.len()))
        }
        Err(e) => out.check("write the Chrome trace", Err(format!("{}: {e}", path.display()))),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host: {cpus} CPUs available; every workload runs 2 rank threads");
    let outcome = run(&args);
    for line in &outcome.lines {
        println!("{line}");
    }
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    match outcome.to_json(args.trace) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 3,
            budget: Duration::from_millis(200),
            trace,
            out_dir: std::env::temp_dir().join("embrace-perfbench-test"),
        }
    }

    /// Each workload at a tiny size, so the smoke run takes moments.
    fn tiny(args: &Args) -> Outcome {
        let train = train::TrainShape {
            vocab: 512,
            dim: 8,
            tokens_per_batch: 32,
            steps: 120,
            setup_reps: 3,
            ..train::FULL
        };
        let shrink = |s: serve::ServeShape| serve::ServeShape {
            vocab: 4096,
            dim: 4,
            cache_rows: 64,
            batch: 32,
            setup_reps: 3,
            ..s
        };
        match args.workload {
            Workload::Train => train::run(train::Pipeline::Inline, &train, args),
            Workload::TrainScheduled => train::run(train::Pipeline::Scheduled, &train, args),
            Workload::ServeRead => serve::run(&shrink(serve::full(serve::Mix::Read)), args),
            Workload::ServeWrite => serve::run(&shrink(serve::full(serve::Mix::Write)), args),
        }
    }

    #[test]
    fn flags_parse_and_bad_flags_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(argv("--workload serve-read --seed 9 --seconds 10 --trace 1"))
            .expect("valid flags");
        assert_eq!(
            (a.workload, a.seed, a.budget.as_secs(), a.trace),
            (Workload::ServeRead, 9, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload train --seed x --seconds 1 --trace 0",
            "--workload train --seed 1 --seconds 0 --trace 0",
            "--workload train --seed 1 --seconds 1 --trace 2",
            "--workload train --seconds 1 --trace 0",
            "--workload",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn tiny_smoke_run_of_each_workload_emits_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let out = tiny(&args(workload, trace));
                assert!(out.correct(), "{workload:?} trace {trace}: {:?}", out.check_failures);
                let line = out.to_json(trace).expect("every end-to-end metric measured");
                let v = embrace_obs::json::parse(&line).expect("valid json");
                let m =
                    v.get("metrics").and_then(embrace_obs::json::Value::as_obj).expect("metrics");
                let want = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
                let want_names: Vec<&str> = want.iter().map(|(n, _, _)| *n).collect();
                assert_eq!(names, want_names, "{workload:?} trace {trace}");
                if trace {
                    assert!(out.values.get("trace.overhead").is_some_and(|&o| o > 0.0));
                }
            }
        }
    }
}
