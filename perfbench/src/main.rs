//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_fsm|serve_mix|portfolio_large --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload is closed-loop: a caller
//! issues its next job only after the previous one was answered. A run
//! makes whole passes over a job list generated from `--seed`; the number
//! of passes follows from `--seconds` and the pass time measured on the
//! reference host, so every run of a workload does the same work. Answers
//! are checked outside the timed sections. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced pass with `--trace 1`.

mod flow;
mod metrics;
mod portfolio;
mod report;
mod serve;
mod spans;
mod stats;

use metrics::result_line;
use report::Report;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload flow_fsm|serve_mix|portfolio_large \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Scratch space for one run, under the working directory; removed when
/// the run ends, whether it succeeded or not.
const RUN_ROOT: &str = ".perfbench-run";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: None,
        seconds: 30,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["flow_fsm", "serve_mix", "portfolio_large"].contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// Removes the run's scratch directory on drop.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<(Report, Option<Spans>), String> {
    match args.workload.as_str() {
        "flow_fsm" => flow::run(
            args.seed.unwrap_or(flow::DEFAULT_SEED),
            args.seconds,
            args.trace,
        ),
        "serve_mix" => serve::run(
            args.seed.unwrap_or(serve::DEFAULT_SEED),
            args.seconds,
            args.trace,
            run_dir,
        ),
        _ => portfolio::run(
            args.seed.unwrap_or(portfolio::DEFAULT_SEED),
            args.seconds,
            args.trace,
        ),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir =
        RunDir(Path::new(RUN_ROOT).join(format!("{}-{}", args.workload, std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&run_dir.0) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.0.display());
        return ExitCode::from(1);
    }
    let (report, spans) = match run(&args, &run_dir.0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "# workload {} seed {} trace {}",
        args.workload,
        args.seed.map_or("default".to_owned(), |s| s.to_string()),
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(spans) = spans {
        let path = Path::new(RUN_ROOT).join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload,
            args.seed.map_or("default".to_owned(), |s| s.to_string())
        ));
        match std::fs::write(&path, spans.to_jsonl()) {
            Ok(()) => println!(
                "# {} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&report.tally, &report.metrics));
    if report.tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} jobs failed",
            report.tally.failed(),
            report.tally.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn a_full_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(
            a,
            Args {
                workload: "serve_mix".to_owned(),
                seed: Some(7),
                seconds: 20,
                trace: true
            }
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "flow_fsm", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "flow_fsm", "--seed"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }
}
