//! `picola` — command-line front end.
//!
//! ```text
//! picola encode <machine.kiss2>     face constraints + PICOLA codes
//! picola assign <machine.kiss2>     full state assignment, emits the
//!                                   minimized encoded PLA on stdout
//! picola portfolio <machine.kiss2>  race every encoder, print the table
//! picola sat <machine.kiss2>        prove the exact optimum via the SAT
//!                                   oracle (small machines; see --dimacs)
//! picola minimize <file.pla>        two-level minimization of a PLA
//! picola bench <name>               synthesize a suite benchmark as KISS2
//! picola serve <addr>               run the encoding daemon on <addr>
//! picola submit <addr> <file>       send a file to a daemon, print result
//! ```
//!
//! Global flags (accepted anywhere on the command line):
//!
//! ```text
//! --budget-ms <n>     wall-clock budget in milliseconds
//! --budget-work <n>   work-unit budget (loop iterations, search nodes)
//! --threads <n>       worker threads (never changes results, only speed)
//! --trace-json <path> write the observability trace (spans, counters,
//!                     per-phase work and wall time) as JSON to <path>
//! ```
//!
//! An exhausted budget never fails the run: the tool emits its best-so-far
//! result, marks it with a `# status: degraded (...)` comment, and exits 0.
//! A consumer closing the output pipe early (`picola ... | head`) stops the
//! run cleanly with exit 0 — never a panic.
//!
//! Exit codes:
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | success (including degraded-by-budget)    |
//! | 2    | usage error                               |
//! | 3    | I/O error                                 |
//! | 4    | parse error (KISS2 / PLA)                 |
//! | 5    | invalid input (semantically unusable)     |
//! | 70   | internal error or caught panic            |
//! | 75   | transient failure (daemon load-shed every |
//! |      | retry; resubmitting later may succeed)    |

use picola::constraints::{extract_constraints, min_code_length};
use picola::core::{
    evaluate_encoding, try_picola_encode_with, Budget, Completion, PicolaError, PicolaOptions,
};
use picola::fsm::{benchmark_fsm, parse_kiss, symbolic_cover, write_kiss};
use picola::logic::sat::FaceProblem;
use picola::logic::{
    flat_espresso_bounded, parse_pla, write_pla, MinimizeOptions, MinimizeScratch,
};
use picola::sat::{ExactOracle, OracleError};
use picola::server::{Client, ClientError, JobKind, JobRequest, RetryPolicy, Status};
use picola::server::{Server, ServerConfig};
use picola::stassign::{assign_states_bounded, FlowOptions, PicolaStateEncoder};
use std::fmt;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by SIGTERM/SIGINT; `serve` polls it to begin a graceful drain.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use super::SHUTDOWN_REQUESTED;
    use std::sync::atomic::Ordering;

    // The handler only performs an atomic store — async-signal-safe.
    extern "C" fn handle(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let h = handle as extern "C" fn(i32) as usize;
        // SAFETY: registering an async-signal-safe handler via the libc
        // `signal` entry point; both arguments are valid by construction.
        unsafe {
            signal(SIGINT, h);
            signal(SIGTERM, h);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

const USAGE: &str = "\
usage: picola [--budget-ms N] [--budget-work N] [--threads N]
              [--trace-json PATH] <command> <file|name>

encode    <machine.kiss2>  extract face constraints, print PICOLA codes
assign    <machine.kiss2>  full state assignment, print minimized PLA
portfolio <machine.kiss2>  race every encoder, print the comparison table
sat       <machine.kiss2>  prove the exact minimum-cube encoding with the
                           CNF oracle (machines up to 32 states); an
                           exhausted budget or the built-in 100k-conflict
                           probe cap degrades to the best witness, which
                           is then reported as not proven
minimize  <file.pla>       two-level minimization (ESPRESSO)
export-mv <machine.kiss2>  print the symbolic cover as a .mv PLA
reduce    <machine.kiss2>  merge equivalent states, print KISS2
bench     <name>           print a synthetic suite benchmark as KISS2
serve     <addr>           run the encoding daemon (e.g. 127.0.0.1:4815);
                           SIGTERM/SIGINT or a `shutdown` request drains
submit    <addr> <file>    submit a .kiss2 / .mv PLA file to a daemon and
                           print the terminal response frame (exit 75 when
                           every retry was load-shed); with --batch FILE,
                           stream every job file listed in FILE (one path
                           per line, # comments) over one connection

--budget-ms N    stop refining after N milliseconds (graceful: the best
                 result so far is still emitted, exit code stays 0)
--budget-work N  stop refining after N abstract work units
--threads N      worker threads for `encode` refinement and the `portfolio`
                 race (results are identical for any value; default 1)
--trace-json P   write the run's observability trace (hierarchical spans,
                 monotonic counters, per-phase work units and wall time)
                 as JSON to P; results are bit-identical with or without
--workers N        serve: worker threads in the job pool (default 2)
--queue-depth N    serve: admission-control queue bound (default 16)
--cache-capacity N serve: shared minimization-cache entry bound
--store DIR        serve: content-addressed result store directory; warm
                   entries answer repeat jobs without recomputing
--batch FILE       submit: stream every job file listed in FILE over one
                   connection, one response frame per job
--dimacs P         sat: also write the CNF compiled at the final cost bound
                   (satisfiable exactly by the optimal encodings) to P";

/// Everything that can go wrong in the CLI, mapped to distinct exit codes.
#[derive(Debug)]
enum AppError {
    /// Bad command line (exit 2).
    Usage(String),
    /// File could not be read (exit 3).
    Io { path: String, message: String },
    /// Input file did not parse (exit 4).
    Parse(String),
    /// Input parsed but is semantically unusable (exit 5).
    Invalid(String),
    /// A should-not-happen failure surfaced as an error (exit 70).
    Internal(String),
    /// A daemon load-shed every retry; resubmitting later may succeed
    /// (exit 75, mirroring BSD `EX_TEMPFAIL`).
    Transient(String),
    /// Stdout's reader went away (`picola ... | head`). Not a failure:
    /// the run stops early and exits 0, per the POSIX convention.
    PipeClosed,
}

impl AppError {
    fn exit_code(&self) -> u8 {
        match self {
            AppError::Usage(_) => 2,
            AppError::Io { .. } => 3,
            AppError::Parse(_) => 4,
            AppError::Invalid(_) => 5,
            AppError::Internal(_) => 70,
            AppError::Transient(_) => 75,
            AppError::PipeClosed => 0,
        }
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Usage(m) => write!(f, "{m}"),
            AppError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            AppError::Parse(m) => write!(f, "{m}"),
            AppError::Invalid(m) => write!(f, "{m}"),
            AppError::Internal(m) => write!(f, "{m}"),
            AppError::Transient(m) => write!(f, "{m}"),
            AppError::PipeClosed => write!(f, "output pipe closed"),
        }
    }
}

/// Writes to stdout without the default panic-on-EPIPE: a consumer that
/// stops reading (`head`, `less` quit early) winds the run down cleanly.
fn out(text: &str) -> Result<(), AppError> {
    use std::io::Write as _;
    std::io::stdout()
        .lock()
        .write_all(text.as_bytes())
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                AppError::PipeClosed
            } else {
                AppError::Io {
                    path: "<stdout>".into(),
                    message: e.to_string(),
                }
            }
        })
}

fn outln(text: &str) -> Result<(), AppError> {
    out(text)?;
    out("\n")
}

/// Best-effort stderr diagnostics: a closed stderr must not panic the run.
fn errln(text: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr().lock(), "{text}");
}

impl From<PicolaError> for AppError {
    fn from(e: PicolaError) -> Self {
        match e {
            PicolaError::InvalidInput(m) => AppError::Invalid(m),
            PicolaError::Internal(m) => AppError::Internal(m),
        }
    }
}

/// The parsed command line: subcommand, its target, the run budget, and
/// the worker-thread count.
struct Cli {
    command: String,
    target: String,
    /// Second operand for commands that take one (`submit <addr> <file>`).
    extra: Option<String>,
    budget: Budget,
    budget_ms: Option<u64>,
    budget_work: Option<u64>,
    threads: usize,
    trace_json: Option<String>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    cache_capacity: Option<usize>,
    dimacs: Option<String>,
    store: Option<String>,
    batch: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, AppError> {
    let mut positional: Vec<&String> = Vec::new();
    let mut budget = Budget::unlimited();
    let mut budget_ms: Option<u64> = None;
    let mut budget_work: Option<u64> = None;
    let mut threads = 1usize;
    let mut trace_json: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut dimacs: Option<String> = None;
    let mut store: Option<String> = None;
    let mut batch: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace-json" => {
                let value = it
                    .next()
                    .ok_or_else(|| AppError::Usage(format!("{arg} needs a path")))?;
                trace_json = Some(value.clone());
            }
            "--dimacs" => {
                let value = it
                    .next()
                    .ok_or_else(|| AppError::Usage(format!("{arg} needs a path")))?;
                dimacs = Some(value.clone());
            }
            "--store" => {
                let value = it
                    .next()
                    .ok_or_else(|| AppError::Usage(format!("{arg} needs a directory")))?;
                store = Some(value.clone());
            }
            "--batch" => {
                let value = it
                    .next()
                    .ok_or_else(|| AppError::Usage(format!("{arg} needs a file")))?;
                batch = Some(value.clone());
            }
            "--budget-ms" | "--budget-work" | "--threads" | "--workers" | "--queue-depth"
            | "--cache-capacity" => {
                let value = it
                    .next()
                    .ok_or_else(|| AppError::Usage(format!("{arg} needs a value")))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| AppError::Usage(format!("{arg} needs an integer, got {value:?}")))?;
                let as_usize = usize::try_from(n).unwrap_or(usize::MAX);
                match arg.as_str() {
                    "--budget-ms" => {
                        budget = budget.deadline_in(Duration::from_millis(n));
                        budget_ms = Some(n);
                    }
                    "--budget-work" => {
                        budget = budget.work_limit(n);
                        budget_work = Some(n);
                    }
                    "--workers" => workers = Some(as_usize.max(1)),
                    "--queue-depth" => queue_depth = Some(as_usize.max(1)),
                    "--cache-capacity" => cache_capacity = Some(as_usize.max(1)),
                    _ => threads = as_usize.max(1),
                }
            }
            flag if flag.starts_with("--") => {
                return Err(AppError::Usage(format!("unknown flag {flag}")));
            }
            _ => positional.push(arg),
        }
    }
    let (command, target, extra) = match positional.as_slice() {
        [command, target] => ((*command).clone(), (*target).clone(), None),
        [command, target, extra] => {
            ((*command).clone(), (*target).clone(), Some((*extra).clone()))
        }
        _ => return Err(AppError::Usage("expected <command> <file|name>".into())),
    };
    Ok(Cli {
        command,
        target,
        extra,
        budget,
        budget_ms,
        budget_work,
        threads,
        trace_json,
        workers,
        queue_depth,
        cache_capacity,
        dimacs,
        store,
        batch,
    })
}

fn read(path: &str) -> Result<String, AppError> {
    std::fs::read_to_string(path).map_err(|e| AppError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })
}

fn read_fsm(path: &str) -> Result<picola::fsm::Fsm, AppError> {
    let text = read(path)?;
    parse_kiss(path, &text).map_err(|e| AppError::Parse(e.to_string()))
}

/// Emits the status comment for a (possibly degraded) run. Goes to stdout
/// so the marker travels with the result; `#` lines are comments in every
/// format the tool emits.
fn print_status(completion: Completion) -> Result<(), AppError> {
    match completion {
        Completion::Complete => Ok(()),
        degraded @ Completion::Degraded { .. } => outln(&format!("# status: {degraded}")),
    }
}

fn cmd_encode(cli: &Cli) -> Result<(), AppError> {
    let fsm = read_fsm(&cli.target)?;
    let n = fsm.num_states();
    outln(&format!("# {fsm}"))?;
    outln(&format!("# minimum code length: {} bits", min_code_length(n)))?;
    let constraints = extract_constraints(&symbolic_cover(&fsm));
    for c in &constraints {
        outln(&format!("# constraint {c} (weight {})", c.weight()))?;
    }
    let opts = PicolaOptions {
        threads: cli.threads,
        ..PicolaOptions::default()
    };
    let result = try_picola_encode_with(n, &constraints, &opts, &cli.budget)?;
    let eval = evaluate_encoding(&result.encoding, &constraints);
    outln(&format!(
        "# {} of {} constraints satisfied, {} cubes total",
        eval.satisfied, eval.evaluated, eval.total_cubes
    ))?;
    print_status(result.completion)?;
    for (i, name) in fsm.states().iter().enumerate() {
        outln(&format!(
            "{name} {code:0width$b}",
            code = result.encoding.code(i),
            width = result.encoding.nv()
        ))?;
    }
    Ok(())
}

fn cmd_sat(cli: &Cli) -> Result<(), AppError> {
    let fsm = read_fsm(&cli.target)?;
    let n = fsm.num_states();
    outln(&format!("# {fsm}"))?;
    outln(&format!("# minimum code length: {} bits", min_code_length(n)))?;
    let constraints = extract_constraints(&symbolic_cover(&fsm));
    for c in &constraints {
        outln(&format!("# constraint {c} (weight {})", c.weight()))?;
    }
    // Seed the upper bound with the heuristic flow so the oracle starts
    // from a tight witness instead of the natural encoding.
    let opts = PicolaOptions {
        threads: cli.threads,
        ..PicolaOptions::default()
    };
    let warm = try_picola_encode_with(n, &constraints, &opts, &cli.budget)?;
    // Hard instances blow up in the final UNSAT proof; the deterministic
    // per-probe cap keeps the command terminating even on an unlimited
    // default budget — a capped run reports its witness as unproven.
    let oracle = ExactOracle {
        conflict_limit: Some(100_000),
        ..ExactOracle::default()
    };
    let out = oracle
        .prove_from(n, &constraints, Some(&warm.encoding), &cli.budget)
        .map_err(|e| match e {
            OracleError::TooLarge { .. } | OracleError::Infeasible => {
                AppError::Invalid(e.to_string())
            }
        })?;
    outln(&format!(
        "# sat: {} cubes ({}), lower bound {}, {} rounds, {} conflicts",
        out.cost,
        if out.optimal {
            "proven optimum"
        } else {
            "best witness, not proven"
        },
        out.lower_bound,
        out.rounds,
        out.stats.conflicts
    ))?;
    print_status(warm.completion.and(out.completion))?;
    if let Some(path) = &cli.dimacs {
        // The CNF at bound = cost is satisfiable exactly by the encodings
        // matching the reported cost — a checkable certificate for any
        // external DIMACS solver.
        let groups: Vec<Vec<usize>> = constraints
            .iter()
            .filter(|c| !c.is_trivial())
            .map(|c| c.members().iter().collect())
            .collect();
        let problem = FaceProblem {
            n,
            nv: min_code_length(n),
            groups,
        };
        let compiled = problem.compile(out.cost);
        std::fs::write(path, compiled.cnf.to_dimacs()).map_err(|e| AppError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        errln(&format!("# wrote CNF (bound {}) to {path}", out.cost));
    }
    for (i, name) in fsm.states().iter().enumerate() {
        outln(&format!(
            "{name} {code:0width$b}",
            code = out.encoding.code(i),
            width = out.encoding.nv()
        ))?;
    }
    Ok(())
}

fn cmd_assign(cli: &Cli) -> Result<(), AppError> {
    let fsm = read_fsm(&cli.target)?;
    let tool = PicolaStateEncoder::for_fsm(&fsm);
    let r = assign_states_bounded(&fsm, &tool, &FlowOptions::default(), &cli.budget);
    errln(&format!(
        "# {}: size {} product terms, {} literals, {:.3}s",
        fsm.name(),
        r.size,
        r.literals,
        r.total_time().as_secs_f64()
    ));
    for (i, name) in fsm.states().iter().enumerate() {
        errln(&format!(
            "# {name} = {code:0width$b}",
            code = r.encoding.code(i),
            width = r.encoding.nv()
        ));
    }
    // Emit the cover the flow minimized and measured above.
    let mut pla = picola::logic::Pla::new(
        fsm.num_inputs() + r.encoding.nv(),
        r.encoding.nv() + fsm.num_outputs(),
    );
    for c in r.cover.iter() {
        // Domains are structurally identical (binary inputs + output
        // var), so cubes carry over verbatim.
        pla.on.push(c.clone());
    }
    print_status(r.completion)?;
    outln(&write_pla(&pla))?;
    Ok(())
}

fn cmd_portfolio(cli: &Cli) -> Result<(), AppError> {
    let fsm = read_fsm(&cli.target)?;
    let n = fsm.num_states();
    let constraints = extract_constraints(&symbolic_cover(&fsm));
    let portfolio = picola::baselines::standard_portfolio(0).with_threads(cli.threads);
    let Some(outcome) = portfolio.run(n, &constraints, &cli.budget) else {
        return Err(AppError::Internal("portfolio produced no outcome".into()));
    };
    outln(&format!("# {fsm}"))?;
    outln(&format!(
        "# {} constraints ({} non-trivial), {} worker threads",
        constraints.len(),
        constraints.iter().filter(|c| !c.is_trivial()).count(),
        cli.threads
    ))?;
    outln(&format!(
        "{:<10} {:>6} {:>10} {:>10} {:>9}",
        "encoder", "cubes", "satisfied", "wall-ms", "status"
    ))?;
    for m in &outcome.members {
        outln(&format!(
            "{:<10} {:>6} {:>10} {:>10.3} {:>9}",
            m.name,
            m.cost,
            m.satisfied,
            m.wall.as_secs_f64() * 1000.0,
            if m.completion.is_complete() {
                "ok"
            } else {
                "degraded"
            }
        ))?;
    }
    outln(&format!(
        "# winner: {} ({} cubes)",
        outcome.best().name,
        outcome.best().cost
    ))?;
    print_status(outcome.completion)?;
    Ok(())
}

fn cmd_minimize(cli: &Cli) -> Result<(), AppError> {
    let text = read(&cli.target)?;
    let mut pla = parse_pla(&text).map_err(|e| AppError::Parse(e.to_string()))?;
    let before = pla.on.len();
    let (minimized, completion) = flat_espresso_bounded(
        &pla.on,
        &pla.dc,
        &MinimizeOptions::default(),
        &cli.budget,
        &mut MinimizeScratch::new(),
    );
    pla.on = minimized;
    errln(&format!("# {before} -> {} cubes", pla.on.len()));
    print_status(completion)?;
    outln(&write_pla(&pla))?;
    Ok(())
}

fn cmd_export_mv(cli: &Cli) -> Result<(), AppError> {
    let fsm = read_fsm(&cli.target)?;
    let sc = symbolic_cover(&fsm);
    out(&picola::logic::write_mv_pla(&sc.on))?;
    Ok(())
}

fn cmd_reduce(cli: &Cli) -> Result<(), AppError> {
    let fsm = read_fsm(&cli.target)?;
    let reduced = picola::fsm::minimize_states(&fsm);
    errln(&format!(
        "# {} -> {} states",
        fsm.num_states(),
        reduced.num_states()
    ));
    out(&write_kiss(&reduced))?;
    Ok(())
}

fn cmd_bench(cli: &Cli) -> Result<(), AppError> {
    match benchmark_fsm(&cli.target) {
        Some(fsm) => {
            out(&write_kiss(&fsm))?;
            Ok(())
        }
        None => Err(AppError::Invalid(format!(
            "unknown benchmark {:?}",
            cli.target
        ))),
    }
}

fn cmd_serve(cli: &Cli) -> Result<(), AppError> {
    let mut config = ServerConfig {
        addr: cli.target.clone(),
        ..ServerConfig::default()
    };
    if let Some(w) = cli.workers {
        config.workers = w;
    }
    if let Some(q) = cli.queue_depth {
        config.queue_depth = q;
    }
    if let Some(ms) = cli.budget_ms {
        config.default_budget_ms = ms;
        config.max_budget_ms = config.max_budget_ms.max(ms);
    }
    config.engine.cache_capacity = cli.cache_capacity;
    config.engine.picola.threads = cli.threads;
    config.store_dir = cli.store.clone();
    let handle = Server::start(config).map_err(|e| AppError::Io {
        path: cli.target.clone(),
        message: e.to_string(),
    })?;
    errln(&format!("# picola-server listening on {}", handle.addr()));
    sig::install();
    // Wait for a drain trigger: a wire `shutdown` request or a signal.
    while !handle.is_draining() && !SHUTDOWN_REQUESTED.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = handle.shutdown();
    errln(&format!(
        "# drained: {} completed, {} degraded, {} rejected, {} failed, {} panics contained, \
         {} store hits / {} misses",
        stats.completed,
        stats.degraded,
        stats.rejected,
        stats.failed,
        stats.worker_panics,
        stats.store_hits,
        stats.store_misses
    ));
    Ok(())
}

/// Submits one job file over an existing client connection, prints the
/// terminal frame, and maps the response to the CLI error contract.
fn submit_one(client: &mut Client, cli: &Cli, file: &str, id: &str) -> Result<(), AppError> {
    let text = read(file)?;
    // `.mv` headers mark a multi-valued PLA; everything else is KISS2.
    let kind = if text.lines().any(|l| l.trim_start().starts_with(".mv")) {
        JobKind::EncodeMvPla
    } else {
        JobKind::EncodeKiss
    };
    let mut req = JobRequest::new(id, kind, text);
    req.budget_ms = cli.budget_ms;
    req.budget_work = cli.budget_work;
    let outcome = client
        .submit_with_retry(&req, &RetryPolicy::default())
        .map_err(|e| match e {
            ClientError::RetriesExhausted(m) => AppError::Transient(m),
            other => AppError::Io {
                path: cli.target.clone(),
                message: other.to_string(),
            },
        })?;
    outln(&outcome.response.to_frame())?;
    match outcome.response.status {
        Some(Status::Ok | Status::Degraded) => Ok(()),
        Some(Status::Rejected) => Err(AppError::Transient(
            outcome
                .response
                .body
                .get_str("error")
                .unwrap_or("daemon rejected the job")
                .to_owned(),
        )),
        Some(Status::Error) | None => {
            let msg = outcome
                .response
                .body
                .get_str("error")
                .unwrap_or("daemon error")
                .to_owned();
            match outcome.response.code {
                4 => Err(AppError::Parse(msg)),
                5 => Err(AppError::Invalid(msg)),
                _ => Err(AppError::Internal(msg)),
            }
        }
    }
}

fn cmd_submit(cli: &Cli) -> Result<(), AppError> {
    let mut client = Client::new(cli.target.clone());
    let Some(batch) = &cli.batch else {
        let Some(file) = &cli.extra else {
            return Err(AppError::Usage(
                "submit needs <addr> <file> (or <addr> --batch FILE)".into(),
            ));
        };
        return submit_one(&mut client, cli, file, "cli-1");
    };
    // Batch mode: one connection, one frame per listed job file. Retry
    // hints are honored per job by `submit_with_retry`; a job failing
    // permanently does not stop the stream — the first error is the
    // command's verdict after every job has its answer.
    let list = read(batch)?;
    let mut first_err: Option<AppError> = None;
    let mut submitted = 0usize;
    let mut failed = 0usize;
    for (i, line) in list.lines().enumerate() {
        let file = line.trim();
        if file.is_empty() || file.starts_with('#') {
            continue;
        }
        submitted += 1;
        match submit_one(&mut client, cli, file, &format!("cli-{}", i + 1)) {
            Ok(()) => {}
            Err(AppError::PipeClosed) => return Err(AppError::PipeClosed),
            Err(e) => {
                failed += 1;
                errln(&format!("picola: job {file}: {e}"));
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    errln(&format!(
        "# batch: {} submitted, {} failed",
        submitted, failed
    ));
    match first_err {
        Some(e) => Err(e),
        None if submitted == 0 => Err(AppError::Invalid(format!("{batch}: no job files listed"))),
        None => Ok(()),
    }
}

fn run(args: &[String]) -> Result<(), AppError> {
    let mut cli = parse_cli(args)?;
    // Recording is strictly observational (no feedback into any algorithm),
    // so results are bit-identical with or without --trace-json.
    let trace = cli
        .trace_json
        .is_some()
        .then(picola::logic::Trace::with_wall_clock);
    if let Some(t) = &trace {
        cli.budget = std::mem::take(&mut cli.budget).with_recorder(t.recorder());
    }
    let result = match cli.command.as_str() {
        "encode" => cmd_encode(&cli),
        "sat" => cmd_sat(&cli),
        "assign" => cmd_assign(&cli),
        "portfolio" => cmd_portfolio(&cli),
        "minimize" => cmd_minimize(&cli),
        "export-mv" => cmd_export_mv(&cli),
        "reduce" => cmd_reduce(&cli),
        "bench" => cmd_bench(&cli),
        "serve" => cmd_serve(&cli),
        "submit" => cmd_submit(&cli),
        other => Err(AppError::Usage(format!("unknown command {other:?}"))),
    };
    if let (Ok(()), Some(path), Some(t)) = (&result, &cli.trace_json, &trace) {
        let json = format!(
            "{{\"schema\":\"picola/trace/v1\",\"total_work\":{},\"trace\":{}}}\n",
            t.total_work(),
            t.to_json()
        );
        std::fs::write(path, json).map_err(|e| AppError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
    }
    result
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Belt and braces: the library layer is panic-free by policy, but a CLI
    // must never unwind across `main` — any escaped panic becomes exit 70.
    let outcome = std::panic::catch_unwind(|| run(&args));
    match outcome {
        Ok(Ok(()) | Err(AppError::PipeClosed)) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            errln(&format!("picola: {e}"));
            if matches!(e, AppError::Usage(_)) {
                errln(USAGE);
            }
            ExitCode::from(e.exit_code())
        }
        Err(_) => {
            errln("picola: internal panic (this is a bug)");
            ExitCode::from(70)
        }
    }
}
