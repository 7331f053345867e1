//! End-to-end tests of the `picola` binary: budget flags, graceful
//! degradation, and the exit-code contract.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn picola(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_picola"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("picola-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("temp file written");
    path
}

const MACHINE: &str = "\
.i 2
.o 1
.r s0
-0 s0 s0 0
01 s0 s1 0
11 s0 s2 1
-- s1 s3 1
0- s2 s0 0
1- s2 s3 1
-1 s3 s0 1
-0 s3 s1 0
.e
";

#[test]
fn assign_unbudgeted_succeeds() {
    let path = write_temp("ok.kiss2", MACHINE);
    let out = picola(&["assign", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(".i "), "PLA header expected:\n{stdout}");
    assert!(!stdout.contains("# status: degraded"));
}

#[test]
fn assign_with_tiny_budget_degrades_but_exits_zero() {
    let path = write_temp("tiny.kiss2", MACHINE);
    let out = picola(&["--budget-work", "2", "assign", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "degraded runs must still exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("# status: degraded"),
        "missing degradation marker:\n{stdout}"
    );
    // The emitted PLA must still parse and carry terms.
    let pla_text: String = stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n");
    let pla = picola::logic::parse_pla(&pla_text).expect("degraded output still parses");
    assert!(!pla.on.is_empty(), "degraded PLA must keep its on-set");
}

#[test]
fn assign_with_wallclock_budget_exits_zero() {
    let path = write_temp("ms.kiss2", MACHINE);
    let out = picola(&["--budget-ms", "0", "assign", path.to_str().unwrap()]);
    assert!(out.status.success());
}

#[test]
fn encode_with_tiny_budget_emits_codes() {
    let path = write_temp("enc.kiss2", MACHINE);
    let out = picola(&["--budget-work", "1", "encode", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# status: degraded"), "{stdout}");
    // one code line per state
    let codes = stdout.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(codes, 4, "{stdout}");
}

#[test]
fn exit_codes_distinguish_failure_classes() {
    // usage: no arguments
    let out = picola(&[]);
    assert_eq!(out.status.code(), Some(2));
    // usage: bad flag value
    let out = picola(&["--budget-work", "lots", "assign", "x"]);
    assert_eq!(out.status.code(), Some(2));
    // I/O: missing file
    let out = picola(&["assign", "/nonexistent/machine.kiss2"]);
    assert_eq!(out.status.code(), Some(3));
    // parse: malformed KISS2
    let bad = write_temp("bad.kiss2", ".i 2\n.o 1\nbadrow\n.e\n");
    let out = picola(&["assign", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line"), "diagnostic should cite a line: {stderr}");
    // invalid input: unknown benchmark name
    let out = picola(&["bench", "no-such-machine"]);
    assert_eq!(out.status.code(), Some(5));
}

#[test]
fn closed_output_pipe_exits_zero() {
    // `picola ... | head` — the consumer walking away is a normal way to
    // stop reading; it must end the run with exit 0, never a panic.
    let path = write_temp("pipe.kiss2", MACHINE);
    let mut child = Command::new(env!("CARGO_BIN_EXE_picola"))
        .args(["assign", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // Close the read end before the tool produces output.
    drop(child.stdout.take());
    let status = child.wait().expect("child waited");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("stderr read");
    assert!(status.success(), "broken pipe must exit 0: {status:?}\n{stderr}");
    assert!(!stderr.contains("panic"), "stderr shows a panic:\n{stderr}");
}

#[test]
fn minimize_roundtrip_with_budget() {
    let pla = write_temp(
        "m.pla",
        ".i 3\n.o 1\n000 1\n001 1\n010 1\n011 1\n1-0 1\n.e\n",
    );
    let out = picola(&["--budget-work", "1", "minimize", pla.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let body: String = stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n");
    let parsed = picola::logic::parse_pla(&body).expect("minimize output parses");
    assert!(!parsed.on.is_empty());
}

/// Runs `picola [--budget-work W] <command> <path>`.
fn picola_budgeted(work: Option<u64>, command: &str, path: &std::path::Path) -> Output {
    let work = work.map(|w| w.to_string());
    let mut args = Vec::new();
    if let Some(w) = &work {
        args.extend(["--budget-work", w.as_str()]);
    }
    args.extend([command, path.to_str().unwrap()]);
    picola(&args)
}

#[test]
fn assign_emits_the_cover_whose_size_it_reports() {
    // The PLA on stdout is the flow's own minimized cover, so its cube
    // count is the size on stderr at every budget — including budgets that
    // run out inside the final minimization (538–541 on bbara).
    let bbara = picola::fsm::benchmark_fsm("bbara").expect("bbara is in the suite");
    let path = write_temp("size.kiss2", &picola::fsm::write_kiss(&bbara));
    let budgets = (0..=1200).step_by(60).chain(536..=543).map(Some);
    for work in budgets.chain([None]) {
        let out = picola_budgeted(work, "assign", &path);
        assert!(out.status.success(), "--budget-work {work:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let size: usize = stderr
            .lines()
            .find_map(|l| l.split(": size ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no size line:\n{stderr}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let cubes: usize = stdout
            .lines()
            .find_map(|l| l.strip_prefix(".p "))
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("no .p line:\n{stdout}"));
        assert_eq!(
            size, cubes,
            "--budget-work {work:?}: reported size vs emitted PLA"
        );
    }
}

#[test]
fn minimize_output_is_the_library_flat_engine_byte_for_byte() {
    use picola::logic::{
        flat_espresso_bounded, parse_pla, write_pla, Budget, MinimizeOptions, MinimizeScratch, Pla,
    };
    // Fixture: bbara's natural-encoded machine as an unminimized PLA with
    // a don't-care set.
    let fsm = picola::fsm::benchmark_fsm("bbara").expect("bbara is in the suite");
    let enc = picola::constraints::Encoding::natural(fsm.num_states());
    let em = picola::stassign::encode_machine(&fsm, &enc);
    let mut fixture = Pla::new(fsm.num_inputs() + enc.nv(), enc.nv() + fsm.num_outputs());
    for c in em.on.iter() {
        fixture.on.push(c.clone());
    }
    for c in em.dc.iter() {
        fixture.dc.push(c.clone());
    }
    let text = write_pla(&fixture);
    let path = write_temp("fixture.pla", &text);
    let mut degraded = 0;
    // The fixture minimizes in a handful of work units: budgets 0 and 1
    // degrade inside ESPRESSO, the rest complete.
    for work in [None, Some(0), Some(1), Some(2), Some(4), Some(64)] {
        let budget = work.map_or_else(Budget::unlimited, |w| Budget::unlimited().work_limit(w));
        let mut pla = parse_pla(&text).expect("fixture parses");
        let (minimized, completion) = flat_espresso_bounded(
            &pla.on,
            &pla.dc,
            &MinimizeOptions::default(),
            &budget,
            &mut MinimizeScratch::new(),
        );
        pla.on = minimized;
        let mut expected = String::new();
        if !completion.is_complete() {
            degraded += 1;
            expected.push_str(&format!("# status: {completion}\n"));
        }
        expected.push_str(&write_pla(&pla));
        expected.push('\n');
        let out = picola_budgeted(work, "minimize", &path);
        assert!(out.status.success(), "--budget-work {work:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "--budget-work {work:?}: CLI and library disagree"
        );
    }
    assert_eq!(degraded, 2, "budgets 0 and 1 must degrade");
}
