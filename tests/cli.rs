//! The `qtaccel-cli` binary end to end: the §VII-B commands run and print
//! their summary lines, out-of-range input is an `error:` line and exit
//! status 1, never a panic, and a reader that stops early ends it quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qtaccel-cli"))
        .args(args)
        .output()
        .expect("run qtaccel-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn train_prob_runs_and_prints_its_summary() {
    let out = cli(&[
        "train",
        "--engine",
        "prob",
        "--width",
        "8",
        "--height",
        "8",
        "--samples",
        "20000",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("samples/cycle"), "{text}");
    assert!(text.contains("policy: step-optimality"), "{text}");
}

#[test]
fn bandit_policies_run_and_print_their_summary() {
    for policy in ["eps", "exp3"] {
        let out = cli(&["bandit", "--policy", policy, "--rounds", "5000"]);
        assert!(out.status.success(), "{policy}: {out:?}");
        let text = stdout(&out);
        assert!(
            text.contains("5-arm bandit, 5000 rounds: regret"),
            "{policy}: {text}"
        );
        assert!(text.contains("M decisions/s"), "{policy}: {text}");
    }
}

#[test]
fn out_of_range_input_is_an_error_not_a_panic() {
    for args in [
        &["bandit", "--arms", "1"][..],
        &["train", "--engine", "prob", "--temperature", "0"],
        &["train", "--engine", "sarsa", "--epsilon", "1.5"],
        &["train", "--alpha", "-0.5"],
        &["train", "--gamma", "2"],
        &["bandit", "--epsilon", "NaN"],
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_reader_that_closes_stdout_early_ends_the_run_quietly() {
    // Enough samples that training outlasts the read of the first line,
    // so the later lines meet a closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_qtaccel-cli"))
        .args(["train", "--samples", "2000000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qtaccel-cli");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("training "), "{first}");
    let out = child.wait_with_output().expect("wait for qtaccel-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
