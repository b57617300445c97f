//! The binary refuses a flag it does not know, and a known flag missing
//! its value, before any mode starts: usage on stderr, non-zero exit.

use std::process::{Command, Output, Stdio};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_balg-cli"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("the built binary runs")
}

/// `args` exits non-zero with `message` and the usage on stderr, and
/// prints nothing on stdout (a started REPL prints its banner there).
fn assert_refused(args: &[&str], message: &str) {
    let out = run(args);
    assert!(!out.status.success(), "{args:?} exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{stderr}");
    assert!(stderr.contains("usage: balg-cli"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn an_unknown_flag_is_refused() {
    assert_refused(&["--threads", "2"], "unknown flag \"--threads\"");
}

#[test]
fn a_flag_without_its_value_is_refused() {
    assert_refused(&["--data-dir"], "--data-dir wants a value");
}

#[test]
fn known_flags_still_start_their_mode() {
    let dir = std::env::temp_dir().join(format!("balg-cli-flags-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("a UTF-8 temp path");
    for args in [
        &["--incremental"][..],
        &["--incremental", "--data-dir", dir_arg],
    ] {
        let out = run(args);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("incremental view maintenance mode"),
            "{args:?}: {stdout}"
        );
    }
    assert!(dir.is_dir(), "--data-dir was not read");
    std::fs::remove_dir_all(&dir).expect("the data dir is removable");
}
