//! `repro` rejects arguments it does not understand: usage on stderr,
//! exit status 2, nothing on stdout.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    for args in [
        &["bogus"][..],
        &["--bogus"],
        &["--quick", "fig3", "--verbose"],
        &["-q", "fig3"],
        &["fig3", "fig5"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} wrote to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: repro"), "repro {args:?}: {err}");
    }
}

#[test]
fn known_subcommand_runs() {
    let out = repro(&["--quick", "plans"]);
    assert!(out.status.success());
    assert!(out.stderr.is_empty());
    assert!(String::from_utf8_lossy(&out.stdout).contains("pushdown query plans"));
}
