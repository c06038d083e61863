//! The `ibaqos` binary's exit status: 2 on a rejected command line, 1
//! on a failed verdict.

use std::process::Command;

#[test]
fn a_flag_the_command_does_not_read_exits_2_naming_both() {
    for (argv, command, flag) in [
        (
            &["serve", "--switches", "4", "--seed", "3", "--json"][..],
            "serve",
            "--json",
        ),
        (
            &[
                "audit",
                "--mtu",
                "4096",
                "--seed",
                "42",
                "--window",
                "7",
                "--no-journal",
            ][..],
            "audit",
            "--window",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ibaqos"))
            .args(argv)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("'{command}' does not take '{flag}'")),
            "{argv:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} printed a report");
    }
}

#[test]
fn a_failed_verdict_exits_1_with_the_verdict_first() {
    let argv = [
        "chaos-serve",
        "--switches",
        "4",
        "--seed",
        "7",
        "--requests",
        "48",
        "--no-journal",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_ibaqos"))
        .args(argv)
        .output()
        .expect("the binary runs");
    assert_eq!(out.status.code(), Some(1), "{argv:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("chaos-serve: verdict=FAIL"),
        "{argv:?}: {stderr}"
    );
    let verdicts = stderr.lines().filter(|l| l.contains("verdict=")).count();
    assert_eq!(verdicts, 1, "{argv:?}: the verdict line repeats: {stderr}");
}
