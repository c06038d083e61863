//! The `ibaqos` binary's exit status on a rejected command line.

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
