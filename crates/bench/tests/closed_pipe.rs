//! `repro` writing into a pipe whose reader has gone away (`repro list |
//! head -1`) ends quietly: no panic message, and not the panic's status 101.

use std::process::Command;

#[test]
fn a_closed_stdout_ends_repro_without_a_panic() {
    for args in [&["list"][..], &["table1"], &["table1", "--csv"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
