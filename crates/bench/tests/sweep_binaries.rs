//! The `ablations` and `extensions` sweep binaries, run end to end at
//! `--quick`: stdout must match the golden tables byte for byte. After
//! an intentional model change, regenerate a golden with
//! `cargo run --release -p rperf-bench --bin <name> -- --quick > crates/bench/tests/golden/<name>_quick.md`.

use std::process::Command;

fn quick_stdout(exe: &str) -> String {
    let out = Command::new(exe).arg("--quick").output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{exe} --quick failed: {stderr}");
    String::from_utf8(out.stdout).expect("tables are UTF-8")
}

#[test]
fn ablations_quick_matches_golden() {
    let golden = include_str!("golden/ablations_quick.md");
    assert_eq!(quick_stdout(env!("CARGO_BIN_EXE_ablations")), golden);
}

#[test]
fn extensions_quick_matches_golden() {
    let golden = include_str!("golden/extensions_quick.md");
    assert_eq!(quick_stdout(env!("CARGO_BIN_EXE_extensions")), golden);
}
