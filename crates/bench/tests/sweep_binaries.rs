//! The `ablations` and `extensions` sweep binaries, run end to end at
//! `--quick`: stdout must match the golden tables byte for byte. After
//! an intentional model change, regenerate a golden with
//! `cargo run --release -p rperf-bench --bin <name> -- --quick > crates/bench/tests/golden/<name>_quick.md`.
//! Also: every bench binary refuses a flag it does not know.

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

/// A retired flag (`--prof`, whose counters every run now records) is a
/// usage error, not silently ignored: exit 2, the flag named on stderr,
/// and nothing run or written.
#[test]
fn unknown_flags_are_usage_errors() {
    let out_md = format!("{}/unknown_flag.md", env!("CARGO_TARGET_TMPDIR"));
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_figure"), vec!["--fig", "4", "--quick"]),
        (
            env!("CARGO_BIN_EXE_report"),
            vec!["--quick", "--jobs", "1", "--out", &out_md],
        ),
    ] {
        let out = Command::new(exe)
            .args(&args)
            .arg("--prof")
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} --prof: {stderr}");
        assert!(stderr.contains("--prof"), "{exe}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} ran before rejecting the flag");
    }
    assert!(!std::path::Path::new(&out_md).exists());
}

/// A bad flag *value* is a usage error too, caught before any figure
/// runs: `--gate` outside (0, 100) or not a number, `--out` with no path
/// after it (which would otherwise write into the checkout root).
#[test]
fn bad_report_flag_values_are_usage_errors() {
    let out_md = format!("{}/bad_value.md", env!("CARGO_TARGET_TMPDIR"));
    let base = ["--quick", "--jobs", "1"];
    for (extra, flag, value) in [
        (vec!["--gate", "150", "--out", &out_md], "--gate", "150"),
        (vec!["--gate", "ten", "--out", &out_md], "--gate", "ten"),
        (vec!["--out", &out_md, "--gate", "0"], "--gate", "0"),
        (vec!["--out"], "--out", "nothing"),
        (vec!["--out", "--gate"], "--out", "--gate"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(base)
            .args(&extra)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{extra:?}: {stderr}"
        );
        assert!(
            !stderr.contains("running") && !stderr.contains("wrote"),
            "{extra:?}: a figure ran or a file was written: {stderr}"
        );
    }
    assert!(!std::path::Path::new(&out_md).exists());
}
