//! `repro` rejects bad arguments with a usage error (exit 2) while it
//! parses them, before any world is generated, instead of panicking
//! after the build.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn bad_ids_scales_and_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 8] = [
        (
            &["--scale", "0.01", "table99"],
            "unknown experiment id \"table99\"",
        ),
        (&["table2", "fig99"], "unknown experiment id \"fig99\""),
        (&["--scale", "0"], "--scale needs a float in (0,1]"),
        (&["--scale", "2"], "--scale needs a float in (0,1]"),
        (&["--scale", "-0.5"], "--scale needs a float in (0,1]"),
        (&["--scale", "nan"], "--scale needs a float in (0,1]"),
        (&["--sede", "5"], "unknown flag --sede"),
        (
            &["--uncached", "--scale", "0.01", "table1"],
            "unknown flag --uncached",
        ),
    ];
    for (args, message) in cases {
        let out = repro(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(err.contains("usage: repro"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("generating world"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
