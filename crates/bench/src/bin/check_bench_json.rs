//! CI validator for emitted telemetry: every `BENCH_*.json` passed on
//! the command line (or found in the current directory when no
//! arguments are given) must parse as JSON and contain no non-finite
//! numbers — including `null`, which is the report writer's last-resort
//! spelling of a non-finite float, so a `null` in an emitted file means
//! a producer leaked `inf`/`NaN` into an aggregate. The `obs-smoke` CI
//! job runs this over the artifacts of a live serve + loadgen session.
//!
//! Exits 0 when every file is clean, 1 otherwise (including when no
//! file was checked at all — a silently-empty run must not pass).

use std::path::PathBuf;
use std::process::ExitCode;

use mba_obs::json::{find_non_finite, parse_json};

fn bench_files_in_cwd() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(".")
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn check(path: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("unparseable: {e}"))?;
    match find_non_finite(&doc) {
        None => Ok(()),
        Some(at) => Err(format!("non-finite value at {at}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let files = if args.is_empty() {
        bench_files_in_cwd()
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("check_bench_json: no BENCH_*.json files to check");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &files {
        match check(path) {
            Ok(()) => println!("ok   {}", path.display()),
            Err(why) => {
                failed = true;
                eprintln!("FAIL {}: {why}", path.display());
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
