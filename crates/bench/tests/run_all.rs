//! The `run_all` binary refuses an unknown artifact name before any
//! experiment runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::SystemTime;

use qtaccel_bench::experiments::EXPERIMENTS;

/// Every file under `results/` with its modification time.
fn results_mtimes() -> BTreeMap<String, SystemTime> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::read_dir(dir)
        .expect("read results/")
        .map(|entry| {
            let entry = entry.expect("results/ entry");
            let mtime = entry.metadata().and_then(|m| m.modified());
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, mtime.expect("results/ file mtime"))
        })
        .collect()
}

#[test]
fn an_unknown_name_exits_2_listing_the_known_names_and_writes_nothing() {
    let before = results_mtimes();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["fig3", "no_such_artifact"])
        .output()
        .expect("run run_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no_such_artifact"), "{stderr}");
    for e in EXPERIMENTS {
        assert!(stderr.contains(e.name), "`{}` not listed: {stderr}", e.name);
    }
    assert!(out.stdout.is_empty(), "a row ran");
    assert_eq!(results_mtimes(), before, "results/ changed");
}
