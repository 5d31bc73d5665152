//! End-to-end CLI coverage for the level-2 plan cache: a cold
//! `tce optimize` stores an entry, the warm rerun hits it with
//! byte-identical `--json` output, and the `tce cache` subcommands
//! (`stats`, `verify`, `clear`) manage the directory — also when many
//! processes share it at once.

use std::path::Path;
use std::process::{Command, Stdio};

use tensor_contraction_opt::core::PlanCache;

fn tce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tce")).args(args).output().expect("run tce")
}

fn workload() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/ccsd_tiny.tce").to_string()
}

#[test]
fn cold_store_warm_hit_byte_identical_json_and_cache_subcommands() {
    let dir = std::env::temp_dir().join(format!("tce-cache-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("utf-8 path");
    let src = workload();

    // Cold run: miss, search, store.
    let cold = tce(&["optimize", &src, "--procs", "16", "--json", "--plan-cache", cache]);
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold.status.success(), "cold run failed: {cold_err}");
    assert!(cold_err.contains("plan cache: stored"), "no store notice: {cold_err}");
    assert!(!cold_err.contains("warm hit"), "cold run claims a hit: {cold_err}");

    // Warm run: hit, no search, byte-identical machine output.
    let warm = tce(&["optimize", &src, "--procs", "16", "--json", "--plan-cache", cache]);
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm.status.success(), "warm run failed: {warm_err}");
    assert!(warm_err.contains("plan cache: warm hit"), "no hit notice: {warm_err}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "warm --json output is not byte-identical to cold"
    );

    // --no-plan-cache bypasses the directory entirely.
    let off = tce(&[
        "optimize",
        &src,
        "--procs",
        "16",
        "--json",
        "--plan-cache",
        cache,
        "--no-plan-cache",
    ]);
    let off_err = String::from_utf8_lossy(&off.stderr);
    assert!(off.status.success(), "bypass run failed: {off_err}");
    assert!(!off_err.contains("plan cache:"), "bypass still touched the cache: {off_err}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&off.stdout),
        "cache-off output differs from cold"
    );

    // Subcommands: stats sees one entry, verify finds it clean, clear
    // empties the directory.
    let stats = tce(&["cache", "stats", "--plan-cache", cache]);
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.status.success(), "{}", String::from_utf8_lossy(&stats.stderr));
    assert!(stats_out.contains("entries: 1"), "stats: {stats_out}");
    assert!(stats_out.contains("hit"), "stats: {stats_out}");

    let verify = tce(&["cache", "verify", "--plan-cache", cache]);
    let verify_out = String::from_utf8_lossy(&verify.stdout);
    assert!(verify.status.success(), "{}", String::from_utf8_lossy(&verify.stderr));
    assert!(verify_out.contains("ok"), "verify: {verify_out}");
    assert!(!verify_out.contains("BAD"), "verify: {verify_out}");

    let clear = tce(&["cache", "clear", "--plan-cache", cache]);
    let clear_out = String::from_utf8_lossy(&clear.stdout);
    assert!(clear.status.success(), "{}", String::from_utf8_lossy(&clear.stderr));
    assert!(clear_out.contains('1'), "clear: {clear_out}");
    assert!(
        !entries_remain(&dir),
        "entries remain after clear: {:?}",
        std::fs::read_dir(&dir).map(|d| d.count())
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight `tce optimize` processes share one cache directory, five rounds
/// of eight at once. Every lookup must reach the persistent totals (hit +
/// miss == 40), no store may fail, and the directory must verify clean.
#[test]
fn concurrent_processes_lose_no_stats_and_no_stores() {
    const PROCS: usize = 8;
    const ROUNDS: usize = 5;
    let dir = std::env::temp_dir().join(format!("tce-cache-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("utf-8 path");
    let src = workload();
    for _ in 0..ROUNDS {
        let children: Vec<_> = (0..PROCS)
            .map(|_| {
                Command::new(env!("CARGO_BIN_EXE_tce"))
                    .args(["optimize", &src, "--procs", "16", "--json", "--plan-cache", cache])
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("spawn tce")
            })
            .collect();
        for child in children {
            let out = child.wait_with_output().expect("wait for tce");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "concurrent run failed: {err}");
            assert!(!err.contains("store failed"), "concurrent store failed: {err}");
        }
    }

    let lookups: u64 = PlanCache::at(&dir)
        .stats()
        .counters
        .iter()
        .filter(|(name, _)| ["cache.hit", "cache.miss"].contains(name))
        .map(|&(_, n)| n)
        .sum();
    assert_eq!(lookups, (PROCS * ROUNDS) as u64, "lookups lost from the persistent totals");

    let verify = tce(&["cache", "verify", "--plan-cache", cache]);
    let verify_out = String::from_utf8_lossy(&verify.stdout);
    assert!(verify.status.success(), "{}", String::from_utf8_lossy(&verify.stderr));
    assert!(!verify_out.contains("BAD"), "verify: {verify_out}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn entries_remain(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(Result::ok).any(|e| e.file_name().to_string_lossy().ends_with(".json"))
        })
        .unwrap_or(false)
}

#[test]
fn unknown_cache_action_is_an_error() {
    let out = tce(&["cache", "frobnicate"]);
    assert!(!out.status.success());
}
