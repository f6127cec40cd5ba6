//! Bench-regression smoke guard.
//!
//! Re-runs the `batching/batched/512` workload (one
//! [`BenchRig::batched_round`], the batched series of Ablation A,
//! recorded in `BENCH_batching.json`) a handful of times and fails if
//! the measured median exceeds the checked-in baseline by more than a
//! guard factor, or if the measured p99 exceeds the baseline p99 by more
//! than its own (looser) factor — tails catch a different class of
//! regression (a stall, a lock convoy) than medians.
//! This is not a benchmark — it is a tripwire for order-of-magnitude
//! regressions (an accidental per-frame allocation, a lost batch path)
//! cheap enough for every CI run. Build with `--release`; a debug build
//! trips the guard on compiler overhead alone.
//!
//! The measured values are also written as a small JSON report (default
//! `target/bench-guard/measured.json`) so CI can archive what was
//! actually observed alongside the pass/fail bit.
//!
//! Usage: `bench_guard [path/to/BENCH_batching.json]`
//! Env: `GUARD_FACTOR` — allowed median slowdown over baseline (default 2.0).
//!      `GUARD_P99_FACTOR` — allowed p99 slowdown over baseline (default 3.0).
//!      `GUARD_OUT` — where to write the measured-values report.

use clam_bench::BenchRig;
use clam_net::Endpoint;
use std::time::Instant;

const BATCH: u32 = 512;
const ITERS: usize = 101;
const DEFAULT_FACTOR: f64 = 2.0;
const DEFAULT_P99_FACTOR: f64 = 3.0;

/// Pull a numeric field out of the `after` object of the `batched/512`
/// row of the baseline JSON. Whitespace-insensitive scan over the known
/// report shape — the container has no JSON crate, and the file is
/// machine-written.
fn baseline_after_field(json: &str, field: &str) -> Option<f64> {
    let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    let mut rest = compact.as_str();
    while let Some(pos) = rest.find("\"bench\":\"batched\"") {
        rest = &rest[pos + 1..];
        // The row's fields up to the next row boundary.
        let row = &rest[..rest.find("},{").unwrap_or(rest.len())];
        if !row.contains("\"param\":512") {
            continue;
        }
        let after = &row[row.find("\"after\":")?..];
        let key = format!("\"{field}\":");
        let med = &after[after.find(&key)? + key.len()..];
        let end = med
            .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
            .unwrap_or(med.len());
        return med[..end].parse().ok();
    }
    None
}

/// Measured (median_ns, p99_ns) over [`ITERS`] rounds. A round is only a
/// few hundred microseconds, so 101 of them stay cheap; with 101 samples
/// the p99 index lands on the second-worst round, which tolerates a
/// single scheduler spike (shared CI runners produce millisecond
/// outliers) while still bounding the tail.
fn measure() -> (f64, f64) {
    let rig = BenchRig::new(Endpoint::unix(
        std::env::temp_dir().join(format!("clam-bench-guard-{}.sock", std::process::id())),
    ));
    rig.batched_round(BATCH); // warm up: first batch pays connection setup
    let mut samples: Vec<u128> = (0..ITERS)
        .map(|_| {
            let start = Instant::now();
            rig.batched_round(BATCH);
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    // Even ITERS would want the midpoint mean; ITERS is odd.
    let median = samples[samples.len() / 2] as f64;
    // ceil(0.99 * 101) - 1 = 99: the second-largest sample.
    let p99_idx = ((samples.len() as f64 * 0.99).ceil() as usize).clamp(1, samples.len()) - 1;
    (median, samples[p99_idx] as f64)
}

fn env_factor(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn write_report(measured_median: f64, measured_p99: f64, baseline_median: f64, baseline_p99: f64) {
    let path = std::env::var("GUARD_OUT")
        .unwrap_or_else(|_| "target/bench-guard/measured.json".to_string());
    let report = format!(
        "{{\"bench\":\"batching/batched/512\",\"iters\":{ITERS},\
         \"measured\":{{\"median_ns\":{measured_median:.1},\"p99_ns\":{measured_p99:.1}}},\
         \"baseline\":{{\"median_ns\":{baseline_median:.1},\"p99_ns\":{baseline_p99:.1}}}}}\n"
    );
    let path = std::path::Path::new(&path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, report) {
        Ok(()) => println!("bench_guard: measured values written to {}", path.display()),
        Err(e) => eprintln!("bench_guard: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let baseline_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_batching.json".to_string());
    let json = match std::fs::read_to_string(&baseline_path) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("bench_guard: cannot read {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let Some(baseline) = baseline_after_field(&json, "median_ns") else {
        eprintln!("bench_guard: no batched/512 after.median_ns in {baseline_path}");
        std::process::exit(2);
    };
    let Some(baseline_p99_us) = baseline_after_field(&json, "p99_us") else {
        eprintln!("bench_guard: no batched/512 after.p99_us in {baseline_path}");
        std::process::exit(2);
    };
    let baseline_p99 = baseline_p99_us * 1000.0;
    let factor = env_factor("GUARD_FACTOR", DEFAULT_FACTOR);
    let p99_factor = env_factor("GUARD_P99_FACTOR", DEFAULT_P99_FACTOR);

    let (measured, measured_p99) = measure();
    write_report(measured, measured_p99, baseline, baseline_p99);

    let limit = baseline * factor;
    let p99_limit = baseline_p99 * p99_factor;
    println!(
        "bench_guard: batching/batched/512 median {measured:.1} ns \
         (baseline {baseline:.1} ns, limit {factor}x = {limit:.1} ns)"
    );
    println!(
        "bench_guard: batching/batched/512 p99 {measured_p99:.1} ns \
         (baseline {baseline_p99:.1} ns, limit {p99_factor}x = {p99_limit:.1} ns)"
    );
    let mut failed = false;
    if measured > limit {
        eprintln!(
            "bench_guard: REGRESSION — median {:.1}x over baseline exceeds the {factor}x guard",
            measured / baseline
        );
        failed = true;
    }
    if measured_p99 > p99_limit {
        eprintln!(
            "bench_guard: REGRESSION — p99 {:.1}x over baseline exceeds the {p99_factor}x guard",
            measured_p99 / baseline_p99
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "bench_guard: ok (median {:.2}x, p99 {:.2}x baseline)",
        measured / baseline,
        measured_p99 / baseline_p99
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "rows": [
        { "group": "batching", "bench": "batched", "param": 8,
          "before": { "mean_ns": 1.0, "median_ns": 2.0 },
          "after": { "mean_ns": 3.0, "median_ns": 4.0 } },
        { "group": "batching", "bench": "flush_each", "param": 512,
          "before": { "mean_ns": 1.0, "median_ns": 2.0 },
          "after": { "mean_ns": 3.0, "median_ns": 9.9 } },
        { "group": "batching", "bench": "batched", "param": 512,
          "before": { "mean_ns": 271407.7, "median_ns": 274338.2 },
          "after": { "mean_ns": 160218.6, "median_ns": 156023.8, "p99_us": 210.4 } }
      ]
    }"#;

    #[test]
    fn extracts_the_batched_512_after_median() {
        assert_eq!(baseline_after_field(SAMPLE, "median_ns"), Some(156_023.8));
    }

    #[test]
    fn extracts_the_batched_512_after_p99() {
        assert_eq!(baseline_after_field(SAMPLE, "p99_us"), Some(210.4));
    }

    #[test]
    fn missing_row_is_none() {
        assert_eq!(baseline_after_field("{\"rows\": []}", "median_ns"), None);
        assert_eq!(baseline_after_field("", "median_ns"), None);
    }

    #[test]
    fn the_checked_in_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batching.json");
        let json = std::fs::read_to_string(path).expect("baseline present");
        let median = baseline_after_field(&json, "median_ns").expect("batched/512 row present");
        assert!(median > 0.0);
        let p99_us = baseline_after_field(&json, "p99_us").expect("batched/512 p99_us present");
        assert!(p99_us * 1000.0 >= median, "p99 is at least the median");
    }
}
