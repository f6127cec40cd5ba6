//! Paired runs of two built perfbench binaries: N alternating pairs per
//! workload, both sides of a pair on one seed, the side that goes first
//! alternating. It reads each run's `metric <name> = <value> <unit>`
//! lines, prints each side's median and quartiles and the pairs the
//! change won per workload and metric, and writes the pairs' values and
//! that summary as a flat JSON array, one row per workload and metric.
//! Exits 1 if a run fails or prints no metrics.
//!
//! Usage: `paired --parent BIN --change BIN [--pairs N] [--seconds S]
//! [--seed S] [--workloads a,b] [--out FILE]`. Defaults: 10 pairs of 10 s
//! runs from seed 1000, `batch_tcp,upcall_unix`, `BENCH_paired.json`.

use std::collections::BTreeMap;
use std::process::Command;

/// Metrics where a larger value is better; every other one is lower-better.
const HIGHER_IS_BETTER: [&str; 3] = [
    "throughput_ops_s",
    "xdr.pool_hit_ratio",
    "rpc.calls_per_flush",
];

/// One side's values of one metric, in pair order, with the metric's unit.
type Series = BTreeMap<(String, String), (String, Vec<f64>)>;

/// A metric's name, value and unit.
type Metric = (String, f64, String);

/// The `metric <name> = <value> <unit>` lines of a perfbench run.
fn parse_metrics(stdout: &str) -> Vec<Metric> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("metric ")?.split_whitespace();
            let (name, eq, value) = (words.next()?, words.next()?, words.next()?);
            let unit = words.next().unwrap_or("");
            (eq == "=").then_some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect()
}

/// The `q` quantile of `values`, interpolated between the two nearest ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// `v` to four significant digits, or six decimals if that is fewer.
fn sig(v: f64) -> String {
    let decimals = (3.0 - v.abs().log10().floor()).clamp(0.0, 6.0) as usize;
    format!("{v:.decimals$}")
}

/// Pairs in which `change` beat `parent` on `metric`.
fn wins(metric: &str, parent: &[f64], change: &[f64]) -> usize {
    let higher = HIGHER_IS_BETTER.contains(&metric);
    let won = |(p, c): (&f64, &f64)| if higher { c > p } else { c < p };
    parent.iter().zip(change).filter(|&pair| won(pair)).count()
}

/// Run `bin` once; its metrics, or why the run failed.
fn run(bin: &str, workload: &str, seed: u64, seconds: &str) -> Result<Vec<Metric>, String> {
    let args = format!("--workload {workload} --seed {seed} --seconds {seconds} --trace 0");
    let out = Command::new(bin)
        .args(args.split(' '))
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    let metrics = parse_metrics(&String::from_utf8_lossy(&out.stdout));
    if !out.status.success() || metrics.is_empty() {
        return Err(format!("{bin} {args}: {}", out.status));
    }
    Ok(metrics)
}

fn main() -> std::process::ExitCode {
    let (mut opts, mut args) = (BTreeMap::new(), std::env::args().skip(1));
    while let (Some(flag), Some(value)) = (args.next(), args.next()) {
        opts.insert(flag.trim_start_matches("--").to_string(), value);
    }
    let opt = |name: &str, default: &str| opts.get(name).map_or(default.to_string(), String::clone);
    let (seconds, out) = (opt("seconds", "10"), opt("out", "BENCH_paired.json"));
    let (Some(parent), Some(change), Ok(pairs), Ok(seed)) = (
        opts.get("parent"),
        opts.get("change"),
        opt("pairs", "10").parse::<u64>(),
        opt("seed", "1000").parse::<u64>(),
    ) else {
        eprintln!("usage: paired --parent BIN --change BIN [--pairs N] [--seconds S] [--seed S] [--workloads a,b] [--out FILE]");
        return std::process::ExitCode::from(2);
    };
    let (mut sides, mut failed) = ([Series::new(), Series::new()], false);
    for workload in opt("workloads", "batch_tcp,upcall_unix").split(',') {
        for pair in 0..pairs {
            // Even pairs run the parent first, odd pairs the change.
            for side in [pair % 2, 1 - pair % 2] {
                let bin = [parent, change][side as usize];
                match run(bin, workload, seed + pair, &seconds) {
                    Ok(metrics) => {
                        for (name, value, unit) in metrics {
                            let key = (workload.to_string(), name);
                            let series = sides[side as usize].entry(key);
                            series.or_insert((unit, Vec::new())).1.push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("paired: {e}");
                        failed = true;
                    }
                }
            }
        }
    }
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<28} {:>26} {:>26} {:>5}",
        "workload", "metric", "parent p50 [q1, q3]", "change p50 [q1, q3]", "wins"
    );
    for ((workload, metric), (unit, parent)) in &sides[0] {
        let Some((_, change)) = sides[1].get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let won = wins(metric, parent, change);
        let q = |v: &[f64]| [0.5, 0.25, 0.75].map(|q| quantile(v, q));
        let (pq, cq, n) = (q(parent), q(change), parent.len().min(change.len()));
        let [p, c] =
            [pq, cq].map(|[m, q1, q3]| format!("{:>10} [{}, {}]", sig(m), sig(q1), sig(q3)));
        println!("{workload:<12} {metric:<28} {p:>26} {c:>26} {won:>2}/{n}");
        let ([pm, p1, p3], [cm, c1, c3]) = (pq, cq);
        let better = ["lower", "higher"][usize::from(HIGHER_IS_BETTER.contains(&metric.as_str()))];
        rows.push(format!(
            "{{\"workload\": \"{workload}\", \"metric\": \"{metric}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"seconds\": {seconds}, \"first_seed\": {seed}, \"parent\": {parent:?}, \"change\": {change:?}, \
             \"parent_median\": {pm}, \"parent_q1\": {p1}, \"parent_q3\": {p3}, \
             \"change_median\": {cm}, \"change_q1\": {c1}, \"change_q3\": {c3}, \"wins\": {won}}}"
        ));
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("paired: {out}: {e}");
        failed = true;
    }
    std::process::ExitCode::from(u8::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_metric_lines_and_nothing_else() {
        let out = "perfbench workload=batch_tcp\nmetric latency_p50_us = 31.5 us\n\
                   checks: attempted=3 failed=0\nmetric error_rate = 0 ratio\nmetric broken = x us\n{\"metric\": 1}";
        let got = parse_metrics(out);
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0],
            ("latency_p50_us".to_string(), 31.5, "us".to_string())
        );
        assert_eq!(got[1].0, "error_rate");
    }

    #[test]
    fn quartiles_interpolate_and_wins_follow_the_metric_direction() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!([0.25, 0.5, 0.75].map(|q| quantile(&v, q)), [2.0, 3.0, 4.0]);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(
            [0.000_261_7, 35.35, 1_827_565.5, 0.0].map(sig),
            ["0.000262", "35.35", "1827566", "0.000000"]
        );
        assert_eq!(
            wins("latency_p50_us", &[2.0, 2.0, 2.0], &[1.0, 3.0, 2.0]),
            1
        );
        assert_eq!(
            wins("throughput_ops_s", &[2.0, 2.0, 2.0], &[1.0, 3.0, 2.0]),
            1
        );
        assert_eq!(wins("throughput_ops_s", &[2.0, 2.0], &[3.0, 4.0]), 2);
    }
}
