//! Tiny runs of every workload: the result line parses, names every
//! metric `BENCHMARK.json` lists with its unit, reports no failures, and a
//! forced wrong reply is counted as a failure.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A JSON value, enough for the result line and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return Err(format!("object key at {}", self.i));
                    };
                    self.eat(b':')?;
                    let v = self.value()?;
                    if m.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let start = self.i;
                while self.s.get(self.i).is_some_and(|&c| c != b'"') {
                    if self.s[self.i] == b'\\' {
                        return Err("escapes are not expected here".into());
                    }
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                self.eat(b'"')?;
                Ok(Json::Str(text.to_string()))
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                Err(format!("bad literal at {}", self.i))
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at {start}"))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Parser::parse(&text).expect("BENCHMARK.json parses")
}

/// Run the benchmark; returns exit code, stdout and the parsed last line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let json = Parser::parse(&last).unwrap_or_else(|e| {
        panic!(
            "last line does not parse ({e}): {last}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), stdout, json)
}

/// The result has exactly the four keys, no failures, and every metric
/// of `section` with its unit, and the text report names them too.
fn check_run(workload: &str, trace: bool, section: &str) {
    let (code, stdout, result) = run(workload, trace, &[]);
    assert_eq!(code, 0, "{workload}: exit code\n{stdout}");
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(stdout.contains("metric error_rate = 0 ratio"), "{stdout}");
    assert!(stdout.contains(&format!("workload={workload}")));
    assert!(stdout.contains("seed=5"));

    let bench = benchmark_json();
    let wanted = bench.get(section).arr();
    let metrics = result.get("metrics");
    assert_eq!(
        metrics.keys().len(),
        wanted.len(),
        "{workload}: metric count"
    );
    for spec in wanted {
        let name = spec.get("name").str();
        let unit = spec.get("unit").str();
        let got = metrics.get(name);
        assert_eq!(got.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(got.get("value").num().is_finite(), "{workload}: {name}");
        assert!(
            stdout.contains(&format!("metric {name} = ")),
            "{workload}: text line for {name}"
        );
    }
    if section == "end_to_end" {
        for name in ["latency_p50_us", "cpu_us_per_op", "setup_s"] {
            assert!(metrics.get(name).get("value").num() > 0.0, "{name}");
        }
    }
}

#[test]
fn call_unix_end_to_end() {
    check_run("call_unix", false, "end_to_end");
}

#[test]
fn upcall_unix_end_to_end() {
    check_run("upcall_unix", false, "end_to_end");
}

#[test]
fn batch_tcp_end_to_end() {
    check_run("batch_tcp", false, "end_to_end");
}

#[test]
fn call_unix_per_layer() {
    check_run("call_unix", true, "per_layer");
}

#[test]
fn upcall_unix_per_layer() {
    check_run("upcall_unix", true, "per_layer");
}

#[test]
fn batch_tcp_per_layer() {
    check_run("batch_tcp", true, "per_layer");
}

#[test]
fn forced_wrong_replies_count_as_failures() {
    for workload in ["call_unix", "upcall_unix", "batch_tcp"] {
        let (code, stdout, result) = run(workload, false, &["--inject-faults", "50"]);
        assert_eq!(code, 1, "{workload}: exit code\n{stdout}");
        assert_eq!(result.get("correct"), &Json::Bool(false), "{workload}");
        let failed = result.get("failed").num();
        assert!(failed >= 1.0, "{workload}: failed = {failed}");
        assert!(failed <= result.get("attempted").num());
    }
}

#[test]
fn benchmark_json_names_the_gated_workloads() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, ["upcall_unix", "batch_tcp"]);
    let setup = bench
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
