//! perfbench: the clam-rs benchmark.
//!
//! One command runs one closed-loop workload from a single process that
//! holds an in-process `ClamServer` and one `ClamClient`:
//!
//! * `call_unix`: back-to-back synchronous `echo(x)` calls over unix;
//! * `upcall_unix`: trigger calls that each make the server perform 16
//!   synchronous distributed upcalls into the client over unix;
//! * `batch_tcp`: rounds of n async calls, one flush and one sync barrier
//!   over tcp, n drawn from {1, 8, 64, 512}.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload call_unix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that records spans around each call into a layer and prints the
//! per-layer metrics. Every run prints all metrics it computed as
//! `metric <name> = <value> <unit>` lines, then one JSON object as its
//! last line. Every reply is checked; the command exits 1 when a check
//! fails and 2 on a usage or set-up error.

mod floor;
mod probes;
mod rig;
mod stats;
mod trace;
mod workload;

use rig::{Rig, ServiceState, SetupTimes};
use stats::{median_secs, quantile, quantile_sorted, rss_kb};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use workload::{Inputs, Runner, Workload, UPCALLS_PER_TRIGGER};

/// Set-ups per run; `setup_s` is their median. Single set-ups vary from
/// 0.3 ms to over 10 ms on a shared machine, so it takes this many for the
/// median to repeat between runs.
const SETUPS: usize = 41;
/// Raw and channel ping-pongs per floor measurement (taken twice).
const FLOOR_ROUNDS: usize = 4_000;
/// The timed loop counts ops per slice of this length; the traced run
/// traces every other slice and compares their median rates.
const SLICE: Duration = Duration::from_millis(100);
/// Spans kept in memory by the traced run.
const TRACE_CAPACITY: usize = 256 * 1024;
/// Sample slots reserved per second of run.
const SAMPLES_PER_SEC: f64 = 100_000.0;
/// Work the traced run's probes do for operations its workload lacks.
const PROBE_TRIGGERS: usize = 64;
const PROBE_ROUNDS: usize = 100;
const HANDOFF_ROUNDS: usize = 4_000;
/// Operations run before the timed window.
const WARMUP_OPS: u64 = 2_000;
/// Where sockets and the trace file go, relative to the working
/// directory.
const RUN_DIR: &str = ".perfbench";

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Corrupt every n-th reply (checks the benchmark's own checks).
    inject_faults: u64,
}

const USAGE: &str = "usage: perfbench --workload call_unix|upcall_unix|batch_tcp --seed N \
                     --seconds S --trace 0|1 [--inject-faults N]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut inject) =
            (None, None, None, None, 0);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
            match flag.as_str() {
                "--workload" => workload = Workload::parse(&value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                },
                "--inject-faults" => inject = value.parse::<u64>().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is missing or unknown")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            inject_faults: inject,
        })
    }
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [&str; 3] = ["latency_p50_us", "cpu_us_per_op", "setup_s"];

/// Per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 31] = [
    "throughput_ops_s",
    "latency_p90_us",
    "latency_p99_us",
    "overhead_over_floor_p50_us",
    "xdr.encode_ns",
    "xdr.pool_hit_ratio",
    "net.floor_rtt_p50_us",
    "net.channel_rtt_p50_us",
    "net.frames_per_op",
    "net.bytes_per_op",
    "task.handoff_p50_us",
    "task.switches_per_op",
    "task.spawned_per_op",
    "rpc.request_path_p50_us",
    "rpc.reply_path_p50_us",
    "rpc.drift_ratio",
    "rpc.call_async_ns",
    "rpc.flush_us",
    "rpc.barrier_us",
    "rpc.calls_per_flush",
    "rpc.deadline_expired",
    "core.upcall_down_p50_us",
    "core.upcall_up_p50_us",
    "core.upcalls_per_op",
    "core.connect_ms",
    "obs.histogram_lookup_ns",
    "obs.observe_ns",
    "obs.journal_record_ns",
    "obs.tracing_overhead_pct",
    "rss_growth_kb_per_kop",
    "error_rate",
];

/// What the timed loop measured.
#[derive(Default)]
struct LoopStats {
    ops: u64,
    failed: u64,
    sync_calls: u64,
    elapsed: Duration,
    /// Per-operation latencies in ns, in order.
    latencies: Vec<u64>,
    latencies_dropped: u64,
    rss_growth_kb: i64,
    /// Process CPU time used by the loop.
    cpu: Duration,
    counters: clam_obs::MetricsSnapshot,
    /// `(ops, seconds, traced)` of each slice of the loop.
    slices: Vec<(u64, f64, bool)>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload; `Ok(correct)` once the result line is printed.
fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let transport = workload.transport();
    let dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {RUN_DIR}: {e}"))?;
    let inputs = Inputs::generate(args.seed);
    println!(
        "perfbench workload={} transport={} seed={} seconds={} trace={} cpus={}",
        workload.name(),
        transport.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    );
    println!(
        "inputs: {} seeded args, {} seeded round sizes, {} upcalls per trigger; one op = one {}",
        inputs.args.len(),
        inputs.batch_sizes.len(),
        UPCALLS_PER_TRIGGER,
        workload.op_name()
    );

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let sample_cap = (args.seconds * SAMPLES_PER_SEC) as usize + 1024;
    let state = ServiceState::new(args.inject_faults, sample_cap);
    if args.trace {
        trace::install(TRACE_CAPACITY);
    }

    // Set up several times; keep the last rig.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for tag in 0..SETUPS {
        if let Some(old) = rig.take() {
            Rig::stop(old);
        }
        let (r, t) = Rig::start(transport, &dir, tag, &state)?;
        setups.push(t);
        rig = Some(r);
    }
    let rig = rig.expect("at least one set-up");
    let setup_s = median_secs(&setups.iter().map(|s| s.total).collect::<Vec<_>>());
    let connect_ms = median_secs(&setups.iter().map(|s| s.connect).collect::<Vec<_>>()) * 1e3;
    let mut setup_us: Vec<u128> = setups.iter().map(|s| s.total.as_micros()).collect();
    setup_us.sort_unstable();
    println!(
        "setup: {} set-ups, min {} us, median {:.0} us, max {} us",
        setups.len(),
        setup_us[0],
        setup_s * 1e6,
        setup_us[setup_us.len() - 1]
    );

    let payload = echo_frame_bytes(&rig, transport)?;
    let mut raw = floor::raw_rtts(transport, payload, FLOOR_ROUNDS)?;
    let mut chan = floor::channel_rtts(transport, &dir, payload, FLOOR_ROUNDS)?;

    let mut runner = Runner::new(&rig, &inputs);
    // A fixed amount of warm-up work, so every run starts its timed
    // window from the same program state (pools filled, deadlines armed).
    let mut warm = workload::Step::default();
    while warm.ops < WARMUP_OPS {
        let s = runner.step(workload);
        warm.ops += s.ops;
        warm.failed += s.failed;
    }
    let handled_before = rig.handled.load(Ordering::Relaxed);
    let dispatched_before = rig.client_upcalls();
    let stats = timed_loop(&mut runner, workload, args, &state, sample_cap);
    let handled = rig.handled.load(Ordering::Relaxed) - handled_before;
    let dispatched = rig.client_upcalls() - dispatched_before;

    raw.extend(floor::raw_rtts(transport, payload, FLOOR_ROUNDS)?);
    chan.extend(floor::channel_rtts(transport, &dir, payload, FLOOR_ROUNDS)?);

    // Beyond each reply: the benchmark's handler and the client runtime
    // each ran exactly the upcalls the server invoked.
    let mut failed = stats.failed + warm.failed;
    let attempted = stats.ops + warm.ops;
    if workload == Workload::UpcallUnix {
        let invoked = stats.ops;
        if handled != invoked || dispatched != invoked {
            println!(
                "check failed: server invoked {invoked} upcalls, handler ran {handled}, \
                 client dispatched {dispatched}"
            );
            failed = failed.max(1);
        }
    }
    let correct = failed == 0 && stats.ops > 0;

    // End-to-end metrics.
    let mut lat = stats.latencies.clone();
    lat.sort_unstable();
    let p50 = quantile_sorted(&lat, 0.5) / 1e3;
    let floor_p50 = quantile(&raw, 0.5) / 1e3;
    #[allow(clippy::cast_precision_loss)]
    let kops = stats.ops as f64 / 1e3;
    #[allow(clippy::cast_precision_loss)]
    let mut metrics = vec![
        m(
            "throughput_ops_s",
            stats.ops as f64 / stats.elapsed.as_secs_f64(),
            "1/s",
        ),
        m("latency_p50_us", p50, "us"),
        m(
            "cpu_us_per_op",
            stats.cpu.as_secs_f64() * 1e6 / stats.ops.max(1) as f64,
            "us",
        ),
        m("latency_p90_us", quantile_sorted(&lat, 0.90) / 1e3, "us"),
        m("latency_p99_us", quantile_sorted(&lat, 0.99) / 1e3, "us"),
        m("overhead_over_floor_p50_us", p50 - floor_p50, "us"),
        m("setup_s", setup_s, "s"),
        m(
            "rss_growth_kb_per_kop",
            stats.rss_growth_kb as f64 / kops.max(1e-9),
            "kB/kop",
        ),
        m(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        m("net.floor_rtt_p50_us", floor_p50, "us"),
        m("net.channel_rtt_p50_us", quantile(&chan, 0.5) / 1e3, "us"),
        m("rpc.drift_ratio", drift_ratio(&stats.latencies), "ratio"),
        m("core.connect_ms", connect_ms, "ms"),
    ];
    metrics.extend(counter_metrics(&stats));

    println!(
        "samples: {} ops in {:.3} s ({} warm-up ops), {} sync calls, {} latency samples ({} dropped), \
         {} raw-floor and {} channel-floor round trips of {payload} B, {} set-ups",
        stats.ops,
        stats.elapsed.as_secs_f64(),
        warm.ops,
        stats.sync_calls,
        stats.latencies.len(),
        stats.latencies_dropped,
        raw.len(),
        chan.len(),
        setups.len()
    );
    println!("checks: attempted={attempted} failed={failed} upcalls_handled={handled}");

    if args.trace {
        metrics.extend(traced_metrics(&mut runner, workload, &stats)?);
    }
    drop(runner);

    for metric in &metrics {
        println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
    }
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_json(correct, attempted, failed, &metrics, wanted)?
    );
    Rig::stop(rig);
    Ok(correct)
}

/// Run `workload` for `args.seconds`, recording latencies, RSS growth,
/// counter deltas and the op rate of each [`SLICE`]. The traced run
/// traces every other slice.
fn timed_loop(
    runner: &mut Runner<'_>,
    workload: Workload,
    args: &Args,
    state: &ServiceState,
    sample_cap: usize,
) -> LoopStats {
    let mut latencies = stats::resident_vec(sample_cap, 1u64);
    latencies.clear();
    let mut st = LoopStats::default();
    let rss0 = rss_kb();
    let cpu0 = stats::cpu_time();
    let before = clam_obs::snapshot();
    state.sampling.store(true, Ordering::Relaxed);
    let limit = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut slice_started = started;
    let mut slice_ops = 0u64;
    let mut tracing = false;
    loop {
        let slice_secs = slice_started.elapsed();
        let done = started.elapsed() >= limit;
        if slice_secs >= SLICE || done {
            if slice_ops > 0 {
                st.slices
                    .push((slice_ops, slice_secs.as_secs_f64(), tracing));
            }
            slice_ops = 0;
            slice_started = Instant::now();
            if args.trace {
                // Stop tracing once the span buffer is full, so every
                // traced slice really recorded its spans.
                tracing = !tracing && trace::dropped() == 0;
                trace::set_on(tracing);
            }
        }
        if done {
            break;
        }
        let s = runner.step(workload);
        st.ops += s.ops;
        st.failed += s.failed;
        st.sync_calls += s.sync_calls;
        slice_ops += s.ops;
        if workload != Workload::UpcallUnix {
            if latencies.len() < latencies.capacity() {
                latencies.push(s.ns);
            } else {
                st.latencies_dropped += 1;
            }
        }
    }
    st.elapsed = started.elapsed();
    trace::set_on(false);
    state.sampling.store(false, Ordering::Relaxed);
    st.counters = clam_obs::snapshot().delta(&before);
    #[allow(clippy::cast_possible_wrap)]
    {
        st.rss_growth_kb = rss_kb() as i64 - rss0 as i64;
        st.cpu = stats::cpu_time().saturating_sub(cpu0);
    }
    st.latencies = if workload == Workload::UpcallUnix {
        // Upcall latency is the server-side `invoke` of one upcall.
        state.take_invoke_ns()
    } else {
        latencies
    };
    st
}

/// Median op rate over the slices with the given tracing state.
fn median_rate(slices: &[(u64, f64, bool)], traced: bool) -> f64 {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rates: Vec<u64> = slices
        .iter()
        .filter(|s| s.2 == traced)
        .map(|s| (s.0 as f64 / s.1 * 1e3) as u64)
        .collect();
    quantile(&rates, 0.5) / 1e3
}

/// Bytes per frame of one echo call round trip (request and reply), the
/// payload size the floors ping-pong.
fn echo_frame_bytes(rig: &Rig, transport: rig::Transport) -> Result<usize, String> {
    let kind = transport.name();
    let before = clam_obs::snapshot();
    rig.echo_raw(7).map_err(|e| format!("echo: {e}"))?;
    let d = clam_obs::snapshot().delta(&before);
    let frames = d.counter(&format!("net.frames_sent.{kind}")).max(1);
    let bytes = d.counter(&format!("net.bytes_sent.{kind}"));
    let per_frame = bytes / frames;
    // The wire bytes include the 4-byte frame length prefix.
    usize::try_from(
        per_frame
            .saturating_sub(clam_net::FRAME_PREFIX_LEN as u64)
            .max(1),
    )
    .map_err(|e| e.to_string())
}

/// p50 of the last tenth of `samples` over the p50 of the first tenth.
fn drift_ratio(samples: &[u64]) -> f64 {
    let tenth = samples.len() / 10;
    if tenth == 0 {
        return 1.0;
    }
    let first = quantile(&samples[..tenth], 0.5);
    let last = quantile(&samples[samples.len() - tenth..], 0.5);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Per-operation ratios from the clam-obs counter deltas of the loop.
#[allow(clippy::cast_precision_loss)]
fn counter_metrics(st: &LoopStats) -> Vec<Metric> {
    let c = &st.counters;
    let ops = st.ops.max(1) as f64;
    let sum = |prefix: &str| -> u64 {
        c.iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| c.counter(name))
            .sum()
    };
    let hits = c.counter("xdr.pool.hits");
    let misses = c.counter("xdr.pool.misses");
    let flushes =
        c.counter("rpc.flush.sync") + c.counter("rpc.flush.calls") + c.counter("rpc.flush.bytes");
    vec![
        m(
            "xdr.pool_hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            "ratio",
        ),
        m(
            "net.frames_per_op",
            sum("net.frames_sent.") as f64 / ops,
            "count",
        ),
        m("net.bytes_per_op", sum("net.bytes_sent.") as f64 / ops, "B"),
        m(
            "task.switches_per_op",
            c.counter("task.context_switches") as f64 / ops,
            "count",
        ),
        m(
            "task.spawned_per_op",
            c.counter("task.tasks_spawned") as f64 / ops,
            "count",
        ),
        m(
            "rpc.calls_per_flush",
            c.counter("rpc.calls_async") as f64 / flushes.max(1) as f64,
            "count",
        ),
        m(
            "rpc.deadline_expired",
            c.counter("rpc.deadline_expired") as f64,
            "count",
        ),
        m(
            "core.upcalls_per_op",
            c.counter("core.upcall.remote") as f64 / ops,
            "count",
        ),
    ]
}

/// The traced run's span-derived metrics and layer probes. Operations
/// the workload lacks (upcalls, batch rounds) get a short traced probe
/// on the same rig, so every per-layer metric is measured.
fn traced_metrics(
    runner: &mut Runner<'_>,
    workload: Workload,
    st: &LoopStats,
) -> Result<Vec<Metric>, String> {
    let main_issue = std::mem::take(&mut runner.issue);
    trace::set_main(false);
    trace::set_on(true);
    let mut probe_failed = 0;
    if workload != Workload::UpcallUnix {
        for _ in 0..PROBE_TRIGGERS {
            probe_failed += runner.trigger().failed;
        }
    }
    if workload != Workload::BatchTcp {
        for _ in 0..PROBE_ROUNDS {
            probe_failed += runner.round().failed;
        }
    }
    trace::set_on(false);
    if probe_failed != 0 {
        return Err(format!("{probe_failed} probe operations failed"));
    }
    let issue = if workload == Workload::BatchTcp {
        main_issue
    } else {
        std::mem::take(&mut runner.issue)
    };

    let spans = trace::take();
    let path = Path::new(RUN_DIR).join(format!("trace-{}.jsonl", workload.name()));
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    trace::write_jsonl(&mut out, &spans)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // Spans of the main loop where it has them, else of the probes.
    let durations = |name: &str| -> Vec<u64> {
        let pick = |main: bool| -> Vec<u64> {
            spans
                .iter()
                .filter(|s| s.name == name && s.main == main)
                .map(trace::Span::dur)
                .collect()
        };
        let d = pick(true);
        if d.is_empty() {
            pick(false)
        } else {
            d
        }
    };
    let p50_us = |name: &str| quantile(&durations(name), 0.5) / 1e3;
    let encode_ns = if workload == Workload::BatchTcp {
        quantile(&issue.encode_ns, 0.5)
    } else {
        quantile(&durations("xdr.encode"), 0.5)
    };

    let main_ops: u64 = spans.iter().filter(|s| s.main && s.parent == 0).count() as u64;
    println!(
        "trace: {} spans ({} dropped) of {} traced main-loop steps, written to {}",
        spans.len(),
        trace::dropped(),
        main_ops,
        path.display()
    );
    let main_spans: Vec<trace::Span> = spans.iter().filter(|s| s.main).copied().collect();
    let traced_ops = st
        .slices
        .iter()
        .filter(|s| s.2)
        .map(|s| s.0)
        .sum::<u64>()
        .max(1);
    let layers: Vec<String> = trace::self_time_by_layer(&main_spans)
        .into_iter()
        .map(|(layer, ns)| {
            #[allow(clippy::cast_precision_loss)]
            let us = ns as f64 / 1e3 / traced_ops as f64;
            format!("{layer}={us:.3}")
        })
        .collect();
    println!(
        "self time per op in traced slices (us): {}",
        layers.join(" ")
    );

    let handoffs = probes::task_handoffs(HANDOFF_ROUNDS)?;
    let obs = probes::obs_costs();
    let traced_rate = median_rate(&st.slices, true);
    let untraced_rate = median_rate(&st.slices, false);
    let overhead_pct = if traced_rate > 0.0 && untraced_rate > 0.0 {
        (1.0 - traced_rate / untraced_rate) * 100.0
    } else {
        0.0
    };
    println!(
        "tracing overhead: median slice rate traced {traced_rate:.1}/s, untraced {untraced_rate:.1}/s"
    );
    Ok(vec![
        m("xdr.encode_ns", encode_ns, "ns"),
        m("task.handoff_p50_us", quantile(&handoffs, 0.5) / 1e3, "us"),
        m("rpc.request_path_p50_us", p50_us("rpc.request_path"), "us"),
        m("rpc.reply_path_p50_us", p50_us("rpc.reply_path"), "us"),
        m(
            "rpc.call_async_ns",
            quantile(&issue.call_async_ns, 0.5),
            "ns",
        ),
        m("rpc.flush_us", p50_us("rpc.flush"), "us"),
        m("rpc.barrier_us", p50_us("rpc.barrier"), "us"),
        m("core.upcall_down_p50_us", p50_us("core.upcall_down"), "us"),
        m("core.upcall_up_p50_us", p50_us("core.upcall_up"), "us"),
        m("obs.histogram_lookup_ns", obs.histogram_lookup, "ns"),
        m("obs.observe_ns", obs.observe, "ns"),
        m("obs.journal_record_ns", obs.journal_record, "ns"),
        m("obs.tracing_overhead_pct", overhead_pct, "%"),
    ])
}

/// The result line: `correct`, `attempted`, `failed` and the `wanted`
/// metrics with their units.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    wanted: &[&str],
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(wanted.len());
    for name in wanted {
        let metric = metrics
            .iter()
            .find(|x| x.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        parts.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}
