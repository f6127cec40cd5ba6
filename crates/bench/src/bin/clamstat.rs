//! `clamstat` — run a small CLAM workload and print what the
//! observability layer saw: the metrics delta over the workload and the
//! causal trace trees reconstructed from the event journal.
//!
//! ```text
//! clamstat [--calls N] [--async-calls N] [--upcalls N] [--json PATH] [--journal PATH]
//! ```
//!
//! `--json` writes a machine-readable report (metrics delta + raw
//! events) for CI artifacts; `--journal` dumps the raw event journal as
//! JSON lines, the input format of the cross-process trace stitcher.

use clam_bench::{BenchRig, Echo, ECHO_SERVICE_ID};
use clam_net::Endpoint;
use clam_obs::{Event, EventKind, MetricValue, SpanId, TraceId};
use clam_rpc::Target;
use clam_xdr::Opaque;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Options {
    calls: u32,
    async_calls: u32,
    upcalls: u32,
    cluster_calls: u32,
    json: Option<String>,
    journal: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        calls: 64,
        async_calls: 32,
        upcalls: 8,
        cluster_calls: 4,
        json: None,
        journal: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--calls" => opts.calls = num(&value("--calls")?)?,
            "--async-calls" => opts.async_calls = num(&value("--async-calls")?)?,
            "--upcalls" => opts.upcalls = num(&value("--upcalls")?)?,
            "--cluster-calls" => opts.cluster_calls = num(&value("--cluster-calls")?)?,
            "--json" => opts.json = Some(value("--json")?),
            "--journal" => opts.journal = Some(value("--journal")?),
            "--help" | "-h" => {
                println!(
                    "usage: clamstat [--calls N] [--async-calls N] [--upcalls N] \
                     [--cluster-calls N] [--json PATH] [--journal PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn num(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("clamstat: {e}");
            return ExitCode::FAILURE;
        }
    };

    let before = clam_obs::snapshot();

    // The workload: an in-process server + client exercising every
    // instrumented layer — sync calls, batched async calls, and
    // distributed upcalls back into the client.
    let rig = BenchRig::new(Endpoint::in_proc(format!(
        "clamstat-{}",
        std::process::id()
    )));
    for i in 0..opts.calls {
        if let Err(e) = rig.echo.echo(i) {
            eprintln!("clamstat: echo failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    for i in 0..opts.async_calls {
        let args = Opaque::from(clam_xdr::encode(&(i,)).expect("u32 encodes"));
        if let Err(e) = rig
            .client
            .caller()
            .call_async(Target::Builtin(ECHO_SERVICE_ID), 1, args)
        {
            eprintln!("clamstat: async echo failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = rig.client.caller().flush() {
        eprintln!("clamstat: flush failed: {e}");
        return ExitCode::FAILURE;
    }
    if opts.upcalls > 0 {
        if let Err(e) = rig.echo.run_upcalls(rig.bounce_proc, opts.upcalls) {
            eprintln!("clamstat: upcalls failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.cluster_calls > 0 {
        if let Err(e) = run_cluster_leg(opts.cluster_calls) {
            eprintln!("clamstat: cluster leg failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let delta = clam_obs::snapshot().delta(&before);
    let events = clam_obs::journal().events();

    println!("== clamstat: metrics delta over the workload ==");
    for (name, value) in delta.iter() {
        println!("  {}", metric_line(name, value));
    }

    println!("\n== trace trees ({} journal events) ==", events.len());
    print!("{}", render_forest(&events));

    if let Some(path) = &opts.journal {
        if let Err(e) = clam_obs::journal().dump_to_path(path) {
            eprintln!("clamstat: journal dump failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("journal written to {path}");
    }
    if let Some(path) = &opts.json {
        let mut report = String::from("{\"metrics\":");
        report.push_str(&delta.to_json());
        report.push_str(",\"events\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                report.push(',');
            }
            report.push_str(&ev.to_json());
        }
        report.push_str("]}\n");
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("clamstat: report write failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }
    ExitCode::SUCCESS
}

/// One line of the metrics delta: counters and gauges as numbers,
/// histograms as count, mean and the p50/p99 bucket bounds.
fn metric_line(name: &str, value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(v) => format!("{name:<44} {v}"),
        MetricValue::Gauge(v) => format!("{name:<44} {v} (gauge)"),
        MetricValue::Histogram(h) => {
            let (p50, p99) = h.p50_p99();
            format!(
                "{name:<44} n={} mean={:.1} p50={p50} p99={p99}",
                h.count,
                h.mean()
            )
        }
    }
}

/// The cluster leg of the workload: a two-node fabric where the client
/// only knows the seed, so its first call to the far node's counter is
/// forwarded between the servers (`cluster.forward_hops`) and the rest
/// go direct once the placement cache fills
/// (`cluster.placement_cache.{hit,miss}`). One event posted on the far
/// node exercises the cross-node upcall relay
/// (`cluster.events.{relayed,delivered}`).
fn run_cluster_leg(calls: u32) -> Result<(), clam_rpc::RpcError> {
    use clam_cluster::demo::{self, Counter, CounterProxy};
    use clam_cluster::{ClusterClient, ClusterConfig, ClusterNode};

    let pid = std::process::id();
    let n1 = ClusterNode::start(ClusterConfig::new(
        1,
        Endpoint::in_proc(format!("clamstat-cluster-{pid}-1")),
    ))
    .map_err(clam_rpc::RpcError::from)?;
    let n2 = ClusterNode::start(
        ClusterConfig::new(2, Endpoint::in_proc(format!("clamstat-cluster-{pid}-2")))
            .seed(n1.endpoint().clone()),
    )
    .map_err(clam_rpc::RpcError::from)?;
    demo::install(&n1)?;
    demo::install(&n2)?;

    let client = ClusterClient::connect(n1.endpoint())?;
    let name = demo::counter_name(2);
    for _ in 0..calls {
        let h = client.lookup(&name)?;
        CounterProxy::new(client.caller_for(h), Target::Object(h)).incr(1)?;
        // After the first (forwarded) success the client opens the
        // direct connection; later rounds skip the fabric.
        let _ = client.client_for_node(h.home);
    }

    client.subscribe("clamstat", |_, _| Ok(1))?;
    client.post_via(n2.id(), "clamstat", "cluster leg")?;

    n2.shutdown();
    n1.shutdown();
    Ok(())
}

/// One reconstructed node: what the journal knows about a span.
#[derive(Default)]
struct Node {
    parent: SpanId,
    label: String,
    start_us: Option<u64>,
    end_us: Option<u64>,
    children: Vec<SpanId>,
}

/// Render every trace in `events` as an indented tree, oldest trace
/// first. Spans are joined on ids, so events from several processes'
/// journals can be concatenated and stitched here.
fn render_forest(events: &[Event]) -> String {
    let mut traces: BTreeMap<TraceId, BTreeMap<SpanId, Node>> = BTreeMap::new();
    let mut order: Vec<TraceId> = Vec::new();
    for ev in events {
        if ev.trace == TraceId::NONE {
            continue;
        }
        if !traces.contains_key(&ev.trace) {
            order.push(ev.trace);
        }
        let node = traces
            .entry(ev.trace)
            .or_default()
            .entry(ev.span)
            .or_default();
        match ev.kind {
            EventKind::CallStart => {
                node.parent = ev.parent;
                node.label = format!("call method={}", ev.code);
                node.start_us = Some(ev.t_us);
            }
            EventKind::CallEnd => node.end_us = Some(ev.t_us),
            EventKind::UpcallSent => {
                node.parent = ev.parent;
                node.label = format!("upcall proc={}", ev.code);
                node.start_us = Some(ev.t_us);
            }
            EventKind::UpcallExit => node.end_us = Some(ev.t_us),
            EventKind::ServerDispatch => {
                if node.label.is_empty() {
                    node.label = format!("dispatch method={}", ev.code);
                }
            }
            EventKind::UpcallEnter => {
                if node.label.is_empty() {
                    node.label = format!("upcall proc={}", ev.code);
                }
            }
            EventKind::FaultInjected | EventKind::DeadlineFired | EventKind::AcceptError => {}
        }
    }

    let mut out = String::new();
    for trace in order {
        let mut spans = traces.remove(&trace).unwrap_or_default();
        let ids: Vec<SpanId> = spans.keys().copied().collect();
        let mut roots = Vec::new();
        for id in ids {
            let parent = spans[&id].parent;
            if parent != SpanId::NONE && spans.contains_key(&parent) {
                spans
                    .get_mut(&parent)
                    .expect("parent present")
                    .children
                    .push(id);
            } else {
                roots.push(id);
            }
        }
        out.push_str(&format!("trace {}\n", trace.to_hex()));
        for root in roots {
            render_span(&spans, root, 1, &mut out);
        }
    }
    out
}

fn render_span(spans: &BTreeMap<SpanId, Node>, id: SpanId, depth: usize, out: &mut String) {
    let node = &spans[&id];
    let label = if node.label.is_empty() {
        "span"
    } else {
        &node.label
    };
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!("{} [{}]", label, id.to_hex()));
    if let (Some(s), Some(e)) = (node.start_us, node.end_us) {
        out.push_str(&format!(" {}us", e.saturating_sub(s)));
    }
    out.push('\n');
    for child in &node.children {
        render_span(spans, *child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_line_prints_the_p50_and_p99_buckets() {
        let registry = clam_obs::Registry::new();
        let h = registry.histogram("lat");
        for _ in 0..90 {
            h.observe(40); // bucket [32, 64)
        }
        for _ in 0..10 {
            h.observe(5000); // bucket [4096, 8192)
        }
        let snap = registry.snapshot();
        let value = MetricValue::Histogram(snap.histogram("lat").expect("histogram").clone());
        let line = metric_line("lat", &value);
        assert!(
            line.ends_with(" n=100 mean=536.0 p50=63 p99=8191"),
            "got {line:?}"
        );
    }
}
