//! The repository's benchmark: four workloads, each checked end to end.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `byz-latency-tcp` — loopback TCP, node 0 equivocates, node 1
//!   withholds; 4 closed-loop writers and 2 readers at `batch_cap` 1. The
//!   withholder makes every exchange wait out Δ.
//! * `bulk-durable-mem` — mem-mesh, all honest, durable gateways, 4
//!   writers with 32 deposits outstanding each at `batch_cap` 32. The
//!   round is CPU: batch validation, frames, WAL fsync, reply fan-out.
//! * `coded-n64` — in-process `N = 64`, `b = 16`, `K = 32` coded cluster;
//!   all time is algebra, codebook, RS decode and INTERMIX. It runs on
//!   request but is not listed in `BENCHMARK.json`: on a shared 2-core
//!   host its single-thread round time moves by a quarter between runs
//!   minutes apart, as other tenants come and go, which is wider than
//!   any bound the benchmark allows. Its layers are timed and its field
//!   operations counted in every traced run, whatever the workload.
//! * `crash-rejoin-mem` — mem-mesh, durable, node 0 withholds; honest
//!   node 5 is killed after rounds it led and restarted on its store.
//!
//! Every run verifies its outputs. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The `record` line before it carries every metric with its
//! sample count plus the run's stamp (seed, revision, host, `nproc`).

mod coded;
mod gen;
mod live;
mod stats;

use csm_node::BehaviorKind;
use live::LiveSpec;
use stats::{json_number, json_string, MetricSet};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics in the final line, measured on every workload.
const END_TO_END: [&str; 4] = ["write_p50_ms", "write_p90_ms", "writes_per_s", "setup_s"];

/// Per-layer metrics in the final line of a traced run. A layer a
/// workload does not have reads 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("client.first_reply_ms", "ms"),
    ("client.quorum_wait_ms", "ms"),
    ("client.resends_per_kop", "1/kop"),
    ("transport.frames_per_write", "count"),
    ("transport.bytes_per_write", "B"),
    ("transport.send_us_p50", "us"),
    ("transport.send_us_p99", "us"),
    ("transport.mac_rejected", "count"),
    ("gateway.round_ms_p50", "ms"),
    ("gateway.round_ms_p99", "ms"),
    ("gateway.batch_size_mean", "count"),
    ("gateway.reply_ms", "ms"),
    ("gateway.empty_round_frac", "ratio"),
    ("gateway.admission_drops", "count"),
    ("gateway.unattributed_ms", "ms"),
    ("consensus.ms_p50", "ms"),
    ("consensus.ms_p99", "ms"),
    ("consensus.view_changes", "count"),
    ("engine.exchange_ms", "ms"),
    ("engine.exchange_slack_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.decode_ms", "ms"),
    ("storage.wal_fsync_ms_p50", "ms"),
    ("storage.wal_fsync_ms_p99", "ms"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.snapshots", "count"),
    ("recovery.startup_ms", "ms"),
    ("recovery.first_commit_ms", "ms"),
    ("recovery.wal_replayed", "count"),
    ("recovery.chunks_rejected", "count"),
    ("codebook.encode_us", "us"),
    ("rs.decode_us", "us"),
    ("intermix.verify_us", "us"),
    ("statemachine.apply_us", "us"),
    ("algebra.mul_ns", "ns"),
    ("algebra.inv_ns", "ns"),
    ("ops.encoding", "count"),
    ("ops.transition", "count"),
    ("ops.decoding", "count"),
    ("ops.state_update", "count"),
    ("ops.node_mean", "count"),
    ("ops.node_max", "count"),
    ("ops.lambda", "ratio"),
    ("trace.overhead_pct", "%"),
    // the same run's end-to-end view, for the reconciliation
    ("traced.write_p50_ms", "ms"),
    ("traced.write_p90_ms", "ms"),
    ("traced.write_p99_ms", "ms"),
    ("traced.writes_per_s", "1/s"),
    ("traced.read_p50_ms", "ms"),
    ("traced.read_p99_ms", "ms"),
    ("traced.rejoin_ms", "ms"),
    ("traced.setup_s", "s"),
    ("traced.failed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn live_spec(workload: &str) -> Option<LiveSpec> {
    match workload {
        "byz-latency-tcp" => Some(LiveSpec {
            tcp: true,
            batch_cap: 1,
            depth: 1,
            readers: 2,
            snapshot_interval: None,
            byzantine: vec![(0, BehaviorKind::Equivocate), (1, BehaviorKind::Withhold)],
            victim: None,
        }),
        "bulk-durable-mem" => Some(LiveSpec {
            tcp: false,
            batch_cap: 32,
            depth: 32,
            readers: 0,
            snapshot_interval: Some(64),
            byzantine: Vec::new(),
            victim: None,
        }),
        "crash-rejoin-mem" => Some(LiveSpec {
            tcp: false,
            batch_cap: 1,
            depth: 1,
            readers: 0,
            snapshot_interval: Some(16),
            // a durable equivocator resyncs itself every few seconds, and a
            // resync over its turn as PBFT primary costs every client a
            // ~0.7 s view change: 2 to 8 per run, which swamps the rejoin
            // signal. A withholder keeps node 0 Byzantine without that.
            byzantine: vec![(0, BehaviorKind::Withhold)],
            victim: Some(5),
        }),
        _ => None,
    }
}

/// The checkout's revision, read from `.git` in the working directory.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
                    .ok_or(std::io::Error::other("ref not packed"))
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn host() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .map_or_else(|| "unknown".into(), |h| h.trim().to_string())
}

/// Lays the write path's layer p50s beside the traced `write_p50_ms`.
fn reconcile(workload: &str, layers: &MetricSet) -> String {
    let get = |n: &str| layers.get(n).unwrap_or(0.0);
    let parts = [
        "consensus.ms_p50",
        "engine.execute_ms",
        "engine.exchange_ms",
        "engine.decode_ms",
        "storage.wal_fsync_ms_p50",
        "gateway.reply_ms",
        "gateway.unattributed_ms",
        "client.quorum_wait_ms",
    ];
    let mut out = format!(
        "reconcile {workload}: traced write_p50_ms {:.3}\n",
        get("traced.write_p50_ms")
    );
    let mut sum = 0.0;
    for p in parts {
        sum += get(p);
        out.push_str(&format!("reconcile   {p:<26} {:>10.3} ms\n", get(p)));
    }
    let residual = get("traced.write_p50_ms") - sum;
    out.push_str(&format!(
        "reconcile   {:<26} {:>10.3} ms\nreconcile   {:<26} {:>10.3} ms (admission wait for the next round, generator)\n",
        "sum of layers", sum, "unexplained residual", residual
    ));
    let round = get("gateway.round_ms_p50");
    if round > 0.0 {
        out.push_str(&format!(
            "reconcile   exchange / round = {:.3} (exchange {:.3} ms of a {:.3} ms round)\n",
            get("engine.exchange_ms") / round,
            get("engine.exchange_ms"),
            round
        ));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = live_spec(&args.workload);
    if spec.is_none() && args.workload != "coded-n64" {
        eprintln!(
            "e2ebench: unknown workload {:?} (byz-latency-tcp | bulk-durable-mem | coded-n64 | crash-rejoin-mem)",
            args.workload
        );
        return ExitCode::from(2);
    }
    // durable stores live in a per-run directory inside the checkout
    let tmp = PathBuf::from(".e2ebench-tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("e2ebench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }

    let (mut correct, attempted, failed, e2e, mut layers, mut notes) = match &spec {
        Some(spec) => {
            let o = live::run(spec, args.seed, args.seconds, args.trace, &tmp);
            (o.correct, o.attempted, o.failed, o.e2e, o.layers, o.notes)
        }
        None => {
            let o = coded::run(args.seed, args.seconds, args.trace);
            (
                o.correct,
                o.attempted,
                o.failed,
                o.e2e,
                o.layers,
                Vec::new(),
            )
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".e2ebench-tmp");
    if args.trace {
        if !coded::layers(args.seed, &mut layers) {
            correct = false;
            notes.push("coded-n64 layer inputs decoded wrongly".into());
        }
        for m in &e2e.0 {
            let name = format!("traced.{}", m.name);
            layers.0.push(stats::Metric { name, ..m.clone() });
        }
        for (name, unit) in PER_LAYER {
            if layers.get(name).is_none() {
                layers.put(name, unit, 0.0, 0);
            }
        }
    }

    println!(
        "workload {} seed {} seconds {} trace {} rev {} host {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        host(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print!("{}", e2e.render(if args.trace { "traced" } else { "e2e" }));
    if args.trace {
        print!("{}", layers.render("layer"));
        if spec.is_some() {
            print!("{}", reconcile(&args.workload, &layers));
        }
    }
    for n in &notes {
        println!("note {n}");
    }
    println!(
        "record {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rev\": {}, \"host\": {}, \"nproc\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"e2e\": {}, \"layers\": {}}}",
        json_string(&args.workload),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        json_string(&git_revision()),
        json_string(&host()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        correct,
        attempted,
        failed,
        e2e.full_json(),
        layers.full_json()
    );
    let metrics = if args.trace {
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        layers.contract_json(&names)
    } else {
        e2e.contract_json(&END_TO_END)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    );
    ExitCode::SUCCESS
}
