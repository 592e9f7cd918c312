//! The live workloads: a gateway cluster (`N = 8`, `K = 4` bank shards,
//! `b = 2`, PBFT, Δ = 40 ms, the bank machine over Fp61) on a mem-mesh or
//! loopback TCP, driven by the multiplexing [`Generator`].
//!
//! Gateway threads belong to the program under test; the benchmark owns
//! only the generator thread, the scraper endpoint and, in traced runs,
//! a [`Tap`] on each node endpoint that counts what the node sends.

use crate::gen::{Accepted, Generator, Role};
use crate::stats::{median, MetricSet, Samples, Windows};
use csm_algebra::{Field, Fp61};
use csm_client::{ClientConfig, CsmClient};
use csm_core::DecoderKind;
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_node::{
    mesh_registry, run_durable_gateway, run_gateway, BehaviorKind, CodedMachine, ConsensusKind,
    DurabilityConfig, ExchangeTiming, GatewayConfig, GatewayReport, GatewaySpec, StagingFault,
};
use csm_statemachine::machines::bank_machine;
use csm_storage::store::WAL_FILE;
use csm_storage::wal::WriteAheadLog;
use csm_telemetry::TelemetrySnapshot;
use csm_transport::mem::MemMesh;
use csm_transport::tcp::TcpMesh;
use csm_transport::{Frame, RecvError, SendError, Transport, TransportStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const CLUSTER: usize = 8;
const SHARDS: usize = 4;
const FAULTS: usize = 2;
const DELTA: Duration = Duration::from_millis(40);
/// Cluster boots per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// How long outstanding operations may still complete after the load
/// deadline before they count as failed.
const DRAIN: Duration = Duration::from_secs(10);
/// Time from the load's start, and from each rejoin, to the next kill:
/// about a dozen kill-rejoin cycles in a 30 s run.
const CYCLE: Duration = Duration::from_secs(2);
/// A write slower than this waited out at least one stall (a PBFT view
/// change after a primary missed its turn).
const STALL: Duration = Duration::from_millis(500);

/// One live workload's shape.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    pub tcp: bool,
    pub batch_cap: usize,
    /// Outstanding deposits per writer identity (one writer per shard).
    pub depth: usize,
    /// Reader identities (one query outstanding each).
    pub readers: usize,
    /// Durable gateways with this snapshot interval.
    pub snapshot_interval: Option<u64>,
    pub byzantine: Vec<(usize, BehaviorKind)>,
    /// The honest node killed and restarted in cycles.
    pub victim: Option<usize>,
}

impl LiveSpec {
    fn behavior(&self, id: usize) -> BehaviorKind {
        self.byzantine
            .iter()
            .find(|(b, _)| *b == id)
            .map_or(BehaviorKind::Honest, |(_, k)| *k)
    }

    fn is_byzantine(&self, id: usize) -> bool {
        self.byzantine.iter().any(|(b, _)| *b == id)
    }

    fn identities(&self) -> usize {
        SHARDS + self.readers
    }
}

/// A node endpoint wrapper that, when switched on, counts the frames and
/// bytes the node sends and times each send call.
struct Tap<T> {
    inner: T,
    on: AtomicBool,
    frames: AtomicU64,
    bytes: AtomicU64,
    send_us: Mutex<Vec<f64>>,
}

impl<T: Transport> Tap<T> {
    fn new(inner: T) -> Self {
        Tap {
            inner,
            on: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            send_us: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, frames: u64, bytes_each: usize, started: Instant) {
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.frames.fetch_add(frames, Ordering::Relaxed);
        self.bytes
            .fetch_add(frames * bytes_each as u64, Ordering::Relaxed);
        self.send_us.lock().expect("tap samples poisoned").push(us);
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn local_id(&self) -> NodeId {
        self.inner.local_id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<(), SendError> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.send(to, frame);
        }
        let len = frame.to_wire_bytes().len();
        let started = Instant::now();
        let r = self.inner.send(to, frame);
        self.record(1, len, started);
        r
    }

    fn broadcast_upto(&self, limit: usize, frame: &Frame) -> Result<(), SendError> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.broadcast_upto(limit, frame);
        }
        let len = frame.to_wire_bytes().len();
        let me = self.local_id().0;
        let peers = (0..limit.min(self.n())).filter(|&p| p != me).count() as u64;
        let started = Instant::now();
        let r = self.inner.broadcast_upto(limit, frame);
        self.record(peers, len, started);
        r
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvError> {
        self.inner.recv_timeout(timeout)
    }

    fn stats(&self) -> &TransportStats {
        self.inner.stats()
    }
}

type Life<T> = JoinHandle<(GatewayReport<Fp61>, Arc<Tap<T>>)>;

/// One booted cluster plus the benchmark's endpoints on its mesh.
struct Cluster<T: Transport + Sync + 'static> {
    spec: LiveSpec,
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    gw: GatewayConfig,
    machine: Arc<CodedMachine<Fp61>>,
    store: Option<PathBuf>,
    taps: Vec<Arc<Tap<T>>>,
    stops: Vec<Arc<AtomicBool>>,
    lives: Vec<Option<Life<T>>>,
    /// Reports of ended lives (a killed victim's earlier lives).
    ended: Vec<GatewayReport<Fp61>>,
    clients: Vec<T>,
    scraper: CsmClient<T>,
}

fn initial_balance(shard: usize) -> u64 {
    100 * (shard as u64 + 1)
}

impl<T: Transport + Sync + 'static> Cluster<T> {
    fn boot(
        spec: &LiveSpec,
        seed: u64,
        store: Option<PathBuf>,
        mesh: &dyn Fn(Arc<KeyRegistry>) -> Vec<T>,
    ) -> Self {
        // clients, then the scraper, after the cluster's ids
        let registry = mesh_registry(CLUSTER, spec.identities() + 1, seed);
        let mut endpoints = mesh(Arc::clone(&registry));
        let scraper = endpoints.pop().expect("scraper endpoint");
        let clients = endpoints.split_off(CLUSTER);
        let timing = ExchangeTiming::synchronous(FAULTS, DELTA).with_full_finalize();
        let mut gw = GatewayConfig::new(CLUSTER, FAULTS, &timing)
            .with_consensus(ConsensusKind::Pbft)
            .with_batch_cap(spec.batch_cap);
        gw.flight_dir = None;
        let machine = Arc::new(
            CodedMachine::<Fp61>::new(CLUSTER, SHARDS, bank_machine(), DecoderKind::default())
                .expect("N = 8, K = 4 is within the Theorem-1 bound"),
        );
        let scraper = CsmClient::new(
            scraper,
            Arc::clone(&registry),
            ClientConfig::new(CLUSTER, FAULTS, Duration::from_secs(1)),
        );
        let mut cluster = Cluster {
            spec: spec.clone(),
            registry,
            timing,
            gw,
            machine,
            store,
            taps: Vec::new(),
            stops: Vec::new(),
            lives: Vec::new(),
            ended: Vec::new(),
            clients,
            scraper,
        };
        for (id, endpoint) in endpoints.into_iter().enumerate() {
            let tap = Arc::new(Tap::new(endpoint));
            cluster.taps.push(Arc::clone(&tap));
            cluster.stops.push(Arc::new(AtomicBool::new(false)));
            let life = cluster.spawn(id, tap);
            cluster.lives.push(Some(life));
        }
        cluster
    }

    fn spawn(&self, id: usize, tap: Arc<Tap<T>>) -> Life<T> {
        let registry = Arc::clone(&self.registry);
        let timing = self.timing.clone();
        let gw = self.gw.clone();
        let stop = Arc::clone(&self.stops[id]);
        let spec = GatewaySpec {
            machine: Arc::clone(&self.machine),
            initial_states: (0..SHARDS)
                .map(|s| vec![Fp61::from_u64(initial_balance(s))])
                .collect(),
            behavior: self.spec.behavior(id),
            staging_fault: StagingFault::None,
        };
        let durability = self.store.as_ref().map(|dir| {
            let mut d = DurabilityConfig::new(dir.join(format!("node-{id}")));
            d.snapshot_interval = self.spec.snapshot_interval.expect("durable spec");
            d.transfer_timeout = (gw.stage_timeout + DELTA) * 2 + Duration::from_millis(500);
            d
        });
        thread::Builder::new()
            .name(format!("gw-{id}"))
            .spawn(move || match durability {
                Some(d) => run_durable_gateway(tap, registry, timing, &spec, &gw, &d, &stop),
                None => {
                    let keep = Arc::clone(&tap);
                    (run_gateway(tap, registry, timing, &spec, &gw, &stop), keep)
                }
            })
            .expect("spawn gateway thread")
    }

    /// Waits until every node's round loop answers a telemetry request;
    /// returns how many answered.
    fn ready(&mut self) -> usize {
        self.scraper.scrape(Duration::from_secs(5)).len()
    }

    fn trace(&self, on: bool) {
        for tap in &self.taps {
            tap.on.store(on, Ordering::Relaxed);
        }
    }

    /// Raises `id`'s stop flag (a kill: its in-memory state is discarded
    /// when the thread returns; only its store survives).
    fn kill(&self, id: usize) {
        self.stops[id].store(true, Ordering::Relaxed);
    }

    fn life_ended(&self, id: usize) -> bool {
        self.lives[id].as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Joins `id`'s ended life and starts the next one on the same store
    /// and endpoint.
    fn restart(&mut self, id: usize) {
        let life = self.lives[id].take().expect("a life to restart");
        let (report, tap) = life.join().expect("gateway thread panicked");
        self.ended.push(report);
        self.stops[id] = Arc::new(AtomicBool::new(false));
        let life = self.spawn(id, tap);
        self.lives[id] = Some(life);
    }

    /// Stops every node and returns all reports (ended lives included).
    fn shutdown(mut self) -> Vec<GatewayReport<Fp61>> {
        for stop in &self.stops {
            stop.store(true, Ordering::Relaxed);
        }
        let mut reports = std::mem::take(&mut self.ended);
        for life in self.lives.iter_mut().filter_map(Option::take) {
            reports.push(life.join().expect("gateway thread panicked").0);
        }
        reports
    }
}

/// The crash-rejoin cycle state.
struct Crash {
    victim: usize,
    state: CrashState,
    armed_at: Instant,
    /// The newest committed round seen in a receipt.
    last_round: u64,
    rejoin_ms: Vec<f64>,
    kills: u64,
    failed_rejoins: u64,
}

#[derive(PartialEq)]
enum CrashState {
    Up,
    Killing,
    Rejoining(Instant),
}

impl Crash {
    /// Advances the cycle after a generator step. `kill_ok` is false in
    /// the last stretch of the load and during the drain.
    fn poll<T: Transport + Sync + 'static>(
        &mut self,
        cluster: &mut Cluster<T>,
        gen: &mut Generator<T>,
        seen: &mut usize,
        kill_ok: bool,
    ) {
        let now = Instant::now();
        let fresh = &gen.accepted[*seen..];
        *seen = gen.accepted.len();
        let newest = fresh.iter().filter(|a| a.write).map(|a| a.round).max();
        let passed = newest.filter(|&r| r > self.last_round).map(|r| {
            let prev = std::mem::replace(&mut self.last_round, r);
            (prev + 1..=r).any(|x| x % CLUSTER as u64 == self.victim as u64)
        });
        if self.state == CrashState::Up && kill_ok && now >= self.armed_at {
            // kill right after a round the victim led (leader = round mod
            // N): receipts name committed rounds, and a closed loop at
            // batch_cap 1 commits every other round, so any round the
            // victim led since the last receipt counts
            if passed == Some(true) {
                cluster.kill(self.victim);
                self.kills += 1;
                self.state = CrashState::Killing;
            }
        }
        if self.state == CrashState::Killing && cluster.life_ended(self.victim) {
            let t = Instant::now();
            cluster.restart(self.victim);
            gen.watch(self.victim, t);
            self.state = CrashState::Rejoining(t);
        }
        if let CrashState::Rejoining(t) = self.state {
            if let Some(ok) = gen.watch_ok {
                self.rejoin_ms
                    .push(ok.saturating_duration_since(t).as_secs_f64() * 1e3);
                gen.unwatch();
                self.armed_at = Instant::now() + CYCLE;
                self.state = CrashState::Up;
            }
        }
    }
}

/// What one load phase produced.
struct Phase {
    start: Instant,
    end: Instant,
}

/// Runs the generator until `end`, advancing the crash cycle if any.
fn load<T: Transport + Sync + 'static>(
    cluster: &mut Cluster<T>,
    gen: &mut Generator<T>,
    crash: &mut Option<Crash>,
    seen: &mut usize,
    end: Instant,
) -> Phase {
    let start = Instant::now();
    while Instant::now() < end {
        gen.step(true);
        if let Some(c) = crash.as_mut() {
            let kill_ok = Instant::now() + Duration::from_secs(2) < end;
            c.poll(cluster, gen, seen, kill_ok);
        }
    }
    Phase {
        start,
        end: Instant::now(),
    }
}

/// The outcome of one live run.
pub struct LiveOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: MetricSet,
    pub layers: MetricSet,
    pub notes: Vec<String>,
}

/// Runs a live workload on a mem-mesh or loopback TCP.
pub fn run(spec: &LiveSpec, seed: u64, seconds: f64, trace: bool, tmp: &Path) -> LiveOutcome {
    if spec.tcp {
        run_on(spec, seed, seconds, trace, tmp, &|r| {
            TcpMesh::launch_loopback(r).expect("bind loopback mesh")
        })
    } else {
        run_on(spec, seed, seconds, trace, tmp, &MemMesh::build)
    }
}

fn run_on<T: Transport + Sync + 'static>(
    spec: &LiveSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: &Path,
    mesh: &dyn Fn(Arc<KeyRegistry>) -> Vec<T>,
) -> LiveOutcome {
    let mut notes = Vec::new();
    // ---- set-up, several times; the last cluster carries the load
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let store = spec
            .snapshot_interval
            .map(|_| tmp.join(format!("boot-{i}")));
        let mut c = Cluster::boot(spec, seed, store, mesh);
        let answered = c.ready();
        setup_s.push(started.elapsed().as_secs_f64());
        if answered < CLUSTER {
            notes.push(format!("boot {i}: {answered}/{CLUSTER} nodes answered"));
        }
        if i + 1 < SETUPS {
            c.shutdown();
        } else {
            cluster = Some(c);
        }
    }
    let mut cluster = cluster.expect("a booted cluster");

    // ---- load
    let roles: Vec<Role> = (0..SHARDS)
        .map(|s| Role::Writer {
            shard: s as u64,
            depth: spec.depth,
        })
        .chain((0..spec.readers).map(|_| Role::Reader {
            shards: SHARDS as u64,
        }))
        .collect();
    let clients = std::mem::take(&mut cluster.clients);
    let mut gen = Generator::new(
        clients.into_iter().zip(roles).collect(),
        Arc::clone(&cluster.registry),
        CLUSTER,
        FAULTS,
        DELTA * 8 + Duration::from_millis(500),
        seed,
    );
    let mut crash = spec.victim.map(|victim| Crash {
        victim,
        state: CrashState::Up,
        armed_at: Instant::now() + CYCLE,
        last_round: 0,
        rejoin_ms: Vec::new(),
        kills: 0,
        failed_rejoins: 0,
    });
    let mut seen = 0;
    let total = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    // a traced run measures an untraced half, then a traced half, so the
    // tracing overhead is their difference
    let untraced = if trace {
        let p = load(
            &mut cluster,
            &mut gen,
            &mut crash,
            &mut seen,
            t0 + total / 2,
        );
        cluster.trace(true);
        Some(p)
    } else {
        None
    };
    let measured = load(&mut cluster, &mut gen, &mut crash, &mut seen, t0 + total);
    // ---- drain: no new operations; pending ones may still complete
    let drain_end = Instant::now() + DRAIN;
    while Instant::now() < drain_end {
        let rejoining = crash.as_ref().is_some_and(|c| c.state != CrashState::Up);
        if gen.pending() == 0 && !rejoining {
            break;
        }
        gen.step(false);
        if let Some(c) = crash.as_mut() {
            c.poll(&mut cluster, &mut gen, &mut seen, false);
        }
    }
    if let Some(c) = crash.as_mut() {
        if c.state != CrashState::Up {
            c.failed_rejoins += 1;
        }
    }
    let telemetry = if trace {
        cluster.scraper.scrape(Duration::from_secs(3))
    } else {
        Vec::new()
    };
    cluster.trace(false);
    let taps = cluster.taps.clone();
    let store = cluster.store.clone();
    let reports = cluster.shutdown();

    // ---- verification
    let check = verify(&gen.accepted, &reports, spec);
    let attempted = gen.issued_writes + gen.issued_reads + crash.as_ref().map_or(0, |c| c.kills);
    let failed = gen.pending()
        + check.bad_writes
        + check.bad_reads
        + crash.as_ref().map_or(0, |c| c.failed_rejoins);
    let correct = check.bad_writes == 0
        && check.bad_reads == 0
        && check.digest_splits == 0
        && gen.watch_wrong == 0;
    if check.digest_splits > 0 {
        notes.push(format!(
            "{} rounds where honest commit digests differ",
            check.digest_splits
        ));
    }
    let mut desynced: Vec<usize> = reports
        .iter()
        .filter(|r| r.stats.desynced)
        .map(|r| r.id)
        .collect();
    desynced.dedup();
    if !desynced.is_empty() {
        notes.push(format!("nodes that fail-stopped on desync: {desynced:?}"));
    }
    let stalled = gen.accepted.iter().filter(|a| a.latency > STALL).count();
    if stalled > 0 {
        notes.push(format!(
            "{stalled} writes took over {STALL:?} (view-change stalls)"
        ));
    }
    if gen.watch_wrong > 0 {
        notes.push(format!(
            "{} victim replies differed from the accepted value",
            gen.watch_wrong
        ));
    }

    // ---- end-to-end metrics (the traced half in a traced run)
    let mut e2e = MetricSet::default();
    let in_phase = |a: &&Accepted, p: &Phase| a.accepted_at >= p.start && a.accepted_at <= p.end;
    let mut write_ms = Samples::default();
    let span = measured.end.duration_since(measured.start).as_secs_f64();
    let mut windows = Windows::new(span);
    let mut read_ms = Samples::default();
    let mut first_reply_ms = Samples::default();
    let mut quorum_wait_ms = Samples::default();
    let mut resends = 0u64;
    let mut ops = 0u64;
    let window_start = measured.start;
    for a in gen
        .accepted
        .iter()
        .filter(|a| a.accepted_at >= window_start)
    {
        let ms = a.latency.as_secs_f64() * 1e3;
        if a.write {
            write_ms.push(ms);
            if a.accepted_at <= measured.end {
                windows.push(a.accepted_at.duration_since(window_start).as_secs_f64(), ms);
            }
            first_reply_ms.push(a.first_reply.as_secs_f64() * 1e3);
            quorum_wait_ms.push((a.latency - a.first_reply).as_secs_f64() * 1e3);
        } else {
            read_ms.push(ms);
        }
        resends += u64::from(a.resends);
        ops += 1;
    }
    let writes_in = |p: &Phase| {
        gen.accepted
            .iter()
            .filter(|a| a.write && in_phase(a, p))
            .count()
    };
    let wps = |p: &Phase| writes_in(p) as f64 / p.end.duration_since(p.start).as_secs_f64();
    windows.put_quantile(&mut e2e, "write_p50_ms", "ms", 0.5);
    windows.put_quantile(&mut e2e, "write_p90_ms", "ms", 0.9);
    e2e.put_quantile("write_p99_ms", "ms", &mut write_ms, 0.99);
    windows.put_rate(&mut e2e, "writes_per_s", "1/s", 1.0);
    e2e.put("setup_s", "s", median(&setup_s), setup_s.len() as u64);
    if spec.readers > 0 {
        e2e.put_quantile("read_p50_ms", "ms", &mut read_ms, 0.5);
        e2e.put_quantile("read_p99_ms", "ms", &mut read_ms, 0.99);
    }
    if let Some(c) = &crash {
        e2e.put(
            "rejoin_ms",
            "ms",
            median(&c.rejoin_ms),
            c.rejoin_ms.len() as u64,
        );
    }
    e2e.put_quantile("write_max_ms", "ms", &mut write_ms, 1.0);
    e2e.put(
        "failed_frac",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        attempted,
    );

    // ---- per-layer metrics
    let mut layers = MetricSet::default();
    if trace {
        let writes = writes_in(&measured).max(1) as f64;
        layers.put_quantile("client.first_reply_ms", "ms", &mut first_reply_ms, 0.5);
        layers.put_quantile("client.quorum_wait_ms", "ms", &mut quorum_wait_ms, 0.5);
        layers.put(
            "client.resends_per_kop",
            "1/kop",
            resends as f64 * 1e3 / ops.max(1) as f64,
            ops,
        );
        let frames: u64 = taps.iter().map(|t| t.frames.load(Ordering::Relaxed)).sum();
        let bytes: u64 = taps.iter().map(|t| t.bytes.load(Ordering::Relaxed)).sum();
        let mut send_us = Samples::default();
        for t in &taps {
            for &us in t.send_us.lock().expect("tap samples poisoned").iter() {
                send_us.push(us);
            }
        }
        layers.put(
            "transport.frames_per_write",
            "count",
            frames as f64 / writes,
            frames,
        );
        layers.put(
            "transport.bytes_per_write",
            "B",
            bytes as f64 / writes,
            frames,
        );
        layers.put_quantile("transport.send_us_p50", "us", &mut send_us, 0.5);
        layers.put_quantile("transport.send_us_p99", "us", &mut send_us, 0.99);
        let mac_rejected: u64 = taps.iter().map(|t| t.stats().snapshot().1).sum();
        layers.put(
            "transport.mac_rejected",
            "count",
            mac_rejected as f64,
            taps.len() as u64,
        );
        gateway_layers(&mut layers, &telemetry, &reports, spec);
        let wal = store.as_ref().map(|dir| wal_bytes_per_write(dir, spec));
        let wal = wal.unwrap_or_default();
        layers.put("storage.wal_bytes_per_write", "B", wal.0, wal.1);
        recovery_layers(&mut layers, &reports, &telemetry, spec);
        let overhead = untraced.map_or(0.0, |u| {
            let base = wps(&u);
            if base > 0.0 {
                (base - wps(&measured)) / base * 100.0
            } else {
                0.0
            }
        });
        layers.put("trace.overhead_pct", "%", overhead, 2);
    }
    LiveOutcome {
        correct,
        attempted,
        failed,
        e2e,
        layers,
        notes,
    }
}

/// What verification found.
struct Check {
    bad_writes: u64,
    bad_reads: u64,
    digest_splits: u64,
}

/// Checks every accepted write against the bank balance chain (each
/// shard's balance after round `r` is its initial balance plus every
/// deposit committed in rounds up to `r`, and every deposit of a round
/// reports that post-round balance), every read against the chain's
/// balance at its returned round, and honest commit digests against each
/// other.
fn verify(accepted: &[Accepted], reports: &[GatewayReport<Fp61>], spec: &LiveSpec) -> Check {
    let mut deposits: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); SHARDS];
    for a in accepted.iter().filter(|a| a.write) {
        *deposits[a.shard as usize].entry(a.round).or_insert(0) += a.amount;
    }
    // running balance after each round that carried deposits
    let chains: Vec<Vec<(u64, u64)>> = deposits
        .iter()
        .enumerate()
        .map(|(shard, rounds)| {
            let mut balance = initial_balance(shard);
            rounds
                .iter()
                .map(|(&round, &sum)| {
                    balance += sum;
                    (round, balance)
                })
                .collect()
        })
        .collect();
    let balance_after = |shard: usize, round: u64| {
        let chain = &chains[shard];
        match chain.partition_point(|&(r, _)| r <= round) {
            0 => initial_balance(shard),
            i => chain[i - 1].1,
        }
    };
    let mut check = Check {
        bad_writes: 0,
        bad_reads: 0,
        digest_splits: 0,
    };
    for a in accepted {
        let b = balance_after(a.shard as usize, a.round);
        if a.write {
            if a.value != [b, b] {
                check.bad_writes += 1;
            }
        } else if a.value != [b] {
            check.bad_reads += 1;
        }
    }
    // a node stopped mid-agreement commits the empty fallback batch for
    // the round it was in, so each life's final round is left out
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    for r in reports.iter().filter(|r| !spec.is_byzantine(r.id)) {
        let mut committed = r.digests();
        committed.pop();
        for (round, digest) in committed {
            if *digests.entry(round).or_insert(digest) != digest {
                check.digest_splits += 1;
            }
        }
    }
    check
}

/// Honest nodes' scraped snapshots.
fn honest<'a>(
    telemetry: &'a [(usize, TelemetrySnapshot)],
    spec: &'a LiveSpec,
) -> impl Iterator<Item = &'a TelemetrySnapshot> {
    telemetry
        .iter()
        .filter(|(id, _)| !spec.is_byzantine(*id))
        .map(|(_, s)| s)
}

/// Median over honest nodes of a phase's p50 (or p99), in ms.
fn phase_ms(
    telemetry: &[(usize, TelemetrySnapshot)],
    spec: &LiveSpec,
    phase: &str,
    p99: bool,
) -> (f64, u64) {
    let mut per_node = Vec::new();
    let mut count = 0;
    for s in honest(telemetry, spec) {
        if let Some(p) = s.phase(phase) {
            per_node.push(if p99 { p.p99_us } else { p.p50_us } as f64 / 1e3);
            count += p.count;
        }
    }
    (median(&per_node), count)
}

fn gateway_layers(
    layers: &mut MetricSet,
    telemetry: &[(usize, TelemetrySnapshot)],
    reports: &[GatewayReport<Fp61>],
    spec: &LiveSpec,
) {
    let phase = |name: &str, p99: bool| phase_ms(telemetry, spec, name, p99);
    let (round, rounds) = phase("round", false);
    layers.put("gateway.round_ms_p50", "ms", round, rounds);
    let (v, n) = phase("round", true);
    layers.put("gateway.round_ms_p99", "ms", v, n);
    let honest_reports: Vec<&GatewayReport<Fp61>> = reports
        .iter()
        .filter(|r| !spec.is_byzantine(r.id) && r.rounds > 0)
        .collect();
    let per_report = |f: &dyn Fn(&GatewayReport<Fp61>) -> f64| {
        median(&honest_reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let total_rounds: u64 = honest_reports.iter().map(|r| r.rounds).sum();
    layers.put(
        "gateway.batch_size_mean",
        "count",
        per_report(&|r| r.stats.commands_committed as f64 / r.rounds as f64),
        total_rounds,
    );
    let (v, n) = phase("reply", false);
    layers.put("gateway.reply_ms", "ms", v, n);
    layers.put(
        "gateway.empty_round_frac",
        "ratio",
        per_report(&|r| r.stats.empty_rounds as f64 / r.rounds as f64),
        total_rounds,
    );
    let drops: u64 = honest_reports
        .iter()
        .map(|r| r.stats.rejected_full + r.stats.rejected_quota)
        .sum();
    layers.put(
        "gateway.admission_drops",
        "count",
        drops as f64,
        total_rounds,
    );
    let top_level: Vec<f64> = honest(telemetry, spec)
        .filter_map(|s| {
            let round = s.phase("round")?.p50_us as f64;
            Some((round - s.top_level_p50_sum().as_secs_f64() * 1e6) / 1e3)
        })
        .collect();
    layers.put(
        "gateway.unattributed_ms",
        "ms",
        median(&top_level),
        top_level.len() as u64,
    );
    let (v, n) = phase("consensus", false);
    layers.put("consensus.ms_p50", "ms", v, n);
    let (v, n) = phase("consensus", true);
    layers.put("consensus.ms_p99", "ms", v, n);
    let view_changes = honest(telemetry, spec)
        .map(|s| s.counter("view_change"))
        .max()
        .unwrap_or(0);
    layers.put(
        "consensus.view_changes",
        "count",
        view_changes as f64,
        rounds,
    );
    let (v, n) = phase("exchange", false);
    layers.put("engine.exchange_ms", "ms", v, n);
    let slack: Vec<f64> = honest(telemetry, spec)
        .filter_map(|s| s.value("slack.exchange").map(|v| v.p50 as f64 / 1e3))
        .collect();
    layers.put(
        "engine.exchange_slack_ms",
        "ms",
        median(&slack),
        slack.len() as u64,
    );
    let (v, n) = phase("execute", false);
    layers.put("engine.execute_ms", "ms", v, n);
    let (v, n) = phase("decode", false);
    layers.put("engine.decode_ms", "ms", v, n);
    let (v, n) = phase("wal-fsync", false);
    layers.put("storage.wal_fsync_ms_p50", "ms", v, n);
    let (v, n) = phase("wal-fsync", true);
    layers.put("storage.wal_fsync_ms_p99", "ms", v, n);
    let snapshots: u64 = honest_reports.iter().map(|r| r.stats.snapshots).sum();
    layers.put("storage.snapshots", "count", snapshots as f64, total_rounds);
}

/// Bytes per logged command in each honest node's live WAL tail (median
/// over nodes), read back after shutdown.
fn wal_bytes_per_write(dir: &Path, spec: &LiveSpec) -> (f64, u64) {
    let mut per_node = Vec::new();
    let mut records = 0u64;
    for id in (0..CLUSTER).filter(|&id| !spec.is_byzantine(id)) {
        let path = dir.join(format!("node-{id}")).join(WAL_FILE);
        let Ok((wal, rec)) = WriteAheadLog::recover(&path) else {
            continue;
        };
        let commands: usize = rec.records.iter().map(|r| r.batch.len()).sum();
        records += rec.records.len() as u64;
        if commands > 0 {
            per_node.push(wal.bytes() as f64 / commands as f64);
        }
    }
    (median(&per_node), records)
}

fn recovery_layers(
    layers: &mut MetricSet,
    reports: &[GatewayReport<Fp61>],
    telemetry: &[(usize, TelemetrySnapshot)],
    spec: &LiveSpec,
) {
    // the victim's restarts when one is killed (its first life is
    // `reports`' first of its id), else every honest node's first start
    let infos: Vec<_> = reports
        .iter()
        .filter(|r| match spec.victim {
            Some(v) => r.id == v,
            None => !spec.is_byzantine(r.id),
        })
        .skip(usize::from(spec.victim.is_some()))
        .filter_map(|r| r.recovery.clone())
        .collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let startup: Vec<f64> = infos.iter().map(|i| ms(i.startup)).collect();
    let first: Vec<f64> = infos
        .iter()
        .filter_map(|i| i.first_commit_after.map(ms))
        .collect();
    let replayed: Vec<f64> = infos
        .iter()
        .map(|i| i.wal_records_replayed as f64)
        .collect();
    layers.put(
        "recovery.startup_ms",
        "ms",
        median(&startup),
        startup.len() as u64,
    );
    layers.put(
        "recovery.first_commit_ms",
        "ms",
        median(&first),
        first.len() as u64,
    );
    layers.put(
        "recovery.wal_replayed",
        "count",
        median(&replayed),
        replayed.len() as u64,
    );
    let rejected: u64 = honest(telemetry, spec)
        .map(|s| s.counter("state_chunk_rejected"))
        .sum();
    layers.put(
        "recovery.chunks_rejected",
        "count",
        rejected as f64,
        infos.len() as u64,
    );
}
