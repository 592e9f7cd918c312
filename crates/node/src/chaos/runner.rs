//! The discrete-event run loop: drives a cluster of [`NodeMachine`]s and
//! a `ClientSwarm` over a [`SimNet`] fabric according to a [`Schedule`],
//! then audits the run for safety and (optionally) liveness.

use crate::chaos::client::{small_commands, ClientSwarm, CommandGen};
use crate::chaos::schedule::{ChaosEvent, Schedule};
use crate::chaos::token;
use crate::consensus::{ConsensusKind, StagingFault};
use crate::gateway::{GatewayConfig, GatewaySpec};
use crate::machine::{NodeIo, NodeMachine};
use crate::recovery::DurabilityConfig;
use crate::runtime::ExchangeTiming;
use crate::BehaviorKind;
use csm_algebra::{Field, Fp61};
use csm_core::engine::CodedMachine;
use csm_core::DecoderKind;
use csm_network::auth::KeyRegistry;
use csm_statemachine::machines::{
    auction_machine, bank_machine, interest_machine, kv_machine, power_machine,
};
use csm_statemachine::PolyTransition;
use csm_telemetry::{Event, Phase, ReplaySink, SharedSink};
use csm_transport::sim::{LinkState, SimEvent, SimNet};
use csm_transport::{Frame, Payload};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Distinguishes chaos store directories across runs in one process.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Which state machine the chaos cluster executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSpec {
    /// `S′ = S + X` (degree 1) — the paper's bank-account workload.
    Bank,
    /// `S′ = S·(1 + X)` (degree 2) — compound interest.
    Interest,
    /// `S′ = S^d + X` — the degree-sweep machine.
    Power(u32),
    /// The 2-dimensional quadratic auction-pool machine.
    Auction,
    /// The keyed KV machine on this many slots (degree 2).
    Kv(usize),
}

impl MachineSpec {
    fn transition(self) -> PolyTransition<Fp61> {
        match self {
            MachineSpec::Bank => bank_machine(),
            MachineSpec::Interest => interest_machine(),
            MachineSpec::Power(d) => power_machine(d),
            MachineSpec::Auction => auction_machine(),
            MachineSpec::Kv(slots) => kv_machine(slots),
        }
    }
}

/// Full description of the cluster a schedule runs against. A run is a
/// pure function of `(ChaosConfig, Schedule)`.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Cluster size `N`.
    pub cluster: usize,
    /// Shard count `K`.
    pub shards: usize,
    /// Provisioned fault bound `b`.
    pub faults: usize,
    /// The batch-agreement backend.
    pub consensus: ConsensusKind,
    /// Per-shard per-round aggregation cap.
    pub batch_cap: usize,
    /// Virtual client count (transport endpoints `N..N + clients`).
    pub clients: usize,
    /// Whether nodes run the durable (WAL + snapshot + resync) paths.
    pub durable: bool,
    /// Committed rounds between snapshots (durable mode).
    pub snapshot_interval: u64,
    /// Inject the torn-snapshot fault: `(node, ordinal)` crashes that
    /// node at its `ordinal`-th (1-based) snapshot install, after the
    /// WAL append and before the install lands.
    pub torn_snapshot: Option<(usize, u64)>,
    /// Per-node wire behavior overrides (default honest).
    pub behaviors: Vec<(usize, BehaviorKind)>,
    /// Per-node staging-fault overrides (default none).
    pub staging_faults: Vec<(usize, StagingFault)>,
    /// Which state machine the cluster executes.
    pub machine: MachineSpec,
    /// Command generator for the client swarm.
    pub command_gen: CommandGen,
    /// The fabric's default link (its latency also scales the protocol
    /// timeouts: see [`ChaosConfig::exchange_delta`]).
    pub default_link: LinkState,
    /// Whether the audit also asserts S3 (probe fully acked): scenarios
    /// set this; the random-schedule property sticks to safety, since a
    /// random schedule may legitimately keep a minority partitioned for
    /// most of its runtime.
    pub check_liveness: bool,
}

impl ChaosConfig {
    /// A small honest durability-off cluster; scenario builders override
    /// fields from here.
    pub fn new(cluster: usize, shards: usize, faults: usize) -> Self {
        ChaosConfig {
            cluster,
            shards,
            faults,
            consensus: ConsensusKind::LeaderEcho,
            batch_cap: 2,
            clients: 4,
            durable: false,
            snapshot_interval: 4,
            torn_snapshot: None,
            behaviors: Vec::new(),
            staging_faults: Vec::new(),
            machine: MachineSpec::Bank,
            command_gen: small_commands,
            default_link: LinkState::default(),
            check_liveness: false,
        }
    }

    fn behavior_of(&self, node: usize) -> BehaviorKind {
        self.behaviors
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(BehaviorKind::Honest, |(_, b)| *b)
    }

    fn staging_fault_of(&self, node: usize) -> StagingFault {
        self.staging_faults
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(StagingFault::None, |(_, f)| *f)
    }

    /// Whether `node` is configured fully honest (the safety checks
    /// quantify over honest nodes only).
    pub fn is_honest(&self, node: usize) -> bool {
        self.behavior_of(node) == BehaviorKind::Honest
            && self.staging_fault_of(node) == StagingFault::None
    }

    fn build_machine(&self) -> Arc<CodedMachine<Fp61>> {
        Arc::new(
            CodedMachine::with_program_cap(
                self.cluster,
                self.shards,
                self.machine.transition(),
                DecoderKind::BerlekampWelch,
                self.batch_cap,
            )
            .expect("chaos config machine dimensions fit the cluster"),
        )
    }

    fn initial_states(&self, machine: &CodedMachine<Fp61>) -> Vec<Vec<Fp61>> {
        let sd = machine.transition().state_dim();
        (0..self.shards)
            .map(|j| {
                (0..sd)
                    .map(|c| Fp61::from_u64((1 + j + c) as u64))
                    .collect()
            })
            .collect()
    }

    /// The exchange Δ in virtual ticks: four default-link latencies,
    /// which absorbs round-entry skew plus one hop. The other windows
    /// follow from it: staging gets `4Δ`, a Dolev–Strong relay round
    /// `2Δ`, the idle pause `Δ/4`, a state-transfer attempt and a client
    /// retry `8Δ`.
    pub fn exchange_delta(&self) -> u64 {
        4 * self.default_link.latency.max(1)
    }

    /// Node `id`'s gateway configuration, exchange timing, and (durable
    /// runs) store, on the virtual clock (1 tick = 1 µs).
    fn node_config(
        &self,
        sink: &SharedSink,
        store_root: &std::path::Path,
        id: usize,
    ) -> (GatewayConfig, ExchangeTiming, Option<DurabilityConfig>) {
        let delta = self.exchange_delta();
        let ticks = Duration::from_micros;
        let timing = ExchangeTiming::synchronous(self.faults, ticks(delta)).with_full_finalize();
        let mut gw = GatewayConfig::new(self.cluster, self.faults, &timing)
            .with_batch_cap(self.batch_cap)
            .with_consensus(self.consensus)
            .with_sink(Arc::clone(sink));
        gw.stage_timeout = ticks(4 * delta);
        gw.consensus_delta = ticks(2 * delta);
        gw.idle_pause = ticks((delta / 4).max(1));
        gw.flight_dir = None;
        let durability = self.durable.then(|| DurabilityConfig {
            dir: store_root.join(format!("node{id}")),
            snapshot_interval: self.snapshot_interval,
            transfer_timeout: ticks(8 * delta),
        });
        (gw, timing, durability)
    }
}

/// One safety/liveness breach found by the post-run audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two honest nodes vouch for different digests of one wire round —
    /// an *undetected* split (S1).
    DigestSplit {
        /// The split wire round.
        round: u64,
        /// `(node, digest)` of every honest voucher.
        digests: Vec<(usize, u64)>,
    },
    /// An acknowledged command is in no honest node's committed ledger
    /// (S2): the ack quorum lied or the command was lost.
    LostAck {
        /// The acked client (transport endpoint id).
        client: u64,
        /// The acked sequence number.
        seq: u64,
    },
    /// A client collected `b + 1` matching replies for two *different*
    /// outputs of one command.
    ConflictingAcks {
        /// How many commands double-acked.
        count: u64,
    },
    /// A restarted node's replayed dedup horizons did not cover a reply
    /// it sent before crashing (the WAL-before-ack contract).
    RecoveryHorizon {
        /// Human-readable description from the restart assertion.
        detail: String,
    },
    /// Probe commands left unacknowledged at the horizon (S3; only
    /// checked when [`ChaosConfig::check_liveness`] is set).
    ProbeUnacked {
        /// The unacked `(client, seq)` pairs.
        missing: Vec<(u64, u64)>,
    },
}

/// Per-node summary of a finished run (comparable across replays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOutcome {
    /// The node id.
    pub node: usize,
    /// Still running at the horizon.
    pub alive: bool,
    /// Fail-stopped on the desync check (plain mode).
    pub desynced: bool,
    /// Completed state transfers.
    pub resyncs: u64,
    /// A crash landed while a state transfer was in flight.
    pub resync_interrupted: bool,
    /// Rounds that ended in decode failure.
    pub decode_failures: u64,
    /// Client commands this node committed.
    pub commands_committed: u64,
    /// The node's wire round at the horizon.
    pub final_round: u64,
    /// Every digest the node ever committed, per wire round (survives
    /// resyncs — the audit's split witness).
    pub digest_history: BTreeMap<u64, Vec<u64>>,
}

/// Everything a finished run exposes to tests and the CLI. Two runs of
/// the same `(config, schedule)` must compare equal — that *is* the
/// replay contract ([`replay_check`] asserts it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRun {
    /// Audit findings, empty on a clean run.
    pub violations: Vec<Violation>,
    /// Per-node summaries.
    pub nodes: Vec<NodeOutcome>,
    /// Acked `(client, seq) → output` across the swarm.
    pub acked: BTreeMap<(u64, u64), Vec<u64>>,
    /// Probe pairs still unacked at the horizon (informational when
    /// liveness is not asserted).
    pub unacked_probes: Vec<(u64, u64)>,
    /// The deterministic telemetry event trace (the replay witness).
    pub events: Vec<(usize, u64, Option<usize>, Event)>,
    /// The phase-span trace, `(node, round, phase)` in emission order.
    pub phases: Vec<(usize, u64, Phase)>,
    /// The named-value trace (`slack.*` in virtual microseconds),
    /// deterministic because the machine reads time only from the
    /// driver's virtual clock.
    pub values: Vec<(usize, u64, String, u64)>,
    /// The virtual tick the run stopped at.
    pub horizon: u64,
}

impl ChaosRun {
    /// Whether the audit passed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total commands committed across the cluster.
    pub fn total_committed(&self) -> u64 {
        self.nodes.iter().map(|n| n.commands_committed).sum()
    }
}

/// Items buffered while their node is paused (clock-stopped).
enum PausedItem {
    Frame(Frame),
    Timer(u64),
}

/// What the harness observes of one node across its lives — the audit
/// witnesses, read off the frames the node sends.
#[derive(Default)]
struct Witness {
    /// Every digest the node ever announced, per wire round (survives
    /// resyncs and restarts — the split witness).
    digest_history: BTreeMap<u64, Vec<u64>>,
    /// Every `(client, seq)` the node ever replied to — replies follow
    /// commits, so this is its committed ledger.
    ever_committed: BTreeSet<(u64, u64)>,
    /// Max seq replied per client: WAL-before-ack means a restart's
    /// recovered horizons must cover this.
    replied: BTreeMap<u64, u64>,
}

impl Witness {
    fn observe(&mut self, frame: &Frame) {
        match &frame.payload {
            Payload::Commit { round, digest, .. } => {
                let history = self.digest_history.entry(*round).or_default();
                if !history.contains(digest) {
                    history.push(*digest);
                }
            }
            Payload::Reply { client, seq, .. } => {
                self.ever_committed.insert((*client, *seq));
                let h = self.replied.entry(*client).or_insert(0);
                *h = (*h).max(*seq);
            }
            _ => {}
        }
    }
}

/// One simulated node: the machine while it is up, plus what survives it.
struct SimNode {
    machine: Option<NodeMachine<Fp61>>,
    /// Restart epoch, stamped into the node's timer tokens.
    epoch: u64,
    witness: Witness,
    /// The torn-snapshot fault still to fire: its 1-based ordinal among
    /// the node's interval snapshots, counted across lives.
    tear_at: Option<u64>,
    /// Interval snapshots and committed commands of ended lives.
    snapshots_before: u64,
    committed_before: u64,
    /// The wire round the node was at when it last went down.
    last_round: u64,
    recovery_violations: Vec<String>,
    resync_interrupted: bool,
    paused: bool,
    pause_buffer: Vec<PausedItem>,
}

/// [`NodeIo`] over the shared fabric for one node.
struct SimIo<'a> {
    net: &'a mut SimNet,
    node: usize,
    epoch: u64,
    witness: &'a mut Witness,
}

impl NodeIo for SimIo<'_> {
    fn now(&self) -> u64 {
        self.net.now()
    }

    fn send(&mut self, to: usize, frame: Frame) {
        self.witness.observe(&frame);
        self.net.send(self.node, to, frame);
    }

    fn broadcast_upto(&mut self, n: usize, frame: &Frame) {
        self.witness.observe(frame);
        self.net.broadcast_upto(self.node, n, frame);
    }

    fn set_timer(&mut self, at: u64, token: u64) {
        self.net
            .set_timer(self.node, at, token::stamp(token, self.epoch));
    }
}

/// The cluster under test: per-node machines plus everything needed to
/// build (and rebuild) them.
struct Cluster<'a> {
    config: &'a ChaosConfig,
    registry: Arc<KeyRegistry>,
    spec: GatewaySpec<Fp61>,
    sink: SharedSink,
    store_root: PathBuf,
    nodes: Vec<SimNode>,
}

impl Cluster<'_> {
    /// Builds node `id`'s next life and starts it (a durable node replays
    /// its store here).
    fn boot(&mut self, net: &mut SimNet, id: usize) {
        let (gw, timing, durability) = self.config.node_config(&self.sink, &self.store_root, id);
        let mut spec = self.spec.clone();
        spec.behavior = self.config.behavior_of(id);
        spec.staging_fault = self.config.staging_fault_of(id);
        let mut machine = NodeMachine::new(
            id,
            Arc::clone(&self.registry),
            timing,
            &spec,
            &gw,
            durability.as_ref(),
        );
        let node = &mut self.nodes[id];
        if let Some(at) = node
            .tear_at
            .and_then(|at| at.checked_sub(node.snapshots_before))
        {
            machine.tear_snapshot_at(at);
        }
        let mut io = SimIo {
            net,
            node: id,
            epoch: node.epoch,
            witness: &mut node.witness,
        };
        machine.start(&mut io);
        // WAL-before-ack, recovered: everything this node ever replied to
        // must be covered by the replayed dedup horizons
        for (&client, &seq) in &node.witness.replied {
            let recovered = machine.horizons().get(&client);
            if recovered.is_none_or(|&h| h < seq) {
                node.recovery_violations.push(format!(
                    "node {id}: replied to client {client} seq {seq} but recovered horizon {recovered:?}"
                ));
            }
        }
        node.machine = Some(machine);
    }

    /// Hard-kills node `id`: its volatile state is gone, the store keeps
    /// whatever was fsynced.
    fn crash(&mut self, id: usize) {
        let node = &mut self.nodes[id];
        let Some(machine) = node.machine.take() else {
            return;
        };
        node.resync_interrupted |= machine.resyncing();
        node.snapshots_before += machine.stats().snapshots;
        node.committed_before += machine.stats().commands_committed;
        node.last_round = machine.round();
        if machine.torn() {
            node.tear_at = None;
        }
        node.paused = false;
        node.pause_buffer.clear();
    }

    /// Hands one delivery or timer to node `id` (the MAC check a
    /// transport would make happens here), then applies the torn-snapshot
    /// fault if it fired.
    fn deliver(&mut self, net: &mut SimNet, id: usize, item: PausedItem) {
        let node = &mut self.nodes[id];
        let Some(machine) = node.machine.as_mut() else {
            return;
        };
        let mut io = SimIo {
            net,
            node: id,
            epoch: node.epoch,
            witness: &mut node.witness,
        };
        match item {
            PausedItem::Frame(frame) => {
                if frame.verify(&self.registry) {
                    machine.on_frame(&mut io, frame);
                } else {
                    let claimed = frame.sig.signer.0;
                    machine
                        .sink()
                        .event(id, machine.round(), Some(claimed), Event::MacRejected);
                }
            }
            PausedItem::Timer(tok) => {
                if token::epoch(tok) == node.epoch & 0xFF {
                    machine.on_timer(&mut io, token::unstamp(tok));
                }
            }
        }
        if machine.torn() {
            // killed mid-snapshot-write: the WAL holds the round, the
            // snapshot rename never landed
            self.crash(id);
        }
    }

    /// Routes an item to node `id`, holding it while the node is paused.
    fn route(&mut self, net: &mut SimNet, id: usize, item: PausedItem) {
        if self.nodes[id].paused {
            self.nodes[id].pause_buffer.push(item);
        } else {
            self.deliver(net, id, item);
        }
    }

    fn apply(&mut self, event: &ChaosEvent, net: &mut SimNet, swarm: &mut ClientSwarm) {
        match event {
            ChaosEvent::Partition { a, b } => net.partition(a, b),
            ChaosEvent::Heal => net.heal_all(),
            ChaosEvent::SetLink { from, to, link } => net.set_link(*from, *to, *link),
            ChaosEvent::Crash { node } if *node < self.nodes.len() => self.crash(*node),
            ChaosEvent::Restart { node } if *node < self.nodes.len() => {
                // a plain crash is final, as documented
                let n = &mut self.nodes[*node];
                if n.machine.is_none() && self.config.durable {
                    n.epoch += 1;
                    self.boot(net, *node);
                }
            }
            ChaosEvent::Pause { node } if *node < self.nodes.len() => {
                self.nodes[*node].paused = true;
            }
            ChaosEvent::Resume { node } if *node < self.nodes.len() => {
                if !std::mem::replace(&mut self.nodes[*node].paused, false) {
                    return;
                }
                for item in std::mem::take(&mut self.nodes[*node].pause_buffer) {
                    self.deliver(net, *node, item);
                }
            }
            ChaosEvent::Burst {
                first_client,
                clients,
                commands,
                probe,
            } => swarm.burst(net, *first_client, *clients, *commands, *probe),
            _ => {}
        }
    }
}

/// Runs `schedule` against `config` and audits the result.
///
/// # Panics
///
/// Panics on configuration errors (machine does not fit the cluster,
/// store directory not creatable) — never on protocol behavior; protocol
/// misbehavior is reported as [`Violation`]s.
pub fn run_schedule(config: &ChaosConfig, schedule: &Schedule) -> ChaosRun {
    let machine = config.build_machine();
    let registry = Arc::new(KeyRegistry::new(
        config.cluster + config.clients,
        schedule.seed ^ 0x5EED,
    ));
    let trace = Arc::new(ReplaySink::new());
    let run_id = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut cluster = Cluster {
        config,
        spec: GatewaySpec {
            initial_states: config.initial_states(&machine),
            machine: Arc::clone(&machine),
            behavior: BehaviorKind::Honest,
            staging_fault: StagingFault::None,
        },
        registry: Arc::clone(&registry),
        sink: Arc::clone(&trace) as SharedSink,
        store_root: std::env::temp_dir().join(format!("csm-chaos-{}-{run_id}", std::process::id())),
        nodes: (0..config.cluster)
            .map(|id| SimNode {
                machine: None,
                epoch: 0,
                witness: Witness::default(),
                tear_at: config
                    .torn_snapshot
                    .and_then(|(node, ordinal)| (node == id).then_some(ordinal)),
                snapshots_before: 0,
                committed_before: 0,
                last_round: 0,
                recovery_violations: Vec::new(),
                resync_interrupted: false,
                paused: false,
                pause_buffer: Vec::new(),
            })
            .collect(),
    };

    let control = config.cluster + config.clients;
    let mut net = SimNet::new(control + 1, schedule.seed, config.default_link);
    let mut swarm = ClientSwarm::new(
        config.cluster,
        config.faults,
        config.shards,
        machine.transition().input_dim(),
        schedule.seed,
        Arc::clone(&registry),
        config.command_gen,
        8 * config.exchange_delta(),
    );
    for (i, (tick, _)) in schedule.events.iter().enumerate() {
        net.set_timer(
            control,
            *tick,
            token::pack(token::K_CONTROL, 0, i as u64, 0),
        );
    }
    for id in 0..config.cluster {
        cluster.boot(&mut net, id);
    }

    while let Some((now, event)) = net.pop() {
        if now > schedule.horizon {
            break;
        }
        match event {
            SimEvent::Timer { owner, token: tok } if owner == control => {
                if token::kind(tok) == token::K_CONTROL {
                    if let Some((_, ev)) = schedule.events.get(token::a(tok) as usize) {
                        cluster.apply(ev, &mut net, &mut swarm);
                    }
                }
            }
            SimEvent::Timer { owner, token: tok } if owner < config.cluster => {
                cluster.route(&mut net, owner, PausedItem::Timer(tok));
            }
            SimEvent::Timer { owner, token: tok } => swarm.on_timer(&mut net, owner, tok),
            SimEvent::Deliver { to, frame, .. } if to < config.cluster => {
                cluster.route(&mut net, to, PausedItem::Frame(frame));
            }
            SimEvent::Deliver { to, frame, .. } if to < control => swarm.on_frame(to, frame),
            SimEvent::Deliver { .. } => {}
        }
    }

    let run = audit(config, schedule, &cluster.nodes, &swarm, &trace);
    let store_root = std::mem::take(&mut cluster.store_root);
    drop(cluster); // close stores before removing their directories
    if config.durable {
        let _ = std::fs::remove_dir_all(&store_root);
    }
    run
}

/// The post-run audit: S1 over vouched digests, S2 over the ack set,
/// recovery-horizon assertions, conflicting-ack detection, and S3 when
/// the config asks for it.
fn audit(
    config: &ChaosConfig,
    schedule: &Schedule,
    nodes: &[SimNode],
    swarm: &ClientSwarm,
    trace: &ReplaySink,
) -> ChaosRun {
    let mut violations = Vec::new();
    let honest: Vec<usize> = (0..config.cluster)
        .filter(|&n| config.is_honest(n))
        .collect();
    // what each node still vouches for: a crashed node vouches for
    // nothing, a resync or restart dropped the history before it
    let vouched: Vec<BTreeMap<u64, u64>> = nodes
        .iter()
        .map(|n| {
            n.machine
                .as_ref()
                .map(NodeMachine::vouched)
                .unwrap_or_default()
        })
        .collect();

    // S1: per wire round, honest nodes still vouching agree on one digest
    let mut rounds: BTreeSet<u64> = BTreeSet::new();
    for &n in &honest {
        rounds.extend(vouched[n].keys().copied());
    }
    for round in rounds {
        let digests: Vec<(usize, u64)> = honest
            .iter()
            .filter_map(|&n| vouched[n].get(&round).map(|&d| (n, d)))
            .collect();
        let distinct: BTreeSet<u64> = digests.iter().map(|&(_, d)| d).collect();
        if distinct.len() > 1 {
            violations.push(Violation::DigestSplit { round, digests });
        }
    }

    // S2: every acked (client, seq) is in some honest node's ledger
    for &(client, seq) in swarm.acked.keys() {
        let witnessed = honest
            .iter()
            .any(|&n| nodes[n].witness.ever_committed.contains(&(client, seq)));
        if !witnessed {
            violations.push(Violation::LostAck { client, seq });
        }
    }
    if swarm.conflicting_acks > 0 {
        violations.push(Violation::ConflictingAcks {
            count: swarm.conflicting_acks,
        });
    }
    for node in nodes {
        for detail in &node.recovery_violations {
            violations.push(Violation::RecoveryHorizon {
                detail: detail.clone(),
            });
        }
    }

    let unacked_probes = swarm.unacked_probes();
    if config.check_liveness && !unacked_probes.is_empty() {
        violations.push(Violation::ProbeUnacked {
            missing: unacked_probes.clone(),
        });
    }

    let events = trace.event_log();
    let count = |node: usize, kind: &Event| {
        events
            .iter()
            .filter(|(n, _, _, e)| *n == node && e == kind)
            .count() as u64
    };
    let outcomes = nodes
        .iter()
        .enumerate()
        .map(|(id, n)| {
            let live = n.machine.as_ref();
            NodeOutcome {
                node: id,
                alive: live.is_some(),
                desynced: live.is_some_and(|m| m.stats().desynced),
                resyncs: count(id, &Event::Resync),
                resync_interrupted: n.resync_interrupted,
                decode_failures: count(id, &Event::DecodeFailure),
                commands_committed: n.committed_before
                    + live.map_or(0, |m| m.stats().commands_committed),
                final_round: live.map_or(n.last_round, NodeMachine::round),
                digest_history: n.witness.digest_history.clone(),
            }
        })
        .collect();

    ChaosRun {
        violations,
        nodes: outcomes,
        acked: swarm.acked.clone(),
        unacked_probes,
        events,
        phases: trace.phase_log(),
        values: trace.value_log(),
        horizon: schedule.horizon,
    }
}

/// Runs `schedule` twice and verifies the replay contract: traces,
/// digests, ledgers, and acks must be bit-for-bit identical.
///
/// # Errors
///
/// Returns the first observed divergence as a description (this is a
/// determinism bug in the harness or the protocol code, not a scheduled
/// fault).
pub fn replay_check(config: &ChaosConfig, schedule: &Schedule) -> Result<ChaosRun, String> {
    let first = run_schedule(config, schedule);
    let second = run_schedule(config, schedule);
    if first.events != second.events {
        let at = first
            .events
            .iter()
            .zip(&second.events)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| first.events.len().min(second.events.len()));
        return Err(format!(
            "replay divergence: event traces differ at index {at} \
             ({} vs {} events)",
            first.events.len(),
            second.events.len()
        ));
    }
    if first != second {
        return Err("replay divergence: runs differ outside the event trace".to_string());
    }
    Ok(first)
}
