//! The node state machine: one CSM gateway's whole round logic as a
//! sans-I/O event handler.
//!
//! A node's round (§3) is: admit client commands, agree on the round's
//! batch, execute it on the coded state, exchange coded results, decode,
//! and commit — logging the round before acknowledging it when durable.
//! [`NodeMachine`] is the only place that logic lives. It reacts to two
//! inputs, an authenticated inbound [`Frame`] ([`NodeMachine::on_frame`])
//! and a timer it armed earlier ([`NodeMachine::on_timer`]), and it acts
//! on the world only through [`NodeIo`]: the clock, sends, and timer arms.
//! Two drivers run it:
//!
//! * the wall-clock driver behind [`crate::run_gateway`] and
//!   [`crate::run_durable_gateway`] — a transport's `recv_timeout` up to
//!   the next timer;
//! * the chaos harness ([`crate::chaos`]) — a seeded
//!   [`SimNet`](csm_transport::sim::SimNet) on a virtual clock, so every
//!   run replays bit for bit.
//!
//! Both drivers verify frame MACs before delivery: the machine trusts the
//! `sig.signer` of every frame it is handed and binds protocol identities
//! to it.
//!
//! # One round
//!
//! 1. **Round start** (the next-round timer): serve buffered state-transfer
//!    requests, read-only queries, and telemetry scrapes from the latest
//!    commit; run the divergence check (a plain node fail-stops, a durable
//!    node resyncs); admit the client inbox; build this node's proposal.
//! 2. **Staging**, per [`ConsensusKind`]: leader-echo (an `N − b` echo
//!    quorum within two stage timeouts), Dolev–Strong (`b + 2` relay rounds of
//!    [`GatewayConfig::consensus_delta`]), or PBFT (views until decided).
//!    An undecided round executes the shared empty batch.
//! 3. **Execute and exchange**: the coded result goes out per the node's
//!    [`BehaviorKind`]; the word freezes at the synchronous Δ deadline, at
//!    the partial-synchrony `N − b` cutoff, or on a full word when
//!    [`ExchangeTiming::finalize_on_full`] is set.
//! 4. **Decode and commit**: durable nodes append the round to the WAL
//!    (and snapshot on the interval) *before* the commit announcement and
//!    the client replies leave the node.
//!
//! Time is whatever the driver's [`NodeIo::now`] says, in microseconds:
//! wall-clock time live, virtual ticks under chaos. Every phase span and
//! `slack.*` value is measured on that clock, so chaos traces are
//! deterministic and live traces are wall-clock.

use crate::consensus::{
    equivocation_variant, overcap_variant, pbft_from_wire, pbft_to_wire, ConsensusKind,
    StagingFault,
};
use crate::gateway::{
    chunk_after_fault, decode_batch, encode_batch, gateway_counters, reply_after_fault,
    reply_payload, Admission, BatchEntry, EventScope, GatewayConfig, GatewayReport, GatewaySpec,
    GatewayStats,
};
use crate::recovery::{DurabilityConfig, DurableCtx, Logged, RecoveryInfo};
use crate::runtime::{result_payload, ExchangeTiming, PENDING_MAX_VALUES};
use crate::{store_fingerprint, wire_behavior, BehaviorKind};
use csm_algebra::Field;
use csm_consensus::batch::{BatchRows, DsBatch, DsRelay, PbftBatch, PbftBatchConfig, PbftBatchMsg};
use csm_core::digest::digest_results;
use csm_core::engine::{CodedMachine, RoundCommit, RoundEngine};
use csm_core::exchange::{equivocation_noise, ReceiverCore, ResultBehavior};
use csm_core::SynchronyMode;
use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use csm_storage::CommitRecord;
use csm_telemetry::{Event, Phase, RecordingSink, SharedSink, TeeSink};
use csm_transport::{Frame, Payload};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Everything a [`NodeMachine`] needs from its runtime.
pub trait NodeIo {
    /// The driver's clock in microseconds (any fixed origin).
    fn now(&self) -> u64;
    /// Sends one frame to endpoint `to` (a peer or a client).
    fn send(&mut self, to: usize, frame: Frame);
    /// Sends one frame to every endpoint in `0..n` except this node.
    fn broadcast_upto(&mut self, n: usize, frame: &Frame);
    /// Arms a timer: the driver hands `token` to [`NodeMachine::on_timer`]
    /// once its clock reaches `at`. At most one timer of each kind (token
    /// bits 60–63) is live: arming one makes any earlier one of that kind
    /// stale, so a driver may replace it instead of keeping both. Tokens
    /// never use bits 52–59, which a driver may stamp with its own data
    /// (the chaos harness keeps restart epochs there).
    fn set_timer(&mut self, at: u64, token: u64);
}

/// How many rounds past the last finished round inbound protocol traffic
/// is buffered; anything further out is dropped (equivalent to the sender
/// withholding for that round, which the protocol already tolerates).
const ROUND_LOOKAHEAD: u64 = 64;

/// Cap on buffered client `Submit` frames awaiting the admission pass. A
/// flood beyond this is dropped (clients time out and retry), so
/// unadmitted traffic can never grow a node's memory without bound.
const CLIENT_INBOX_CAP: usize = 8192;

/// Cap on buffered client `Query` frames awaiting the read pass — same
/// backpressure story as the submit inbox.
const QUERY_INBOX_CAP: usize = 8192;

/// Cap on buffered batch-consensus frames per round. An honest round needs
/// at most a few frames per peer (Dolev–Strong relays at most two values;
/// PBFT sends one vote per phase per view), so this bounds what `b`
/// validly-keyed Byzantine peers can park in a future round's inbox.
const CONSENSUS_ROUND_CAP: usize = 4096;

/// How many trailing rounds the desync check inspects (commit gossip for
/// a round keeps arriving during the following rounds).
const DESYNC_WINDOW: u64 = 4;

/// Timer tokens: kind in bits 60–63, the round (or resync attempt) in
/// bits 20–51, a sub-kind or PBFT view in bits 0–19.
mod timer {
    /// Staging deadline (the leader-echo window or the Dolev–Strong relay
    /// schedule).
    pub(super) const STAGE: u64 = 1;
    /// Exchange finalization deadline.
    pub(super) const EXCHANGE: u64 = 2;
    /// PBFT view timeout (`b` = view).
    pub(super) const VIEW: u64 = 4;
    /// Start the round in `a`.
    pub(super) const NEXT: u64 = 5;
    /// State-transfer attempt deadline (`a` = attempt).
    pub(super) const RESYNC: u64 = 6;

    pub(super) fn pack(kind: u64, a: u64, b: u64) -> u64 {
        (kind << 60) | ((a & 0xFFFF_FFFF) << 20) | (b & 0xF_FFFF)
    }

    pub(super) fn unpack(token: u64) -> (u64, u64, u64) {
        (token >> 60, (token >> 20) & 0xFFFF_FFFF, token & 0xF_FFFF)
    }
}

/// The round's batch-agreement state, one variant per backend.
enum Staging {
    /// Leader-echo: `proposed` is when the proposal phase ended (`None`
    /// while a follower still waits for the leader's proposal).
    Echo { proposed: Option<u64> },
    /// Dolev–Strong relays, decided at `deadline`.
    Ds {
        ds: DsBatch,
        relay_started: u64,
        last_needed: u64,
        deadline: u64,
    },
    /// One PBFT instance and its current view's window.
    Pbft {
        inst: Box<PbftBatch>,
        view_started: u64,
        view_deadline: u64,
    },
}

/// Results held for the round's word.
struct Exchange<F> {
    core: ReceiverCore<F>,
    batch: Vec<BatchEntry>,
    stop_at: u64,
    last_progress: u64,
}

/// What the machine is doing between inputs.
enum Step<F> {
    /// Between rounds: the next-round timer is armed.
    Idle,
    Staging(Staging),
    Exchanging(Exchange<F>),
    /// A durable state transfer is in flight. `sticky` triggers (behind or
    /// diverged) retry on timeout; `startup` is the catch-up after replay.
    Resyncing {
        sticky: bool,
        startup: bool,
    },
    /// Fail-stopped on the desync check (plain mode).
    Halted,
    /// The injected torn-snapshot fault fired: the node is dead.
    Torn,
    /// `max_rounds` reached.
    Done,
}

/// A peer's answer to a state-transfer request: one slot per peer (its
/// latest answer wins), so `b` Byzantine peers occupy at most `b` slots
/// and never evict honest answers.
struct ChunkEntry {
    round: u64,
    digest: u64,
    results: Vec<Vec<u64>>,
}

/// A state transfer that passed the `b + 1` acceptance rule.
struct VerifiedState {
    round: u64,
    results: Vec<Vec<u64>>,
}

/// One CSM gateway node as a sans-I/O state machine (see the module
/// docs). Build it with [`NodeMachine::new`], call
/// [`NodeMachine::start`] once, then feed it MAC-verified frames and the
/// timers it arms until [`NodeMachine::stopped`].
pub struct NodeMachine<F: Field> {
    id: usize,
    cluster: usize,
    faults: usize,
    code: Arc<CodedMachine<F>>,
    registry: Arc<KeyRegistry>,
    behavior: BehaviorKind,
    staging_fault: StagingFault,
    cfg: GatewayConfig,
    timing: ExchangeTiming,
    shards: usize,
    input_dim: usize,
    batch_cap: usize,

    engine: RoundEngine<F>,
    admission: Admission,
    durability: Option<(DurabilityConfig, u64)>,
    durable: Option<DurableCtx>,
    tear_snapshot_at: Option<u64>,
    recording: Arc<RecordingSink>,
    sink: SharedSink,
    started_at: u64,

    /// The wire round: advances on every round attempt, commit or not.
    round: u64,
    step: Step<F>,
    span_started: u64,
    span_last: u64,
    commits: VecDeque<Option<RoundCommit<F>>>,
    first_recorded_round: u64,
    fail_streak: u32,
    /// Highest round whose exchange finished; traffic at or below it is
    /// stale.
    finished: Option<u64>,
    desync_witness: Option<u64>,
    resync_attempt: u64,
    stopping: bool,

    pending: BTreeMap<u64, Vec<(usize, Vec<u64>)>>,
    stages: BTreeMap<u64, BTreeMap<usize, BatchRows>>,
    consensus: BTreeMap<u64, VecDeque<Frame>>,
    commit_votes: BTreeMap<u64, BTreeMap<usize, u64>>,
    client_inbox: VecDeque<Frame>,
    query_inbox: VecDeque<(u64, u64, u64)>,
    state_requests: BTreeMap<usize, u64>,
    state_chunks: BTreeMap<usize, ChunkEntry>,
    telemetry_requests: BTreeMap<usize, u64>,
    link_counters: Vec<(String, u64)>,
    dumped_peers: BTreeSet<usize>,
    dumped_decode_failure: bool,
}

impl<F: Field> std::fmt::Debug for NodeMachine<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMachine")
            .field("id", &self.id)
            .field("round", &self.round)
            .field("stats", &self.admission.stats)
            .finish_non_exhaustive()
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

fn to_field<F: Field>(values: &[u64]) -> Vec<F> {
    values.iter().map(|&v| F::from_u64(v)).collect()
}

fn wire_chain(chain: &[Signature]) -> Vec<(u64, u64)> {
    chain.iter().map(|s| (s.signer.0 as u64, s.tag)).collect()
}

impl<F: Field> NodeMachine<F> {
    /// Builds node `id` of the cluster `cfg` describes. `durability`
    /// enables the WAL, snapshots, startup replay, and resync; the store
    /// is opened by [`NodeMachine::start`].
    ///
    /// # Panics
    ///
    /// Panics if the spec's machine does not match `cfg.cluster`, the
    /// initial states are malformed, `batch_cap` exceeds the machine's
    /// program cap, or the cluster is too small for the backend.
    pub fn new(
        id: usize,
        registry: Arc<KeyRegistry>,
        timing: ExchangeTiming,
        spec: &GatewaySpec<F>,
        cfg: &GatewayConfig,
        durability: Option<&DurabilityConfig>,
    ) -> Self {
        let cluster = cfg.cluster;
        assert_eq!(
            spec.machine.n(),
            cluster,
            "machine sized for a different cluster"
        );
        assert!(id < cluster, "gateway runs on cluster nodes only");
        let batch_cap = cfg.batch_cap.max(1);
        assert!(
            batch_cap <= spec.machine.max_program_len(),
            "batch_cap {batch_cap} exceeds the machine's program cap {} — \
             size the code dimension with CodedMachine::with_program_cap",
            spec.machine.program_cap()
        );
        let min = cfg.consensus.min_cluster(cfg.assumed_faults);
        assert!(
            cluster >= min,
            "{} needs a cluster of at least {min} for b = {}",
            cfg.consensus,
            cfg.assumed_faults
        );
        let engine = RoundEngine::new(Arc::clone(&spec.machine), id, &spec.initial_states)
            .expect("spec states match the machine");
        // the gateway always aggregates into its own recording sink (so
        // any registered identity can scrape a snapshot), teed with the
        // config's extra sink when one is injected
        let recording = Arc::new(RecordingSink::with_capacity(cfg.flight_ring));
        let sink: SharedSink = match &cfg.sink {
            Some(extra) => Arc::new(TeeSink::new(vec![
                Arc::clone(&recording) as SharedSink,
                Arc::clone(extra),
            ])),
            None => Arc::clone(&recording) as SharedSink,
        };
        let durability = durability.map(|d| {
            let fingerprint = store_fingerprint(&spec.machine, id, &spec.initial_states);
            (d.clone(), fingerprint)
        });
        NodeMachine {
            id,
            cluster,
            faults: cfg.assumed_faults,
            shards: spec.machine.k(),
            input_dim: spec.machine.transition().input_dim(),
            code: Arc::clone(&spec.machine),
            registry,
            behavior: spec.behavior,
            staging_fault: spec.staging_fault,
            cfg: cfg.clone(),
            timing,
            batch_cap,
            engine,
            admission: Admission::default(),
            durability,
            durable: None,
            tear_snapshot_at: None,
            recording,
            sink,
            started_at: 0,
            round: 0,
            step: Step::Idle,
            span_started: 0,
            span_last: 0,
            commits: VecDeque::new(),
            first_recorded_round: 0,
            fail_streak: 0,
            finished: None,
            desync_witness: None,
            resync_attempt: 0,
            stopping: false,
            pending: BTreeMap::new(),
            stages: BTreeMap::new(),
            consensus: BTreeMap::new(),
            commit_votes: BTreeMap::new(),
            client_inbox: VecDeque::new(),
            query_inbox: VecDeque::new(),
            state_requests: BTreeMap::new(),
            state_chunks: BTreeMap::new(),
            telemetry_requests: BTreeMap::new(),
            link_counters: Vec::new(),
            dumped_peers: BTreeSet::new(),
            dumped_decode_failure: false,
        }
    }

    /// Starts the node. A durable node opens its store here, replays
    /// `snapshot + log`, and — when the store has history, i.e. the node
    /// lived before — catches up from peers with a `b + 1`-verified state
    /// transfer before its first round.
    ///
    /// # Panics
    ///
    /// Panics on storage I/O failure: a node that cannot persist must not
    /// serve.
    pub fn start(&mut self, io: &mut impl NodeIo) {
        self.started_at = io.now();
        if let Some((config, fingerprint)) = &self.durability {
            let genesis = self.engine.coded_state().to_vec();
            let (ctx, replayed, had_history) = DurableCtx::open(
                config,
                &self.code,
                *fingerprint,
                genesis,
                self.tear_snapshot_at,
            );
            self.engine
                .restore(replayed.coded_state, replayed.next_round)
                .expect("replayed state is state-dim wide");
            // exactly-once must survive restarts: the dedup horizons
            // replayed from snapshot + WAL are part of the recovered state
            self.admission.horizon = replayed.horizons;
            self.durable = Some(ctx);
            self.resume_at(replayed.next_round);
            if had_history {
                // the cluster may have committed past the durable
                // frontier while this node was down
                self.enter_resync(io, false, true);
                return;
            }
            self.finish_startup(io);
        }
        io.set_timer(io.now(), timer::pack(timer::NEXT, self.round, 0));
    }

    /// A MAC-verified inbound frame.
    pub fn on_frame(&mut self, io: &mut impl NodeIo, frame: Frame) {
        if self.stopped() {
            return;
        }
        let signer = frame.sig.signer.0;
        let from_cluster = signer < self.cluster;
        match &frame.payload {
            Payload::Submit {
                client, command, ..
            } => {
                // identity binding: the claimed client must be the MAC
                // signer and a *client* id (past the cluster range)
                if *client != signer as u64 || from_cluster || command.len() > PENDING_MAX_VALUES {
                    return;
                }
                if self.client_inbox.len() >= CLIENT_INBOX_CAP {
                    self.admission.stats.inbox_dropped += 1;
                    return;
                }
                self.client_inbox.push_back(frame);
                return;
            }
            Payload::BatchRelay { round, .. }
            | Payload::BatchVote { round, .. }
            | Payload::BatchViewChange { round, .. }
            | Payload::BatchNewView { round, .. } => {
                let round = *round;
                if !from_cluster
                    || !self.in_window(round)
                    || consensus_weight(&frame.payload) > PENDING_MAX_VALUES
                {
                    return;
                }
                if round == self.round && self.staging_consensus() {
                    self.on_consensus_frame(io, frame);
                } else {
                    let slot = self.consensus.entry(round).or_default();
                    if slot.len() < CONSENSUS_ROUND_CAP {
                        slot.push_back(frame);
                    }
                }
                return;
            }
            _ => {}
        }
        match frame.payload {
            Payload::Result {
                round,
                sender,
                values,
            } => self.on_result(io, signer, round, sender as usize, values),
            Payload::Stage {
                round,
                sender,
                commands,
            } => {
                let size = commands.len() + commands.iter().map(Vec::len).sum::<usize>();
                if !from_cluster
                    || sender != signer as u64
                    || !self.in_window(round)
                    || size > PENDING_MAX_VALUES
                {
                    return;
                }
                // first vote per (round, signer) wins
                let votes = self.stages.entry(round).or_default();
                if votes.contains_key(&signer) {
                    return;
                }
                votes.insert(signer, commands);
                if round == self.round {
                    self.on_stage_vote(io, signer);
                }
            }
            Payload::Commit {
                round,
                sender,
                digest,
            } => {
                let horizon = self
                    .finished
                    .map_or(ROUND_LOOKAHEAD, |d| d.saturating_add(ROUND_LOOKAHEAD));
                if from_cluster && sender == signer as u64 && round <= horizon {
                    self.commit_votes
                        .entry(round)
                        .or_default()
                        .insert(signer, digest);
                }
            }
            Payload::StateRequest { from_round } if from_cluster && signer != self.id => {
                self.state_requests.insert(signer, from_round);
            }
            Payload::StateChunk {
                round,
                digest,
                results,
            } => {
                let size = results.len() + results.iter().map(Vec::len).sum::<usize>();
                if from_cluster
                    && size <= PENDING_MAX_VALUES
                    && matches!(self.step, Step::Resyncing { .. })
                {
                    self.state_chunks.insert(
                        signer,
                        ChunkEntry {
                            round,
                            digest,
                            results,
                        },
                    );
                    self.try_install(io);
                }
            }
            Payload::Query { shard, client, qid } => {
                if client != signer as u64 || from_cluster {
                    return;
                }
                if self.query_inbox.len() >= QUERY_INBOX_CAP {
                    self.admission.stats.query_dropped += 1;
                    return;
                }
                self.query_inbox.push_back((shard, client, qid));
            }
            // any registered identity may scrape; one slot per
            // requester, latest nonce wins
            Payload::TelemetryRequest { nonce } if signer != self.id => {
                self.telemetry_requests.insert(signer, nonce);
            }
            _ => {}
        }
    }

    /// A timer this machine armed has fired.
    pub fn on_timer(&mut self, io: &mut impl NodeIo, token: u64) {
        let (kind, a, b) = timer::unpack(token);
        if kind == timer::RESYNC {
            if let Step::Resyncing { sticky, startup } = self.step {
                if a == self.resync_attempt & 0xFFFF_FFFF {
                    self.transfer_failed(io, sticky, startup);
                }
            }
            return;
        }
        if a != self.round & 0xFFFF_FFFF {
            return;
        }
        match (kind, &self.step) {
            (timer::NEXT, Step::Idle) => self.start_round(io),
            (timer::STAGE, Step::Staging(Staging::Echo { .. })) => self.finish_echo(io, None),
            (timer::STAGE, Step::Staging(Staging::Ds { .. })) => self.decide_ds(io),
            (timer::VIEW, Step::Staging(Staging::Pbft { inst, .. }))
                if inst.view() == b && inst.decided().is_none() =>
            {
                self.drive_pbft(io, None)
            }
            (timer::EXCHANGE, Step::Exchanging(_)) => self.finish_exchange(io, true),
            _ => {}
        }
    }

    /// Winds the node down: the round in flight still completes — PBFT,
    /// which has no unilateral deadline, falls back to the empty batch at
    /// once — and no new round starts. [`NodeMachine::stopped`] turns
    /// true when the node is done.
    pub fn shutdown(&mut self, io: &mut impl NodeIo) {
        self.stopping = true;
        match self.step {
            Step::Idle | Step::Resyncing { .. } => self.step = Step::Done,
            Step::Staging(Staging::Pbft { .. }) => self.finish_staging(io, None),
            _ => {}
        }
    }

    /// Whether the machine has stopped for good: fail-stopped on the
    /// desync check, reached `max_rounds`, finished its last round after
    /// [`NodeMachine::shutdown`], or died on the torn-snapshot fault. A
    /// driver stops driving it.
    pub fn stopped(&self) -> bool {
        matches!(self.step, Step::Halted | Step::Torn | Step::Done)
    }

    /// The wire round (the round being run, or the next one to start).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The admission, reply, and durability counters.
    pub fn stats(&self) -> &GatewayStats {
        &self.admission.stats
    }

    /// The node's telemetry sink (its recording sink, teed with
    /// [`GatewayConfig::sink`]) — drivers report their own incidents here,
    /// such as frames their MAC check rejected.
    pub(crate) fn sink(&self) -> &SharedSink {
        &self.sink
    }

    /// The node's coded state (one machine-state-wide word).
    pub fn coded_state(&self) -> &[F] {
        self.engine.coded_state()
    }

    /// Crash-recovery details (durable nodes, once started).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.durable.as_ref().map(|ctx| &ctx.info)
    }

    /// Replaces the driver-side counters (transport delivery and MAC
    /// statistics) served in telemetry snapshots.
    pub(crate) fn set_link_counters(&mut self, counters: Vec<(String, u64)>) {
        self.link_counters = counters;
    }

    /// The report of everything the node did.
    pub fn into_report(self) -> GatewayReport<F> {
        GatewayReport {
            id: self.id,
            commits: self.commits.into(),
            first_recorded_round: self.first_recorded_round,
            rounds: self.round,
            stats: self.admission.stats,
            recovery: self.durable.map(|ctx| ctx.info),
        }
    }

    /// Crashes the node at its `ordinal`-th (1-based) interval snapshot,
    /// after the WAL append and before the install lands (the chaos
    /// harness's torn-snapshot fault). Must be set before
    /// [`NodeMachine::start`].
    pub(crate) fn tear_snapshot_at(&mut self, ordinal: u64) {
        self.tear_snapshot_at = Some(ordinal);
    }

    /// Whether the torn-snapshot fault fired.
    pub(crate) fn torn(&self) -> bool {
        matches!(self.step, Step::Torn)
    }

    /// Whether a state transfer is in flight.
    pub(crate) fn resyncing(&self) -> bool {
        matches!(self.step, Step::Resyncing { .. })
    }

    /// The per-client dedup horizons.
    pub(crate) fn horizons(&self) -> &BTreeMap<u64, u64> {
        &self.admission.horizon
    }

    /// The `(wire round, digest)` commits this node still vouches for:
    /// its retained history, minus everything from a desync fail-stop's
    /// witness round on (those rounds were committed on divergent state,
    /// and the fail-stop is their detection).
    pub(crate) fn vouched(&self) -> BTreeMap<u64, u64> {
        let last = self.desync_witness.unwrap_or(u64::MAX);
        (self.first_recorded_round..)
            .zip(&self.commits)
            .filter(|&(round, _)| round < last)
            .filter_map(|(round, c)| c.as_ref().map(|c| (round, c.digest)))
            .collect()
    }

    // -- round lifecycle -------------------------------------------------

    fn leader(&self) -> usize {
        (self.round % self.cluster as u64) as usize
    }

    fn in_window(&self, round: u64) -> bool {
        self.finished.is_none_or(|d| round > d)
            && round
                <= self
                    .finished
                    .map_or(ROUND_LOOKAHEAD, |d| d.saturating_add(ROUND_LOOKAHEAD))
    }

    /// Marks every round below `next` finished and drops traffic for them.
    fn resume_at(&mut self, next: u64) {
        if let Some(done) = next.checked_sub(1) {
            self.finish_through(done);
        }
        self.commits.clear();
        self.first_recorded_round = next;
        self.round = next;
    }

    fn finish_through(&mut self, round: u64) {
        let done = self.finished.map_or(round, |f| f.max(round));
        self.finished = Some(done);
        self.pending = self.pending.split_off(&(done + 1));
        self.stages = self.stages.split_off(&(done + 1));
        self.consensus = self.consensus.split_off(&(done + 1));
        self.commit_votes = self
            .commit_votes
            .split_off(&done.saturating_sub(ROUND_LOOKAHEAD));
    }

    /// The top of a round: serve, check divergence, then admit and stage.
    fn start_round(&mut self, io: &mut impl NodeIo) {
        if self.stopping || self.round >= self.cfg.max_rounds {
            self.step = Step::Done;
            return;
        }
        self.serve(io);
        // `b + 1` peers agreeing on a commit this node does not hold prove
        // an honest majority moved on without it. A plain node fail-stops
        // (on strictly past rounds only — a lagging node must not kill
        // itself over a round it is about to commit); a durable node
        // resyncs, and also when peers committed its current round or
        // later, or after two undecodable rounds in a row.
        let diverged = self.diverged();
        if self.durable.is_some() {
            let behind = self.commit_frontier().is_some_and(|r| r >= self.round);
            if behind || diverged.is_some() || self.fail_streak >= 2 {
                self.fail_streak = 0;
                self.enter_resync(io, behind || diverged.is_some(), false);
                return;
            }
        } else if let Some(witness) = diverged {
            self.admission.stats.desynced = true;
            self.desync_witness = Some(witness);
            self.event(None, Event::Desync);
            self.flight_dump("desync");
            self.step = Step::Halted;
            return;
        }
        self.begin_round(io);
    }

    /// Admission, the proposal, and the start of batch agreement.
    fn begin_round(&mut self, io: &mut impl NodeIo) {
        let frames: Vec<Frame> = self.client_inbox.drain(..).collect();
        let scope = EventScope {
            sink: self.sink.as_ref(),
            node: self.id,
            round: self.round,
        };
        let replays = self
            .admission
            .admit(frames, self.shards, self.input_dim, &self.cfg, &scope);
        for (client, payload) in replays {
            // a withholder stays silent on retries too
            if let Some(payload) = reply_after_fault(payload, self.behavior) {
                self.send(io, client as usize, payload);
            }
        }
        let proposal = encode_batch(&self.admission.build_batch(self.shards, self.batch_cap));
        if self.behavior == BehaviorKind::Equivocate {
            // wire-level misbehavior to go with the result equivocation:
            // a frame forged in the next peer's name, which honest MAC
            // checks drop and attribute to the claimed signer
            let victim = NodeId((self.id + 1) % self.cluster);
            let forged = Frame::forge(
                Payload::Ping { nonce: self.round },
                &self.registry,
                NodeId(self.id),
                victim,
            );
            io.broadcast_upto(self.cluster, &forged);
        }
        let now = io.now();
        self.span_started = now;
        self.span_last = now;
        match self.cfg.consensus {
            ConsensusKind::LeaderEcho => self.start_echo(io, proposal),
            ConsensusKind::DolevStrong => self.start_ds(io, proposal),
            ConsensusKind::Pbft => self.start_pbft(io, proposal),
        }
    }

    // -- staging: leader-echo --------------------------------------------

    /// The leader proposes its batch as its `Stage` vote, followers echo
    /// a valid proposal bit-for-bit when it arrives, and a node adopts as
    /// soon as `N − b` identical votes are held — all inside one window
    /// of two stage timeouts from round entry, after which the round
    /// falls back to the empty batch.
    fn start_echo(&mut self, io: &mut impl NodeIo, proposal: BatchRows) {
        self.step = Step::Staging(Staging::Echo { proposed: None });
        io.set_timer(
            self.span_started + 2 * micros(self.cfg.stage_timeout),
            timer::pack(timer::STAGE, self.round, 0),
        );
        if self.id != self.leader() {
            // votes that raced ahead of this node's round
            self.on_stage_vote(io, self.leader());
            return;
        }
        match self.staging_fault {
            StagingFault::None => self.announce_stage(io, proposal),
            StagingFault::WithholdBatch => {}
            StagingFault::EquivocateBatch => {
                let (round, me) = (self.round, self.id as u64);
                self.send_equivocation(io, &proposal, |rows| Payload::Stage {
                    round,
                    sender: me,
                    commands: rows,
                });
                // the leader votes for the full batch it showed the evens
                // — it knows its own proposal, and abstaining would only
                // blunt the attack
                self.stages
                    .entry(self.round)
                    .or_default()
                    .insert(self.id, proposal);
            }
            // followers refuse to echo the ill-formed program, so no echo
            // quorum forms and everyone falls back
            StagingFault::OverCapBatch => self.announce_stage(io, overcap_variant(&proposal)),
        }
        let now = io.now();
        self.close_proposal(now, None);
        self.check_echo_quorum(io);
    }

    /// Ends the proposal phase. For a follower, `follower_got` says
    /// whether the leader's proposal came; the stage-window slack is the
    /// part of one stage timeout the leader left unused (0 when it never
    /// came).
    fn close_proposal(&mut self, now: u64, follower_got: Option<bool>) {
        let waited = now - self.span_started;
        if let Some(got) = follower_got {
            let slack = if got {
                micros(self.cfg.stage_timeout).saturating_sub(waited)
            } else {
                0
            };
            self.value("slack.stage", slack);
        }
        self.lap(Phase::ConsensusPropose, waited);
        self.step = Step::Staging(Staging::Echo {
            proposed: Some(now),
        });
    }

    /// A new `Stage` vote for the current round was recorded: echo the
    /// leader's proposal, then look for a quorum.
    fn on_stage_vote(&mut self, io: &mut impl NodeIo, voter: usize) {
        let Step::Staging(Staging::Echo { proposed }) = self.step else {
            return;
        };
        let proposal = self.stages.get(&self.round).and_then(|v| v.get(&voter));
        if let (None, Some(rows)) = (proposed, proposal.filter(|_| voter == self.leader())) {
            let rows = rows.clone();
            self.close_proposal(io.now(), Some(true));
            if self.batch_valid(&rows) {
                self.announce_stage(io, rows);
            }
        }
        self.check_echo_quorum(io);
    }

    fn check_echo_quorum(&mut self, io: &mut impl NodeIo) {
        let Some(votes) = self.stages.get(&self.round) else {
            return;
        };
        let mut counts: BTreeMap<&BatchRows, usize> = BTreeMap::new();
        let mut decided = None;
        for rows in votes.values() {
            let c = counts.entry(rows).or_insert(0);
            *c += 1;
            if *c >= self.cfg.quorum() {
                decided = Some(rows.clone());
                break;
            }
        }
        if decided.is_some() {
            self.finish_echo(io, decided);
        }
    }

    /// Leader-echo decided (a quorum) or timed out (`None`).
    fn finish_echo(&mut self, io: &mut impl NodeIo, decided: Option<BatchRows>) {
        let Step::Staging(Staging::Echo { proposed }) = self.step else {
            return;
        };
        let now = io.now();
        let proposed = proposed.unwrap_or_else(|| {
            self.close_proposal(now, (self.id != self.leader()).then_some(false));
            now
        });
        self.lap(Phase::ConsensusCommit, now - proposed);
        // consensus-window slack: the part of the staging window the
        // decision left unused
        let window_end = self.span_started + 2 * micros(self.cfg.stage_timeout);
        self.value("slack.consensus", window_end.saturating_sub(now));
        self.finish_staging(io, decided);
    }

    /// Broadcasts this node's `Stage` vote and records it.
    fn announce_stage(&mut self, io: &mut impl NodeIo, rows: BatchRows) {
        self.broadcast(
            io,
            Payload::Stage {
                round: self.round,
                sender: self.id as u64,
                commands: rows.clone(),
            },
        );
        self.stages
            .entry(self.round)
            .or_default()
            .insert(self.id, rows);
    }

    // -- staging: Dolev–Strong -------------------------------------------

    /// The leader's batch runs through signature-chained relays; the
    /// decision is taken after relay round `b + 1` plus one full relay
    /// round of grace for round-entry skew.
    fn start_ds(&mut self, io: &mut impl NodeIo, proposal: BatchRows) {
        let mut ds = DsBatch::new(
            self.round,
            self.cluster,
            self.faults,
            self.leader(),
            self.id,
            Arc::clone(&self.registry),
        );
        if self.id == self.leader() {
            match self.staging_fault {
                StagingFault::None => {
                    let relay = ds.propose(proposal);
                    self.broadcast_relay(io, &relay);
                }
                StagingFault::WithholdBatch => {}
                StagingFault::EquivocateBatch => {
                    let round = self.round;
                    self.send_equivocation(io, &proposal, |rows| Payload::BatchRelay {
                        round,
                        chain: wire_chain(&[ds.sign_value(&rows)]),
                        rows,
                    });
                }
                // DS agrees on the bytes; the post-decision validity
                // filter rejects them at every honest node alike
                StagingFault::OverCapBatch => {
                    let relay = ds.propose(overcap_variant(&proposal));
                    self.broadcast_relay(io, &relay);
                }
            }
        }
        let now = io.now();
        self.lap(Phase::ConsensusPropose, now - self.span_started);
        let deadline =
            self.span_started + micros(self.cfg.consensus_delta) * (self.faults as u64 + 2);
        self.step = Step::Staging(Staging::Ds {
            ds,
            relay_started: now,
            last_needed: now,
            deadline,
        });
        io.set_timer(deadline, timer::pack(timer::STAGE, self.round, 0));
        self.drain_consensus(io);
    }

    fn on_relay(&mut self, io: &mut impl NodeIo, rows: BatchRows, chain: Vec<(u64, u64)>) {
        let now = io.now();
        let relay_round = (now - self.span_started) / micros(self.cfg.consensus_delta).max(1);
        let Step::Staging(Staging::Ds {
            ds, last_needed, ..
        }) = &mut self.step
        else {
            return;
        };
        let chain = chain
            .into_iter()
            .map(|(signer, tag)| Signature {
                signer: NodeId(signer as usize),
                tag,
            })
            .collect();
        if let Some(fwd) = ds.on_relay(DsRelay { rows, chain }, relay_round as usize) {
            *last_needed = now;
            self.broadcast_relay(io, &fwd);
        }
    }

    fn decide_ds(&mut self, io: &mut impl NodeIo) {
        let Step::Staging(Staging::Ds {
            ds,
            relay_started,
            last_needed,
            deadline,
        }) = std::mem::replace(&mut self.step, Step::Idle)
        else {
            return;
        };
        // consensus-window slack: DS always waits out its relay schedule,
        // so the time since the last relay that advanced it is pure wait
        self.value("slack.consensus", deadline.saturating_sub(last_needed));
        self.lap(Phase::ConsensusRelay, io.now() - relay_started);
        // DS agrees on bytes, not validity: the (deterministic, shared)
        // validity filter keeps a Byzantine leader's replayed command out
        // while every honest node still adopts or falls back together
        let decided = ds.decide().filter(|rows| self.batch_valid(rows));
        self.finish_staging(io, decided);
    }

    fn broadcast_relay(&self, io: &mut impl NodeIo, relay: &DsRelay) {
        self.broadcast(
            io,
            Payload::BatchRelay {
                round: self.round,
                rows: relay.rows.clone(),
                chain: wire_chain(&relay.chain),
            },
        );
    }

    // -- staging: PBFT ---------------------------------------------------

    /// PBFT with view changes: the view-0 primary is the round leader, and
    /// there is no unilateral deadline — a node that gave up while peers
    /// decided would execute a divergent batch.
    fn start_pbft(&mut self, io: &mut impl NodeIo, proposal: BatchRows) {
        let round = self.round;
        let config = PbftBatchConfig {
            n: self.cluster,
            f: self.faults,
            round,
            leader: self.leader(),
            base_timeout: self.cfg.stage_timeout,
        };
        let mut inst = PbftBatch::new(
            config,
            self.id,
            Arc::clone(&self.registry),
            proposal.clone(),
        );
        if self.id == self.leader() {
            match self.staging_fault {
                StagingFault::None => {
                    for msg in inst.start(&|rows: &[Vec<u64>]| self.batch_valid(rows)) {
                        self.broadcast(io, pbft_to_wire(round, &msg));
                    }
                }
                StagingFault::WithholdBatch => {}
                StagingFault::EquivocateBatch => {
                    self.send_equivocation(io, &proposal, |rows| {
                        pbft_to_wire(round, &inst.sign_pre_prepare(0, rows))
                    });
                }
                // honest replicas refuse to prepare the ill-formed
                // program; a view change rotates to an honest primary
                StagingFault::OverCapBatch => {
                    let msg = inst.sign_pre_prepare(0, overcap_variant(&proposal));
                    self.broadcast(io, pbft_to_wire(round, &msg));
                }
            }
        }
        let now = io.now();
        let view_deadline = now + micros(inst.config().timeout_of(0));
        io.set_timer(view_deadline, timer::pack(timer::VIEW, round, 0));
        self.step = Step::Staging(Staging::Pbft {
            inst: Box::new(inst),
            view_started: now,
            view_deadline,
        });
        self.drain_consensus(io);
        self.check_pbft_decided(io);
    }

    /// Feeds one message (or, with `None`, the view timeout) to the PBFT
    /// instance, then handles view changes and the decision.
    fn drive_pbft(&mut self, io: &mut impl NodeIo, msg: Option<(usize, PbftBatchMsg)>) {
        if !matches!(self.step, Step::Staging(Staging::Pbft { .. })) {
            return;
        }
        let Step::Staging(Staging::Pbft {
            mut inst,
            mut view_started,
            mut view_deadline,
        }) = std::mem::replace(&mut self.step, Step::Idle)
        else {
            unreachable!("checked above");
        };
        let view = inst.view();
        let valid = |rows: &[Vec<u64>]| self.batch_valid(rows);
        let out = match msg {
            Some((from, msg)) => inst.on_message(from, msg, &valid),
            None => inst.on_timeout(&valid),
        };
        for msg in &out {
            self.broadcast(io, pbft_to_wire(self.round, msg));
        }
        if inst.view() != view {
            // the abandoned view's time is view-change cost
            let now = io.now();
            self.lap(Phase::ConsensusViewChange, now - view_started);
            self.event(None, Event::ViewChange { view: inst.view() });
            view_started = now;
            view_deadline = now + micros(inst.config().timeout_of(inst.view()));
            io.set_timer(
                view_deadline,
                timer::pack(timer::VIEW, self.round, inst.view()),
            );
        }
        self.step = Step::Staging(Staging::Pbft {
            inst,
            view_started,
            view_deadline,
        });
        self.check_pbft_decided(io);
    }

    fn check_pbft_decided(&mut self, io: &mut impl NodeIo) {
        let Step::Staging(Staging::Pbft {
            inst,
            view_started,
            view_deadline,
        }) = &self.step
        else {
            return;
        };
        let Some(rows) = inst.decided().cloned() else {
            return;
        };
        let (view_started, view_deadline, now) = (*view_started, *view_deadline, io.now());
        self.lap(Phase::ConsensusCommit, now - view_started);
        // consensus-window slack: how much of the view's timeout provision
        // the decision left unused
        self.value("slack.consensus", view_deadline.saturating_sub(now));
        self.finish_staging(io, Some(rows));
    }

    // -- staging: shared -------------------------------------------------

    fn staging_consensus(&self) -> bool {
        matches!(
            self.step,
            Step::Staging(Staging::Ds { .. } | Staging::Pbft { .. })
        )
    }

    fn on_consensus_frame(&mut self, io: &mut impl NodeIo, frame: Frame) {
        let signer = frame.sig.signer.0;
        match (&self.step, frame.payload) {
            (Step::Staging(Staging::Ds { .. }), Payload::BatchRelay { rows, chain, .. }) => {
                self.on_relay(io, rows, chain)
            }
            (Step::Staging(Staging::Pbft { .. }), payload) => {
                if let Some(msg) = pbft_from_wire(payload, signer) {
                    self.drive_pbft(io, Some((signer, msg)));
                }
            }
            // the other backend's frame: ignore
            _ => {}
        }
    }

    /// Replays consensus frames that arrived before this round's staging.
    fn drain_consensus(&mut self, io: &mut impl NodeIo) {
        for frame in self.consensus.remove(&self.round).unwrap_or_default() {
            if !self.staging_consensus() {
                break;
            }
            self.on_consensus_frame(io, frame);
        }
    }

    /// The shared batch-validity predicate: client MACs, shape, the
    /// per-shard program cap, and the dedup horizon.
    fn batch_valid(&self, rows: &[Vec<u64>]) -> bool {
        decode_batch(
            rows,
            self.shards,
            self.batch_cap,
            self.input_dim,
            self.cluster,
            &self.registry,
        )
        .is_some_and(|batch| {
            batch.iter().all(|e| {
                self.admission
                    .horizon
                    .get(&e.client)
                    .is_none_or(|&s| s < e.seq)
            })
        })
    }

    /// The equivocating leader's fan-out, shared by every backend: the
    /// honest proposal to even-id peers, its truncated variant to odd-id
    /// peers.
    fn send_equivocation(
        &self,
        io: &mut impl NodeIo,
        proposal: &BatchRows,
        mut payload_for: impl FnMut(BatchRows) -> Payload,
    ) {
        let alt = equivocation_variant(proposal);
        for peer in (0..self.cluster).filter(|&p| p != self.id) {
            let rows = if peer % 2 == 0 {
                proposal.clone()
            } else {
                alt.clone()
            };
            self.send(io, peer, payload_for(rows));
        }
    }

    // -- execute, exchange, commit ---------------------------------------

    /// Batch agreed (or fallen back to empty): execute it, send this
    /// node's coded result per its behavior, and collect the word.
    fn finish_staging(&mut self, io: &mut impl NodeIo, agreed: Option<BatchRows>) {
        self.mark(io, Phase::Consensus);
        if agreed.is_none() {
            self.admission.stats.stage_fallbacks += 1;
            self.event(None, Event::StageFallback);
        }
        let batch = agreed
            .as_deref()
            .and_then(|rows| {
                decode_batch(
                    rows,
                    self.shards,
                    self.batch_cap,
                    self.input_dim,
                    self.cluster,
                    &self.registry,
                )
            })
            .unwrap_or_default();
        if batch.is_empty() {
            self.admission.stats.empty_rounds += 1;
            self.event(None, Event::EmptyRound);
        } else {
            self.recording
                .record_value("batch_size", batch.len() as u64);
        }
        // per-shard command programs in row order; idle shards run the
        // empty program
        let mut programs: Vec<Vec<Vec<F>>> = vec![Vec::new(); self.shards];
        for entry in &batch {
            programs[entry.shard].push(to_field(&entry.command));
        }
        let g = self
            .engine
            .execute_batched(&programs)
            .expect("validated batch shape");
        let behavior = wire_behavior(
            self.id,
            self.cluster,
            self.code.result_dim(),
            self.behavior,
            g,
        );
        self.mark(io, Phase::Execute);

        let mut core = ReceiverCore::new(
            self.cluster,
            self.timing.synchrony,
            self.timing.assumed_faults,
        );
        match behavior {
            ResultBehavior::Honest(g) => {
                let payload = result_payload(self.round, self.id, &g);
                // a node trivially receives its own result
                core.record(self.id, g);
                self.broadcast(io, payload);
            }
            ResultBehavior::Equivocate(base) => {
                for peer in (0..self.cluster).filter(|&p| p != self.id) {
                    let noise = F::from_u64(equivocation_noise(peer));
                    let noisy: Vec<F> = base.iter().map(|&x| x + noise).collect();
                    self.send(io, peer, result_payload(self.round, self.id, &noisy));
                }
            }
            ResultBehavior::Withhold => {}
            ResultBehavior::Impersonate { spoof, forged } => {
                // signed with our key but claiming `spoof`: every
                // receiver's MAC check drops it
                let frame = Frame::forge(
                    result_payload(self.round, spoof, &forged),
                    &self.registry,
                    NodeId(self.id),
                    NodeId(spoof),
                );
                io.broadcast_upto(self.cluster, &frame);
            }
        }
        // results that raced ahead of this node's round
        for (sender, values) in self.pending.remove(&self.round).unwrap_or_default() {
            core.record(sender, to_field(&values));
        }
        let now = io.now();
        let stop_at = now
            + micros(match self.timing.synchrony {
                SynchronyMode::Synchronous => self.timing.delta,
                SynchronyMode::PartiallySynchronous => self.timing.max_wait,
            });
        self.step = Step::Exchanging(Exchange {
            core,
            batch,
            stop_at,
            last_progress: now,
        });
        if self.word_final() {
            self.finish_exchange(io, false);
        } else {
            io.set_timer(stop_at, timer::pack(timer::EXCHANGE, self.round, 0));
        }
    }

    fn on_result(
        &mut self,
        io: &mut impl NodeIo,
        signer: usize,
        round: u64,
        sender: usize,
        values: Vec<u64>,
    ) {
        // authenticated Byzantine model: the wire identity is the
        // protocol-level sender
        if sender != signer || sender >= self.cluster {
            return;
        }
        if round == self.round {
            if let Step::Exchanging(x) = &mut self.step {
                let held = x.core.results_held();
                x.core.record(sender, to_field(&values));
                if x.core.results_held() > held {
                    x.last_progress = io.now();
                }
                if self.word_final() {
                    self.finish_exchange(io, false);
                }
                return;
            }
        }
        if !self.in_window(round) || values.len() > PENDING_MAX_VALUES {
            return;
        }
        let slot = self.pending.entry(round).or_default();
        if !slot.iter().any(|(s, _)| *s == sender) {
            slot.push((sender, values));
        }
    }

    /// Whether the word froze early: the partial-synchrony cutoff, or a
    /// full word when full-word finalization is on.
    fn word_final(&self) -> bool {
        let Step::Exchanging(x) = &self.step else {
            return false;
        };
        x.core.is_finalized()
            || (self.timing.finalize_on_full && x.core.results_held() == self.cluster)
    }

    /// The word is final: decode and commit (log, announce, reply) or
    /// count the failure, then schedule the next round.
    fn finish_exchange(&mut self, io: &mut impl NodeIo, waited_out: bool) {
        let Step::Exchanging(mut x) = std::mem::replace(&mut self.step, Step::Idle) else {
            return;
        };
        if waited_out {
            x.core.on_deadline();
        }
        // Δ-slack: how long the window kept waiting after the last result
        // arrived (0 when it froze early)
        let slack = if waited_out {
            x.stop_at.saturating_sub(x.last_progress)
        } else {
            0
        };
        self.value("slack.exchange", slack);
        self.finish_through(self.round);
        self.mark(io, Phase::Exchange);

        let prev_state = self
            .durable
            .is_some()
            .then(|| self.engine.coded_state().to_vec());
        let commit = self.engine.commit_word(&x.core.into_word());
        self.mark(io, Phase::Decode);
        let empty = x.batch.is_empty();
        match &commit {
            Some(c) => {
                if !self.commit(io, c, &x.batch, prev_state) {
                    return;
                }
            }
            None => {
                self.fail_streak += 1;
                self.event(None, Event::DecodeFailure);
                if !self.dumped_decode_failure {
                    self.dumped_decode_failure = true;
                    self.flight_dump("decode-failure");
                }
            }
        }
        self.lap(Phase::Round, io.now() - self.span_started);
        self.commits.push_back(commit);
        // a long-lived gateway keeps a trailing window of history only
        if self.commits.len() > self.cfg.commit_history {
            self.commits.pop_front();
            self.first_recorded_round += 1;
        }
        self.round += 1;
        if self.stopping {
            self.step = Step::Done;
            return;
        }
        // idle pacing: an empty round over a fast mesh would otherwise
        // spin staging and exchange at network speed
        let pause = if empty {
            micros(self.cfg.idle_pause)
        } else {
            0
        };
        io.set_timer(io.now() + pause, timer::pack(timer::NEXT, self.round, 0));
    }

    /// Commits a decoded round: bookkeeping, WAL before acknowledgement,
    /// the commit announcement, and client replies. Returns `false` when
    /// the torn-snapshot fault killed the node mid-commit.
    fn commit(
        &mut self,
        io: &mut impl NodeIo,
        c: &RoundCommit<F>,
        batch: &[BatchEntry],
        prev_state: Option<Vec<F>>,
    ) -> bool {
        // detection falls out of the decode (§5.2): attribute it, and keep
        // the evidence ring on the first sighting of each peer
        for &peer in &c.detected_error_nodes {
            self.event(Some(peer), Event::EquivocationDetected);
            if self.dumped_peers.insert(peer) {
                self.flight_dump("byzantine-detected");
            }
        }
        // bookkeeping first, so a snapshot taken inside the WAL append
        // already reflects this round's batch
        let mut replies = Vec::with_capacity(batch.len());
        for entry in batch {
            let reply = reply_payload(entry, c);
            for client in self.admission.record_done(
                entry,
                reply.clone(),
                self.batch_cap,
                self.cfg.reply_cache_cap,
            ) {
                self.event(None, Event::ReplyCacheEviction { client });
            }
            replies.push((entry.client, reply));
        }
        self.admission.stats.commands_committed += batch.len() as u64;
        if let (Some(ctx), Some(prev)) = (self.durable.as_mut(), prev_state) {
            // durability before acknowledgement: the batch, digest, and
            // coded-state delta are fsynced before anything leaves
            let state_delta = self
                .engine
                .coded_state()
                .iter()
                .zip(&prev)
                .map(|(new, old)| (*new - *old).to_canonical_u64())
                .collect();
            let record = CommitRecord {
                round: c.round,
                digest: c.digest,
                batch: encode_batch(batch),
                state_delta,
                protocol: self.cfg.consensus.wal_protocol(),
                batch_cap: self.batch_cap as u32,
            };
            match ctx.log_commit(&record, &self.engine, &self.admission.horizon) {
                Logged::Torn => {
                    self.step = Step::Torn;
                    return false;
                }
                Logged::Appended { snapshotted } => {
                    self.admission.stats.wal_appends += 1;
                    self.admission.stats.snapshots += u64::from(snapshotted);
                }
            }
            if ctx.info.first_commit_after.is_none() {
                let since = io.now().saturating_sub(self.started_at);
                ctx.info.first_commit_after = Some(Duration::from_micros(since));
            }
            self.mark(io, Phase::WalFsync);
        }
        self.broadcast(
            io,
            Payload::Commit {
                round: self.round,
                sender: self.id as u64,
                digest: c.digest,
            },
        );
        for (client, reply) in replies {
            if let Some(reply) = reply_after_fault(reply, self.behavior) {
                self.send(io, client as usize, reply);
                self.admission.stats.replies_sent += 1;
            }
        }
        self.mark(io, Phase::Reply);
        self.fail_streak = 0;
        true
    }

    // -- divergence and state transfer -----------------------------------

    /// Per digest, how many *other* nodes announced it.
    fn tally(&self, votes: &BTreeMap<usize, u64>) -> BTreeMap<u64, usize> {
        let mut tallies = BTreeMap::new();
        for (&node, &digest) in votes {
            if node != self.id {
                *tallies.entry(digest).or_insert(0) += 1;
            }
        }
        tallies
    }

    /// The earliest recent round where `b + 1` peers agree on a digest
    /// this node does not hold (more voters than the Byzantine population
    /// can muster).
    fn diverged(&self) -> Option<u64> {
        (self.round.saturating_sub(DESYNC_WINDOW)..self.round)
            .filter(|&past| past >= self.first_recorded_round)
            .find(|&past| {
                let own = self
                    .commits
                    .get((past - self.first_recorded_round) as usize)
                    .and_then(|c| c.as_ref().map(|c| c.digest));
                self.commit_votes.get(&past).is_some_and(|votes| {
                    self.tally(votes)
                        .iter()
                        .any(|(&digest, &count)| count > self.faults && own != Some(digest))
                })
            })
    }

    /// The highest round for which `b + 1` other nodes announced a common
    /// digest — how a durable node notices the cluster moved past it.
    fn commit_frontier(&self) -> Option<u64> {
        self.commit_votes
            .iter()
            .rev()
            .find(|(_, votes)| self.tally(votes).values().any(|&c| c > self.faults))
            .map(|(&round, _)| round)
    }

    /// Asks peers for their latest committed state.
    fn enter_resync(&mut self, io: &mut impl NodeIo, sticky: bool, startup: bool) {
        // stale answers must not satisfy the rule
        self.state_chunks.clear();
        self.resync_attempt += 1;
        // anything at or past this node's last commit helps: a transfer
        // of that round repairs divergence in place, later ones catch up
        let from_round = self.engine.round().saturating_sub(1);
        self.broadcast(io, Payload::StateRequest { from_round });
        self.step = Step::Resyncing { sticky, startup };
        let transfer = self
            .durability
            .as_ref()
            .map_or(Duration::ZERO, |(d, _)| d.transfer_timeout);
        io.set_timer(
            io.now() + micros(transfer),
            timer::pack(timer::RESYNC, self.resync_attempt, 0),
        );
    }

    /// Applies the `b + 1` acceptance rule to the buffered chunks and
    /// installs a verified state.
    fn try_install(&mut self, io: &mut impl NodeIo) {
        let min_round = self.engine.round().saturating_sub(1);
        let Some((vs, corrupt)) =
            verified_state::<F>(&self.state_chunks, self.faults + 1, min_round)
        else {
            return;
        };
        // vouchers whose bytes did not hash to the digest they voted for
        for peer in corrupt {
            self.sink
                .event(self.id, vs.round, Some(peer), Event::StateChunkRejected);
        }
        let Step::Resyncing { sticky, startup } = self.step else {
            return;
        };
        let sd = self.code.transition().state_dim();
        let states: Vec<Vec<F>> = vs
            .results
            .iter()
            .map(|row| row.iter().take(sd).map(|&v| F::from_u64(v)).collect())
            .collect();
        if states.len() != self.shards || self.code.check_states(&states).is_err() {
            // shape nonsense cannot have come from an honest round
            self.transfer_failed(io, sticky, startup);
            return;
        }
        // the coded-repair trick: re-encode the verified plaintext at this
        // node's own evaluation point
        let next = vs.round + 1;
        let coded = self.code.encode_state_at(self.id, &states);
        self.engine
            .restore(coded, next)
            .expect("re-encoded state is state-dim wide");
        let ctx = self.durable.as_mut().expect("resync runs on durable nodes");
        // the transferred state is durable before the node acts on it
        ctx.checkpoint(
            next,
            self.engine.coded_state_canonical(),
            &self.admission.horizon,
        );
        if startup {
            ctx.info.startup_transfer = Some(vs.round);
        }
        self.admission.stats.resyncs += 1;
        self.event(None, Event::Resync);
        self.flight_dump("resync");
        // history before the transfer is no longer this node's to vouch for
        self.resume_at(next);
        self.fail_streak = 0;
        if startup {
            self.finish_startup(io);
        }
        self.step = Step::Idle;
        io.set_timer(io.now(), timer::pack(timer::NEXT, self.round, 0));
    }

    /// A transfer attempt ended without a verified state.
    fn transfer_failed(&mut self, io: &mut impl NodeIo, sticky: bool, startup: bool) {
        self.step = Step::Idle;
        if startup {
            self.finish_startup(io);
            self.start_round(io);
        } else if sticky {
            // behind or diverged: serve, re-check, and ask again
            self.start_round(io);
        } else {
            // a streak-only trigger with no quorum to transfer from
            // (cluster-wide trouble): keep participating in rounds
            self.begin_round(io);
        }
    }

    fn finish_startup(&mut self, io: &mut impl NodeIo) {
        let startup = Duration::from_micros(io.now().saturating_sub(self.started_at));
        if let Some(ctx) = self.durable.as_mut() {
            ctx.info.startup = startup;
        }
    }

    // -- serving ---------------------------------------------------------

    /// Answers buffered state-transfer requests, read-only queries, and
    /// telemetry scrapes from the latest committed (and, durable, logged)
    /// round. Byzantine reply behavior applies to chunks and query
    /// replies alike.
    fn serve(&mut self, io: &mut impl NodeIo) {
        let latest = self.commits.iter().rev().flatten().next();
        let requests = std::mem::take(&mut self.state_requests);
        if let (Some(latest), false) = (latest, requests.is_empty()) {
            let results: Vec<Vec<u64>> = latest
                .results
                .iter()
                .map(|row| row.iter().map(|x| x.to_canonical_u64()).collect())
                .collect();
            for (peer, from_round) in requests {
                if latest.round < from_round {
                    continue; // the requester already holds everything we do
                }
                let chunk = Payload::StateChunk {
                    round: latest.round,
                    digest: latest.digest,
                    results: results.clone(),
                };
                if let Some(chunk) = chunk_after_fault(chunk, self.behavior) {
                    self.send(io, peer, chunk);
                    self.admission.stats.state_chunks_served += 1;
                }
            }
        }
        let sd = self.code.transition().state_dim();
        for (shard, client, qid) in std::mem::take(&mut self.query_inbox) {
            // nothing committed yet: stay silent, the client retries
            let Some(c) = latest.filter(|_| (shard as usize) < self.shards) else {
                continue;
            };
            let reply = Payload::QueryReply {
                shard,
                round: c.round,
                client,
                qid,
                value: c.results[shard as usize][..sd]
                    .iter()
                    .map(|x| x.to_canonical_u64())
                    .collect(),
            };
            if let Some(reply) = reply_after_fault(reply, self.behavior) {
                self.send(io, client as usize, reply);
                self.admission.stats.queries_answered += 1;
            }
        }
        if !self.telemetry_requests.is_empty() {
            // self-reported and MAC-bound, but not quorum-validated: a
            // Byzantine node can lie in its snapshot
            let mut extra = gateway_counters(&self.admission.stats);
            extra.extend(self.link_counters.iter().cloned());
            let snapshot = self
                .recording
                .snapshot(self.id, self.round, &extra)
                .to_bounded_json(self.cfg.telemetry_reply_max_bytes);
            for (peer, nonce) in std::mem::take(&mut self.telemetry_requests) {
                let reply = Payload::TelemetryReply {
                    nonce,
                    node: self.id as u64,
                    round: self.round,
                    snapshot: snapshot.clone(),
                };
                self.send(io, peer, reply);
            }
        }
    }

    // -- I/O and telemetry helpers ---------------------------------------

    fn send(&self, io: &mut impl NodeIo, to: usize, payload: Payload) {
        io.send(to, Frame::sign(payload, &self.registry, NodeId(self.id)));
    }

    fn broadcast(&self, io: &mut impl NodeIo, payload: Payload) {
        let frame = Frame::sign(payload, &self.registry, NodeId(self.id));
        io.broadcast_upto(self.cluster, &frame);
    }

    fn event(&self, peer: Option<usize>, event: Event) {
        self.sink.event(self.id, self.round, peer, event);
    }

    fn value(&self, name: &str, value: u64) {
        self.sink.value(self.id, self.round, name, value);
    }

    /// Reports an explicitly measured phase duration.
    fn lap(&self, phase: Phase, micros: u64) {
        self.sink
            .phase(self.id, self.round, phase, Duration::from_micros(micros));
    }

    /// Ends the round span's current segment, attributing it to `phase`.
    fn mark(&mut self, io: &mut impl NodeIo, phase: Phase) {
        let now = io.now();
        self.lap(phase, now.saturating_sub(self.span_last));
        self.span_last = now;
    }

    fn flight_dump(&self, reason: &str) {
        if let Some(dir) = &self.cfg.flight_dir {
            if let Err(e) = self.recording.dump(dir, self.id, self.round, reason) {
                csm_telemetry::warn!("node {}: flight dump ({reason}) failed: {e}", self.id);
            }
        }
    }
}

/// The `b + 1` acceptance rule: the *highest* round for which at least
/// `need` distinct peers vouch for the same `(round, digest)` and some
/// vouched chunk's results actually hash to that digest (a Byzantine peer
/// may vote for the honest digest while shipping garbage bytes — its chunk
/// is skipped and returned as corrupt). With at most `b` Byzantine peers
/// and `need = b + 1`, an accepted state is honest.
fn verified_state<F: Field>(
    chunks: &BTreeMap<usize, ChunkEntry>,
    need: usize,
    min_round: u64,
) -> Option<(VerifiedState, Vec<usize>)> {
    let mut tally: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (&peer, chunk) in chunks {
        if chunk.round >= min_round {
            tally
                .entry((chunk.round, chunk.digest))
                .or_default()
                .push(peer);
        }
    }
    for (&(round, digest), peers) in tally.iter().rev() {
        if peers.len() < need {
            continue;
        }
        let (honest, corrupt): (Vec<usize>, Vec<usize>) = peers.iter().partition(|&&peer| {
            let rows: Vec<Vec<F>> = chunks[&peer].results.iter().map(|r| to_field(r)).collect();
            digest_results(&rows) == digest
        });
        if let Some(&peer) = honest.first() {
            let results = chunks[&peer].results.clone();
            return Some((VerifiedState { round, results }, corrupt));
        }
    }
    None
}

/// The buffering weight of a consensus payload: every `u64` its batch rows
/// carry, including rows nested inside view-change certificates — the
/// bound a Byzantine peer's oversized frame is rejected against.
fn consensus_weight(payload: &Payload) -> usize {
    fn rows_weight(rows: &[Vec<u64>]) -> usize {
        rows.len() + rows.iter().map(Vec::len).sum::<usize>()
    }
    fn vc_weight(vc: &csm_transport::ViewChangeWire) -> usize {
        vc.prepared
            .as_ref()
            .map_or(1, |cert| 1 + rows_weight(&cert.rows) + cert.sigs.len())
    }
    match payload {
        Payload::BatchRelay { rows, chain, .. } => rows_weight(rows) + chain.len(),
        Payload::BatchVote { rows, .. } => rows_weight(rows),
        Payload::BatchViewChange { vote, .. } => vc_weight(vote),
        Payload::BatchNewView {
            rows,
            justification,
            ..
        } => rows_weight(rows) + justification.iter().map(vc_weight).sum::<usize>(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;
    use csm_core::DecoderKind;
    use csm_statemachine::machines::bank_machine;
    use csm_storage::store::WAL_FILE;
    use csm_storage::wal::WriteAheadLog;
    use std::path::PathBuf;

    /// Test I/O: a manual clock and a timer queue. With `wal` set, every
    /// `Commit` and `Reply` frame is checked against the log on disk at
    /// the moment it is emitted.
    #[derive(Default)]
    struct Recorder {
        now: u64,
        timers: BTreeMap<(u64, u64), u64>,
        armed: u64,
        sent: Vec<Frame>,
        wal: Option<PathBuf>,
        /// `(round, already logged)` per emitted `Commit`/`Reply`.
        acks: Vec<(u64, bool)>,
    }

    impl Recorder {
        fn check(&mut self, frame: &Frame) {
            let round = match frame.payload {
                Payload::Commit { round, .. } | Payload::Reply { round, .. } => round,
                _ => return,
            };
            let Some(wal) = &self.wal else {
                return;
            };
            let (_, recovered) = WriteAheadLog::recover(wal).expect("read the WAL");
            let logged = recovered.records.iter().any(|r| r.round == round);
            self.acks.push((round, logged));
        }

        /// Fires due timers until none is due at or before `until`.
        fn run(&mut self, node: &mut NodeMachine<Fp61>, until: u64) {
            while let Some(entry) = self.timers.first_entry() {
                if entry.key().0 > until {
                    break;
                }
                let at = entry.key().0;
                let token = entry.remove();
                self.now = self.now.max(at);
                node.on_timer(self, token);
            }
            self.now = until;
        }
    }

    impl NodeIo for Recorder {
        fn now(&self) -> u64 {
            self.now
        }

        fn send(&mut self, _to: usize, frame: Frame) {
            self.check(&frame);
            self.sent.push(frame);
        }

        fn broadcast_upto(&mut self, _n: usize, frame: &Frame) {
            self.check(frame);
            self.sent.push(frame.clone());
        }

        fn set_timer(&mut self, at: u64, token: u64) {
            self.timers.insert((at, self.armed), token);
            self.armed += 1;
        }
    }

    const CLIENT: usize = 1;

    /// A one-node bank cluster (`N = 1`, `b = 0`) plus one client id: it
    /// commits every round on its own result alone.
    fn solo(durable: Option<&DurabilityConfig>) -> (NodeMachine<Fp61>, Arc<KeyRegistry>) {
        let registry = Arc::new(KeyRegistry::new(2, 9));
        let code =
            Arc::new(CodedMachine::new(1, 1, bank_machine(), DecoderKind::default()).unwrap());
        let timing = ExchangeTiming::synchronous(0, Duration::from_millis(10)).with_full_finalize();
        let cfg = GatewayConfig::new(1, 0, &timing);
        let spec = GatewaySpec {
            machine: code,
            initial_states: vec![vec![Fp61::from_u64(100)]],
            behavior: BehaviorKind::Honest,
            staging_fault: StagingFault::None,
        };
        let node = NodeMachine::new(0, Arc::clone(&registry), timing, &spec, &cfg, durable);
        (node, registry)
    }

    fn signed(registry: &KeyRegistry, signer: usize, payload: Payload) -> Frame {
        Frame::sign(payload, registry, NodeId(signer))
    }

    fn submit(client: u64, seq: u64, command: Vec<u64>) -> Payload {
        Payload::Submit {
            shard: 0,
            client,
            seq,
            command,
        }
    }

    #[test]
    fn inbox_drops_misbound_and_oversized_client_frames() {
        let (mut node, registry) = solo(None);
        let mut io = Recorder::default();
        let c = CLIENT as u64;
        // the claimed client is not the MAC signer
        node.on_frame(&mut io, signed(&registry, CLIENT, submit(7, 0, vec![1])));
        node.on_frame(
            &mut io,
            signed(
                &registry,
                CLIENT,
                Payload::Query {
                    shard: 0,
                    client: 7,
                    qid: 0,
                },
            ),
        );
        // the signer is a cluster node posing as a client
        node.on_frame(&mut io, signed(&registry, 0, submit(0, 0, vec![1])));
        node.on_frame(
            &mut io,
            signed(
                &registry,
                0,
                Payload::Query {
                    shard: 0,
                    client: 0,
                    qid: 0,
                },
            ),
        );
        // a command past the buffering bound
        let huge = vec![1; PENDING_MAX_VALUES + 1];
        node.on_frame(&mut io, signed(&registry, CLIENT, submit(c, 0, huge)));
        assert!(node.client_inbox.is_empty(), "every Submit is dropped");
        assert!(node.query_inbox.is_empty(), "every Query is dropped");
        // a well-bound pair is buffered
        node.on_frame(&mut io, signed(&registry, CLIENT, submit(c, 0, vec![1])));
        node.on_frame(
            &mut io,
            signed(
                &registry,
                CLIENT,
                Payload::Query {
                    shard: 0,
                    client: c,
                    qid: 0,
                },
            ),
        );
        assert_eq!((node.client_inbox.len(), node.query_inbox.len()), (1, 1));
        assert_eq!(node.stats().inbox_dropped + node.stats().query_dropped, 0);
    }

    #[test]
    fn full_inboxes_count_their_drops() {
        let (mut node, registry) = solo(None);
        let mut io = Recorder::default();
        let c = CLIENT as u64;
        let frame = signed(&registry, CLIENT, submit(c, 0, vec![1]));
        for _ in 0..CLIENT_INBOX_CAP + 3 {
            node.on_frame(&mut io, frame.clone());
        }
        let query = signed(
            &registry,
            CLIENT,
            Payload::Query {
                shard: 0,
                client: c,
                qid: 0,
            },
        );
        for _ in 0..QUERY_INBOX_CAP + 5 {
            node.on_frame(&mut io, query.clone());
        }
        assert_eq!(node.client_inbox.len(), CLIENT_INBOX_CAP);
        assert_eq!(node.query_inbox.len(), QUERY_INBOX_CAP);
        assert_eq!(node.stats().inbox_dropped, 3);
        assert_eq!(node.stats().query_dropped, 5);
    }

    #[test]
    fn replies_and_commits_leave_only_after_the_wal_holds_their_round() {
        let dir = std::env::temp_dir().join(format!("csm-machine-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durability = DurabilityConfig::new(&dir);
        durability.snapshot_interval = 1_000; // the log is never truncated
        let (mut node, registry) = solo(Some(&durability));
        let mut io = Recorder {
            wal: Some(dir.join(WAL_FILE)),
            ..Recorder::default()
        };
        node.start(&mut io);
        let c = CLIENT as u64;
        for seq in 0..4u64 {
            node.on_frame(
                &mut io,
                signed(&registry, CLIENT, submit(c, seq, vec![seq + 1])),
            );
            let until = io.now + 50_000;
            io.run(&mut node, until);
        }
        assert_eq!(node.stats().commands_committed, 4);
        let replies = io
            .sent
            .iter()
            .filter(|f| matches!(f.payload, Payload::Reply { .. }))
            .count();
        assert_eq!(replies, 4, "every command is answered");
        assert!(io.acks.len() >= 8, "commits and replies were checked");
        for (round, logged) in &io.acks {
            assert!(logged, "round {round} acknowledged before the WAL held it");
        }
        drop(node);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
