//! End-to-end crash-recovery tests: a durable gateway cluster survives a
//! hard kill + restart of an honest node under a live Byzantine workload
//! (zero lost committed commands), and the `b + 1`-verified state
//! transfer resists corrupted chunks from Byzantine peers.

use csm_algebra::{Field, Fp61};
use csm_bench::recovery::{
    one_equivocator, run_mem_rejoin, scratch_dir, verify_rejoin_outcome, RejoinConfig,
};
use csm_core::digest::digest_results;
use csm_core::DecoderKind;
use csm_network::NodeId;
use csm_node::{
    cluster_registry, BehaviorKind, CodedMachine, DurabilityConfig, ExchangeTiming, GatewayConfig,
    GatewaySpec, NodeIo, NodeMachine, RoundEngine, StagingFault,
};
use csm_statemachine::machines::bank_machine;
use csm_transport::{Frame, Payload};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn mem_cluster_survives_kill_and_rejoin() {
    // N = 8, K = 2, b = 2, node 0 equivocating on results, replies, and
    // state chunks; honest node 5 is hard-killed mid-workload, restarts
    // from its store, catches up, and the cluster commits ≥ 3 further
    // rounds with every accepted output on the reference balance chain.
    let dir = scratch_dir("mem-test");
    let cfg = RejoinConfig::small(0xD15C);
    let outcome = run_mem_rejoin(&dir, &cfg, one_equivocator);
    verify_rejoin_outcome(&cfg, &outcome, &[0]).expect("rejoin outcome verifies");
    let recovery = outcome
        .post_report
        .recovery
        .as_ref()
        .expect("recovery info");
    // the victim held durable state and resumed from it (not genesis)
    assert!(
        recovery.recovered_round > 0,
        "local replay should recover past genesis: {recovery:?}"
    );
    assert!(
        outcome.final_round >= outcome.restart_round + cfg.post_rounds,
        "cluster must keep committing after the rejoin"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Advances an all-honest coded bank cluster through `rounds` rounds,
/// returning the machine, every node's engine, the last round's decoded
/// results, and their digest.
fn advanced_cluster(
    n: usize,
    k: usize,
    rounds: u64,
) -> (
    Arc<CodedMachine<Fp61>>,
    Vec<RoundEngine<Fp61>>,
    Vec<Vec<Fp61>>,
    u64,
) {
    let machine =
        Arc::new(CodedMachine::<Fp61>::new(n, k, bank_machine(), DecoderKind::default()).unwrap());
    let states: Vec<Vec<Fp61>> = (0..k as u64)
        .map(|i| vec![Fp61::from_u64(100 * (i + 1))])
        .collect();
    let mut engines: Vec<RoundEngine<Fp61>> = (0..n)
        .map(|i| RoundEngine::new(Arc::clone(&machine), i, &states).unwrap())
        .collect();
    let mut last_results = Vec::new();
    for round in 0..rounds {
        let commands: Vec<Vec<Fp61>> = (0..k as u64)
            .map(|m| vec![Fp61::from_u64(round + m + 1)])
            .collect();
        let word: Vec<Option<Vec<Fp61>>> = engines
            .iter()
            .map(|e| Some(e.execute(&commands).unwrap()))
            .collect();
        for e in &mut engines {
            let commit = e.commit_word(&word).unwrap();
            last_results = commit.results;
        }
    }
    let digest = digest_results(&last_results);
    (machine, engines, last_results, digest)
}

/// A [`NodeIo`] for driving one machine by hand: a fixed clock, and the
/// frames and timers it emits.
#[derive(Default)]
struct HandIo {
    now: u64,
    sent: Vec<Frame>,
    timers: Vec<(u64, u64)>,
}

impl NodeIo for HandIo {
    fn now(&self) -> u64 {
        self.now
    }

    fn send(&mut self, _to: usize, frame: Frame) {
        self.sent.push(frame);
    }

    fn broadcast_upto(&mut self, _n: usize, frame: &Frame) {
        self.sent.push(frame.clone());
    }

    fn set_timer(&mut self, at: u64, token: u64) {
        self.timers.push((at, token));
    }
}

/// Node 0 of a bank cluster as a durable machine whose store already has
/// history, started into its `b + 1`-verified startup state transfer;
/// telemetry goes to the returned recording sink.
fn rejoiner(
    machine: &Arc<CodedMachine<Fp61>>,
    registry: &Arc<csm_network::auth::KeyRegistry>,
    b: usize,
    dir: &std::path::Path,
) -> (NodeMachine<Fp61>, HandIo, Arc<csm_telemetry::RecordingSink>) {
    let recording = Arc::new(csm_telemetry::RecordingSink::new());
    let timing = ExchangeTiming::synchronous(b, Duration::from_millis(50));
    let cfg = GatewayConfig::new(machine.n(), b, &timing).with_sink(recording.clone());
    let spec = GatewaySpec {
        machine: Arc::clone(machine),
        initial_states: (0..machine.k() as u64)
            .map(|i| vec![Fp61::from_u64(100 * (i + 1))])
            .collect(),
        behavior: BehaviorKind::Honest,
        staging_fault: StagingFault::None,
    };
    let durability = DurabilityConfig::new(dir);
    let build = || {
        NodeMachine::new(
            0,
            Arc::clone(registry),
            timing.clone(),
            &spec,
            &cfg,
            Some(&durability),
        )
    };
    // the first life writes the genesis checkpoint; the second finds
    // history and asks its peers for state
    build().start(&mut HandIo::default());
    let mut node = build();
    let mut io = HandIo::default();
    node.start(&mut io);
    assert!(
        io.sent
            .iter()
            .any(|f| matches!(f.payload, Payload::StateRequest { .. })),
        "a restarted node asks its peers for state"
    );
    (node, io, recording)
}

#[test]
fn byzantine_state_chunks_cannot_poison_a_rejoiner() {
    // A rejoining node (0) collects state chunks for the last committed
    // round from 4 answering peers. Byzantine answers: peer 1 serves
    // corrupted results under the honest digest (fails the digest check),
    // peer 2 serves a self-consistent forgery with its own digest (can
    // never reach b + 1 agreement). Once the first honest chunk (peer 3)
    // joins peer 1's digest group, need = b + 1 = 2 vouchers agree and the
    // honest bytes are installed — the rejoiner's coded state then equals
    // the honest cluster's exactly.
    let n = 6;
    let b = 1;
    let rounds = 3;
    let (machine, engines, results, digest) = advanced_cluster(n, 2, rounds);
    let committed_round = rounds - 1;
    let registry = cluster_registry(n, 99);
    let dir = scratch_dir("byzantine-chunks");
    let (mut node, mut io, recording) = rejoiner(&machine, &registry, b, &dir);

    let canonical: Vec<Vec<u64>> = results
        .iter()
        .map(|row| row.iter().map(|x| x.to_canonical_u64()).collect())
        .collect();
    let mut corrupted = canonical.clone();
    corrupted[0][0] ^= 0x7777;
    let chunk = |round: u64, digest: u64, results: Vec<Vec<u64>>| Payload::StateChunk {
        round,
        digest,
        results,
    };
    let sends = [
        (1usize, chunk(committed_round, digest, corrupted)),
        (
            2,
            chunk(committed_round, 0xBAD_F00D, vec![vec![1, 1], vec![2, 2]]),
        ),
        (3, chunk(committed_round, digest, canonical.clone())),
        (4, chunk(committed_round, digest, canonical.clone())),
        // peer 5 withholds
    ];
    for (peer, payload) in sends {
        let installed_before = node.recovery().and_then(|r| r.startup_transfer);
        // below b + 1 honest-digest vouchers nothing is installed
        assert_eq!(installed_before.is_some(), peer > 3, "peer {peer}");
        node.on_frame(&mut io, Frame::sign(payload, &registry, NodeId(peer)));
    }
    assert_eq!(
        node.recovery().and_then(|r| r.startup_transfer),
        Some(committed_round)
    );
    assert_eq!(node.round(), committed_round + 1, "resumes after the round");
    // the corrupt-bytes chunk is attributed to its server the moment
    // acceptance fires; the self-consistent forger (peer 2) sits in a
    // different digest group and must never draw a rejection event
    let rejected = |peer: usize| recording.counter(&format!("state_chunk_rejected.peer{peer}"));
    assert_eq!(rejected(1), 1, "corrupt chunk attributed to its server");
    for peer in [0, 2, 3, 4, 5] {
        assert_eq!(rejected(peer), 0, "peer {peer} served no corrupt chunk");
    }
    // re-encoding the verified states at the rejoiner's own evaluation
    // point reproduces exactly the coded state the honest engines hold —
    // only digest-matching results were installed
    assert_eq!(node.coded_state(), engines[0].coded_state());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_quorum_below_b_plus_one_never_verifies() {
    // b = 2 colluding peers agreeing on a forged (round, digest) stay
    // below need = 3; the rejoiner never installs the forgery — even
    // though it is internally consistent (its results hash to its
    // claimed digest, and it is well-shaped) — and gives the attempt up when
    // its window closes.
    let n = 6;
    let b = 2;
    let (machine, _, _, _) = advanced_cluster(n, 2, 0);
    let registry = cluster_registry(n, 7);
    let dir = scratch_dir("forged-quorum");
    let (mut node, mut io, _) = rejoiner(&machine, &registry, b, &dir);
    let genesis = node.coded_state().to_vec();
    // well-shaped for the machine (K = 2 rows of state + output), so
    // only the voucher count stands between it and installation
    let rows = vec![vec![5u64, 5], vec![6, 6]];
    let forged_results: Vec<Vec<Fp61>> = rows
        .iter()
        .map(|r| r.iter().map(|&v| Fp61::from_u64(v)).collect())
        .collect();
    let forged = Payload::StateChunk {
        round: 9,
        digest: digest_results(&forged_results),
        results: rows,
    };
    for peer in [1usize, 2] {
        node.on_frame(
            &mut io,
            Frame::sign(forged.clone(), &registry, NodeId(peer)),
        );
    }
    // the transfer window closes without a verified state
    let (at, token) = io.timers.pop().expect("transfer deadline armed");
    io.now = at;
    node.on_timer(&mut io, token);
    let recovery = node.recovery().expect("durable");
    assert_eq!(recovery.startup_transfer, None);
    assert_eq!(node.stats().resyncs, 0);
    assert_eq!(node.round(), 0);
    assert_eq!(node.coded_state(), &genesis[..]);
    let _ = std::fs::remove_dir_all(&dir);
}
