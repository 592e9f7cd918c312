//! `coded-n64`: the paper's §5–6 pipeline at scale, in process.
//!
//! `N = 64` nodes, `b = 16` of them broadcasting random wrong results,
//! `K = csm_max_machines(64, 16, 1, Synchronous) = 32` bank machines over
//! Fp61, centralized coding with INTERMIX verification
//! (`ε = 1e-3`, `μ = 0.25`), the default decoder and trusted consensus.
//! There is no network and no timer: every microsecond is coding work.
//!
//! The coded-layer timings and the exact field-operation counts are taken
//! on this workload's inputs in every traced run, whatever the workload.

use crate::stats::{derive, median, MetricSet, Samples, Windows};
use csm_algebra::{Counting, Field, Fp61};
use csm_core::metrics::csm_max_machines;
use csm_core::{
    CodedMachine, CodingMode, ConsensusMode, CsmCluster, CsmClusterBuilder, DecoderKind, FaultSpec,
    RoundEngine, SynchronyMode,
};
use csm_intermix::{committee_size, run_session, AuditorBehavior, SessionConfig, WorkerBehavior};
use csm_statemachine::machines::bank_machine;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 64;
const FAULTS: usize = 16;
const EPSILON: f64 = 1e-3;
const MU: f64 = 0.25;
/// The cluster's own protocol seed (committee election, corrupted
/// values) is part of the program's configuration, not of its input, so
/// the operation counts repeat exactly across workload seeds.
const PROTOCOL_SEED: u64 = 0x5EED;
const SETUPS: usize = 5;

fn machines() -> usize {
    csm_max_machines(NODES, FAULTS, 1, SynchronyMode::Synchronous)
}

/// The Byzantine nodes: every fourth node.
fn corrupt(node: usize) -> bool {
    node.is_multiple_of(NODES / FAULTS)
}

fn initial_balance(machine: usize) -> u64 {
    1_000 + machine as u64
}

fn deposit(seed: u64, machine: usize, round: u64) -> u64 {
    1 + derive(seed, 0xC0DE + machine as u64, round) % 997
}

fn build<F: Field>() -> CsmCluster<F> {
    let k = machines();
    let mut b = CsmClusterBuilder::<F>::new(NODES, k)
        .transition(bank_machine())
        .initial_states(
            (0..k)
                .map(|m| vec![F::from_u64(initial_balance(m))])
                .collect(),
        )
        .coding(CodingMode::Centralized {
            epsilon: EPSILON,
            mu: MU,
        })
        .decoder(DecoderKind::default())
        .consensus(ConsensusMode::Trusted)
        .assumed_faults(FAULTS)
        .seed(PROTOCOL_SEED);
    for node in (0..NODES).filter(|&i| corrupt(i)) {
        b = b.fault(node, FaultSpec::CorruptResult);
    }
    b.build()
        .expect("N = 64, b = 16, K = 32 is within the Theorem-1 bound")
}

fn commands<F: Field>(seed: u64, round: u64) -> Vec<Vec<F>> {
    (0..machines())
        .map(|m| vec![F::from_u64(deposit(seed, m, round))])
        .collect()
}

pub struct CodedOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: MetricSet,
    pub layers: MetricSet,
}

/// Steps the cluster until `end`, checking every round and recording
/// each round's latency at its offset into the phase; returns
/// `(rounds, failed rounds, seconds)`.
fn load(
    cluster: &mut CsmCluster<Fp61>,
    balances: &mut [u64],
    seed: u64,
    end: Instant,
    lat: &mut Vec<(f64, f64)>,
) -> (u64, u64, f64) {
    let (mut rounds, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while Instant::now() < end {
        let round = cluster.round();
        let cmds = commands::<Fp61>(seed, round);
        let t = Instant::now();
        let report = cluster.step(cmds);
        lat.push((
            t.duration_since(start).as_secs_f64(),
            t.elapsed().as_secs_f64() * 1e3,
        ));
        rounds += 1;
        let ok = report.is_ok_and(|r| {
            let mut ok = r.correct;
            for (m, balance) in balances.iter_mut().enumerate() {
                *balance += deposit(seed, m, round);
                let want = [Fp61::from_u64(*balance)];
                ok &= r.outputs[m] == want && r.new_states[m] == want;
            }
            ok
        });
        if !ok {
            failed += 1;
        }
    }
    (rounds, failed, start.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> CodedOutcome {
    let k = machines();
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let c = build::<Fp61>();
        setup_s.push(t.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("a built cluster");
    let mut balances: Vec<u64> = (0..k).map(initial_balance).collect();
    let total = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut lat = Vec::new();
    let untraced = trace.then(|| {
        let mut ignored = Vec::new();
        load(
            &mut cluster,
            &mut balances,
            seed,
            t0 + total / 2,
            &mut ignored,
        )
    });
    let (rounds, failed, secs) = load(&mut cluster, &mut balances, seed, t0 + total, &mut lat);
    let (all_rounds, all_failed) =
        untraced.map_or((rounds, failed), |u| (u.0 + rounds, u.1 + failed));

    let mut e2e = MetricSet::default();
    let mut windows = Windows::new(secs);
    let mut all = Samples::default();
    for &(at, ms) in &lat {
        windows.push(at, ms);
        all.push(ms);
    }
    windows.put_quantile(&mut e2e, "write_p50_ms", "ms", 0.5);
    windows.put_quantile(&mut e2e, "write_p90_ms", "ms", 0.9);
    e2e.put_quantile("write_p99_ms", "ms", &mut all, 0.99);
    windows.put_rate(&mut e2e, "writes_per_s", "1/s", k as f64);
    e2e.put("setup_s", "s", median(&setup_s), setup_s.len() as u64);
    windows.put_rate(&mut e2e, "machine_cmds_per_s", "1/s", k as f64);
    let attempted = all_rounds * k as u64;
    e2e.put(
        "failed_frac",
        "ratio",
        (all_failed * k as u64) as f64 / attempted.max(1) as f64,
        attempted,
    );
    let mut layers = MetricSet::default();
    if trace {
        let overhead = untraced.map_or(0.0, |u| {
            let base = u.0 as f64 / u.2;
            (base - rounds as f64 / secs) / base * 100.0
        });
        layers.put("trace.overhead_pct", "%", overhead, 2);
    }
    CodedOutcome {
        correct: all_failed == 0,
        attempted,
        failed: all_failed * k as u64,
        e2e,
        layers,
    }
}

/// Median time of `reps` calls of `f`, in µs.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, u64) {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        s.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (s.quantile(0.5), reps as u64)
}

/// Times the coded layers on coded-n64's inputs and counts the exact
/// per-round field operations over `Counting<Fp61>`. Returns `false` if
/// a decode disagreed with the reference.
pub fn layers(seed: u64, layers: &mut MetricSet) -> bool {
    let k = machines();
    let machine = Arc::new(
        CodedMachine::<Fp61>::new(NODES, k, bank_machine(), DecoderKind::default())
            .expect("coded-n64 shape"),
    );
    let states: Vec<Vec<Fp61>> = (0..k)
        .map(|m| vec![Fp61::from_u64(derive(seed, 0x57A7E, m as u64) % 1_000_000)])
        .collect();
    let cmds = commands::<Fp61>(seed, 0);

    let (v, n) = time_us(200, || machine.codebook().encode_all_vectors_fast(&cmds));
    layers.put("codebook.encode_us", "us", v, n);

    // one round of execution: every node's coded transition
    let engines: Vec<RoundEngine<Fp61>> = (0..NODES)
        .map(|i| RoundEngine::new(Arc::clone(&machine), i, &states).expect("engine"))
        .collect();
    let coded: Vec<Vec<Fp61>> = (0..NODES)
        .map(|i| machine.encode_command_at(i, &cmds))
        .collect();
    let (v, n) = time_us(200, || {
        engines
            .iter()
            .zip(&coded)
            .map(|(e, c)| e.execute_coded(c).expect("execute"))
            .collect::<Vec<_>>()
    });
    layers.put("statemachine.apply_us", "us", v, n);

    // decode a word with b random wrong results
    let mut word: Vec<Option<Vec<Fp61>>> = engines
        .iter()
        .zip(&coded)
        .map(|(e, c)| Some(e.execute_coded(c).expect("execute")))
        .collect();
    for (i, slot) in word.iter_mut().enumerate().filter(|(i, _)| corrupt(*i)) {
        if let Some(g) = slot {
            for (j, x) in g.iter_mut().enumerate() {
                *x = Fp61::from_u64(derive(seed, 0xBAD + i as u64, j as u64));
            }
        }
    }
    let decoded = machine.decode_word(&word);
    let decode_ok = decoded.as_ref().is_ok_and(|d| {
        (0..k).all(|m| {
            let want = vec![states[m][0] + cmds[m][0]];
            d.new_states[m] == want && d.outputs[m] == want
        })
    });
    let (v, n) = time_us(50, || machine.decode_word(&word).expect("decode"));
    layers.put("rs.decode_us", "us", v, n);

    let auditors = vec![AuditorBehavior::Honest; committee_size(EPSILON, MU)];
    let coords: Vec<Fp61> = cmds.iter().map(|c| c[0]).collect();
    let (v, n) = time_us(50, || {
        run_session(
            machine.codebook().coefficients(),
            &coords,
            &WorkerBehavior::Honest,
            &auditors,
            &SessionConfig::default(),
        )
        .accepted
    });
    layers.put("intermix.verify_us", "us", v, n);

    let xs: Vec<Fp61> = (0..4096)
        .map(|i| Fp61::from_u64(1 + derive(seed, 0xF1E1D, i) % ((1 << 61) - 2)))
        .collect();
    const MULS: usize = 1 << 22;
    let t = Instant::now();
    let mut acc = Fp61::from_u64(3);
    for i in 0..MULS {
        acc *= black_box(xs[i & 4095]);
    }
    black_box(acc);
    layers.put(
        "algebra.mul_ns",
        "ns",
        t.elapsed().as_secs_f64() * 1e9 / MULS as f64,
        MULS as u64,
    );
    const INVS: usize = 1 << 14;
    let t = Instant::now();
    for i in 0..INVS {
        black_box(black_box(xs[i & 4095]).inverse());
    }
    layers.put(
        "algebra.inv_ns",
        "ns",
        t.elapsed().as_secs_f64() * 1e9 / INVS as f64,
        INVS as u64,
    );

    // exact field-operation counts per round
    const ROUNDS: u64 = 3;
    let mut counting = build::<Counting<Fp61>>();
    let mut sums = [0f64; 6];
    let mut counted_ok = true;
    for round in 0..ROUNDS {
        let report = counting.step(commands(seed, round)).expect("counted round");
        counted_ok &= report.correct;
        let ops = &report.ops;
        let node_max = ops.per_node.iter().map(|o| o.total()).max().unwrap_or(0);
        for (s, v) in sums.iter_mut().zip([
            ops.encoding.total() as f64,
            ops.transition.total() as f64,
            ops.decoding.total() as f64,
            ops.state_update.total() as f64,
            ops.mean_per_node(),
            node_max as f64,
        ]) {
            *s += v;
        }
    }
    let names = [
        "ops.encoding",
        "ops.transition",
        "ops.decoding",
        "ops.state_update",
        "ops.node_mean",
        "ops.node_max",
    ];
    for (name, s) in names.iter().zip(sums) {
        layers.put(name, "count", s / ROUNDS as f64, ROUNDS);
    }
    let node_mean = sums[4] / ROUNDS as f64;
    layers.put("ops.lambda", "ratio", k as f64 / node_mean, ROUNDS);
    decode_ok && counted_ok
}
