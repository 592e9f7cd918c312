//! # Deterministic chaos harness (`csm-chaos`)
//!
//! A discrete-event simulation of a whole CSM cluster — gateways,
//! durable stores, consensus backends, recovery paths, and a client
//! swarm — driven by a single seed on a virtual clock. The network is
//! the seeded [`csm_transport::sim::SimNet`] fabric, and every node is
//! the shipped [`crate::machine::NodeMachine`] — the same round code the
//! wall-clock gateway runs — driven by SimNet deliveries and timers
//! instead of a transport and wall time. The runner itself keeps only
//! harness concerns: the MAC check a transport would make, crash and
//! restart epochs, the torn-snapshot fault, and the audit witnesses.
//!
//! ## The replay contract
//!
//! A run is a pure function of `(ChaosConfig, Schedule)`: the virtual
//! clock, the fabric's seeded jitter/drop rolls, and the schedule are
//! the only sources of ordering. [`runner::replay_check`] double-runs a
//! schedule and compares telemetry traces, per-round commit digests,
//! client acknowledgements, and ledgers bit-for-bit.
//!
//! ## What a run checks (`runner::check_run`)
//!
//! * **S1 — contained splits.** For every wire round, all honest nodes
//!   that still *vouch* for the round (have not fail-stopped on the
//!   desync check, resynced past it, or crashed) agree on one commit
//!   digest. A divergence the protocol *detects* (fail-stop/resync) is
//!   containment working — the documented leader-echo holes make
//!   detected divergence reachable; an *unflagged* split is a safety
//!   violation.
//! * **S2 — no lost acknowledged command.** A client acknowledgement
//!   requires `b + 1` matching replies, hence at least one honest
//!   committer: every acked `(client, seq)` must appear in some honest
//!   node's committed ledger. Durable restarts additionally assert the
//!   replayed dedup horizons cover everything the node replied to
//!   before crashing (WAL-before-ack made durable).
//! * **S3 — liveness on heal.** Every generated schedule ends with a
//!   full heal followed by a *probe* burst; scenarios assert the probe
//!   is fully acknowledged by the horizon.
//!
//! ## Sizing note: when can a partition split commits?
//!
//! Commit digests cover the *decoded* word, so a batch divergence among
//! `≤ b` nodes is corrected by the Reed–Solomon decode (they commit the
//! majority's digest) and a divergence among `> b` nodes makes the word
//! undecodable everywhere (nobody commits). The only way two honest
//! groups commit *different* digests for a round is a partition where
//! both sides decode from their own results alone — which needs the
//! minority to reach the code dimension: `minority ≥ d^cap(K−1) + 1`.
//! Under leader-echo the committing majority needs `N − b` nodes, so the
//! minority has at most `b`: **sizing the code dimension above `b` makes
//! partition-split commits impossible**, while `dim ≤ b` (large fault
//! provisioning over a small code) admits the documented split-then-
//! desync/resync flow — exercised by the `asymmetric_delay_leader`
//! scenario. See `docs/CHAOS.md`.

pub mod client;
pub mod runner;
pub mod scenarios;
pub mod schedule;
pub mod shrink;

pub use runner::{replay_check, run_schedule, ChaosConfig, ChaosRun, NodeOutcome, Violation};
pub use schedule::{random_schedule, random_schedule_sync, ChaosEvent, Schedule};

/// Timer tokens of the harness's own endpoints (clients and the
/// schedule): kind in bits 60–63, `a` in bits 20–51 (client index or
/// event index), `b` in bits 0–19 (sequence number). Node timers are the
/// machine's own tokens, which leave bits 52–59 free; the runner stamps a
/// node's restart epoch there, so a timer armed before a crash is dead
/// after the restart.
pub(crate) mod token {
    /// Client retry tick (owner is the client endpoint).
    pub(crate) const K_RETRY: u64 = 7;
    /// Schedule control event (owner is the control endpoint; `a` = event
    /// index).
    pub(crate) const K_CONTROL: u64 = 15;

    /// Packs `(kind, epoch, a, b)` into one token.
    pub(crate) fn pack(kind: u64, epoch: u64, a: u64, b: u64) -> u64 {
        (kind << 60) | ((epoch & 0xFF) << 52) | ((a & 0xFFFF_FFFF) << 20) | (b & 0xF_FFFF)
    }

    /// The token's kind bits.
    pub(crate) fn kind(t: u64) -> u64 {
        t >> 60
    }

    /// The token's epoch bits.
    pub(crate) fn epoch(t: u64) -> u64 {
        (t >> 52) & 0xFF
    }

    /// Stamps `epoch` into a node timer token.
    pub(crate) fn stamp(t: u64, epoch: u64) -> u64 {
        (t & !(0xFF << 52)) | ((epoch & 0xFF) << 52)
    }

    /// A node timer token without its epoch stamp.
    pub(crate) fn unstamp(t: u64) -> u64 {
        t & !(0xFF << 52)
    }

    /// The token's `a` field.
    pub(crate) fn a(t: u64) -> u64 {
        (t >> 20) & 0xFFFF_FFFF
    }

    /// The token's `b` field.
    pub(crate) fn b(t: u64) -> u64 {
        t & 0xF_FFFF
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn token_roundtrip() {
            let t = pack(K_RETRY, 3, 123_456, 77);
            assert_eq!(kind(t), K_RETRY);
            assert_eq!(epoch(t), 3);
            assert_eq!(a(t), 123_456);
            assert_eq!(b(t), 77);
        }

        #[test]
        fn token_fields_mask() {
            let t = pack(K_RETRY, 0x1FF, u64::MAX, u64::MAX);
            assert_eq!(epoch(t), 0xFF);
            assert_eq!(a(t), 0xFFFF_FFFF);
            assert_eq!(b(t), 0xF_FFFF);
        }

        #[test]
        fn epoch_stamp_roundtrip() {
            let t = pack(K_CONTROL, 0, 9, 4);
            let stamped = stamp(t, 0x1_23);
            assert_eq!(epoch(stamped), 0x23);
            assert_eq!(unstamp(stamped), t);
        }
    }
}
