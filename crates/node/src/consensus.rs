//! Pluggable batch consensus: the protocols a gateway can run to agree on
//! each round's client-command batch.
//!
//! The gateway's original **leader-echo** staging quorum is cheap (one
//! proposal broadcast + one echo wave) but only *probabilistically* catches
//! a leader that equivocates on the batch — under adversarial timing a
//! razor-thin window lets different honest nodes adopt different batches
//! (the divergence is then caught after the fact by the commit-digest
//! desync check, which fail-stops the minority). The paper assumes a
//! proper Byzantine broadcast for round inputs, and `csm-consensus` holds
//! the real protocols — this module wires their message-passing
//! adaptations ([`csm_consensus::batch`]) under the gateway:
//!
//! | backend | assumption | tolerance | messages/round | closes the hole? |
//! |---|---|---|---|---|
//! | [`ConsensusKind::LeaderEcho`] | synchrony | `b < N` crash, equivocation probabilistic | `O(N)` | no |
//! | [`ConsensusKind::DolevStrong`] | synchrony (`Δ`) | any `b < N` | `O(N²)` (≤ 2 relays/node) | yes |
//! | [`ConsensusKind::Pbft`] | partial synchrony | `b < N/3` | `O(N²)` per view | yes |
//!
//! All three run as event-driven staging steps inside
//! [`crate::machine::NodeMachine`]: the machine hands each its round,
//! this node's proposal, and the batch-validity predicate, and executes
//! the agreed `Stage` rows — or, when the protocol decides nothing, the
//! deterministic empty-batch fallback every honest node shares. This
//! module holds the backend selector, the staging faults, and the PBFT
//! wire mapping. Which backend committed each round is recorded in the
//! durable gateway's WAL rows (`csm_storage::CommitRecord::protocol`).

use csm_consensus::batch::{BatchRows, PbftBatchMsg, PreparedBatch, ViewChangeVote};
use csm_network::auth::Signature;
use csm_network::NodeId;
use csm_storage::{PROTOCOL_DOLEV_STRONG, PROTOCOL_LEADER_ECHO, PROTOCOL_PBFT};
use csm_transport::{
    Payload, PreparedCertWire, ViewChangeWire, PHASE_COMMIT, PHASE_PREPARE, PHASE_PRE_PREPARE,
};
use std::fmt;
use std::str::FromStr;

/// Which batch-consensus backend a gateway runs (selectable per gateway;
/// every honest node of a cluster must run the same one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsensusKind {
    /// The leader-echo `Stage` quorum (fastest; equivocation caught only
    /// probabilistically — see the module docs).
    #[default]
    LeaderEcho,
    /// Dolev–Strong authenticated broadcast (synchronous; any `b < N`).
    DolevStrong,
    /// PBFT three-phase consensus (partially synchronous; `b < N/3`,
    /// i.e. `N ≥ 3b + 1`).
    Pbft,
}

impl ConsensusKind {
    /// The CLI / JSON name of the backend.
    pub fn as_str(&self) -> &'static str {
        match self {
            ConsensusKind::LeaderEcho => "leader-echo",
            ConsensusKind::DolevStrong => "dolev-strong",
            ConsensusKind::Pbft => "pbft",
        }
    }

    /// The protocol id recorded in durable WAL rows
    /// ([`csm_storage::CommitRecord::protocol`]).
    pub fn wal_protocol(&self) -> u8 {
        match self {
            ConsensusKind::LeaderEcho => PROTOCOL_LEADER_ECHO,
            ConsensusKind::DolevStrong => PROTOCOL_DOLEV_STRONG,
            ConsensusKind::Pbft => PROTOCOL_PBFT,
        }
    }

    /// The smallest cluster that can run this backend with fault bound
    /// `b` (`b + 1` for the synchronous protocols, `3b + 1` for PBFT).
    pub fn min_cluster(&self, assumed_faults: usize) -> usize {
        match self {
            ConsensusKind::LeaderEcho | ConsensusKind::DolevStrong => assumed_faults + 1,
            ConsensusKind::Pbft => 3 * assumed_faults + 1,
        }
    }
}

impl fmt::Display for ConsensusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ConsensusKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "leader-echo" => Ok(ConsensusKind::LeaderEcho),
            "dolev-strong" => Ok(ConsensusKind::DolevStrong),
            "pbft" => Ok(ConsensusKind::Pbft),
            other => Err(format!(
                "unknown consensus backend {other:?} (want leader-echo|dolev-strong|pbft)"
            )),
        }
    }
}

/// How a Byzantine node misbehaves in the *staging* phase (batch
/// agreement) when it holds the round leadership — orthogonal to the
/// execution-phase [`crate::BehaviorKind`]. This is the fault the real
/// consensus backends exist to contain: an equivocating leader proposes
/// different batches to different honest nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagingFault {
    /// Follow the staging protocol honestly.
    #[default]
    None,
    /// As leader, propose the full pending batch to even-id nodes and a
    /// truncated variant to odd-id nodes. Both are *valid* batches
    /// (genuine client commands), so per-batch validation cannot catch
    /// the split — only batch *agreement* can.
    EquivocateBatch,
    /// As leader, propose nothing at all (crash/withholding): the round
    /// must still terminate — with the deterministic empty batch under
    /// leader-echo and Dolev–Strong, or the next view primary's batch
    /// under PBFT.
    WithholdBatch,
    /// As leader, propose an *ill-formed* per-shard program: the pending
    /// batch with its first row replayed twice more. Every replayed row
    /// still carries a genuine client MAC, but the proposal breaks the
    /// shared batch-validity predicate — `(client, seq)` uniqueness,
    /// and the per-shard program cap at `batch_cap = 1` — identically
    /// at every honest node, so they all refuse it wholesale (nobody
    /// splits a program or salvages its valid prefix) and the round
    /// falls back to the empty batch together.
    OverCapBatch,
}

/// The alternative batch an equivocating leader shows the other half of
/// the cluster: the honest proposal minus its first row (still a valid
/// batch — distinct shards, genuine client MACs).
pub(crate) fn equivocation_variant(rows: &BatchRows) -> BatchRows {
    if rows.is_empty() {
        Vec::new()
    } else {
        rows[1..].to_vec()
    }
}

/// The ill-formed proposal an [`StagingFault::OverCapBatch`] leader
/// broadcasts: the honest pending batch with its first row appended
/// twice more (over the per-shard cap at `batch_cap = 1`, and a
/// duplicated `(client, seq)` at any cap).
pub(crate) fn overcap_variant(rows: &BatchRows) -> BatchRows {
    let mut out = rows.to_vec();
    if let Some(first) = rows.first() {
        out.push(first.clone());
        out.push(first.clone());
    }
    out
}

/// The wire payload carrying one PBFT adapter message for `round`.
pub(crate) fn pbft_to_wire(round: u64, msg: &PbftBatchMsg) -> Payload {
    match msg {
        PbftBatchMsg::PrePrepare { view, rows, sig } => Payload::BatchVote {
            round,
            view: *view,
            phase: PHASE_PRE_PREPARE,
            rows: rows.clone(),
            tag: sig.tag,
        },
        PbftBatchMsg::Prepare { view, rows, sig } => Payload::BatchVote {
            round,
            view: *view,
            phase: PHASE_PREPARE,
            rows: rows.clone(),
            tag: sig.tag,
        },
        PbftBatchMsg::Commit { view, rows, sig } => Payload::BatchVote {
            round,
            view: *view,
            phase: PHASE_COMMIT,
            rows: rows.clone(),
            tag: sig.tag,
        },
        PbftBatchMsg::ViewChange(vc) => Payload::BatchViewChange {
            round,
            vote: vc_to_wire(vc),
        },
        PbftBatchMsg::NewView {
            view,
            rows,
            justification,
        } => Payload::BatchNewView {
            round,
            view: *view,
            rows: rows.clone(),
            justification: justification.iter().map(vc_to_wire).collect(),
        },
    }
}

/// Decodes a wire frame into the adapter message it carries, binding
/// inner vote signatures to the frame signer where they are implicit.
pub(crate) fn pbft_from_wire(payload: Payload, frame_signer: usize) -> Option<PbftBatchMsg> {
    match payload {
        Payload::BatchVote {
            view,
            phase,
            rows,
            tag,
            ..
        } => {
            let sig = Signature {
                signer: NodeId(frame_signer),
                tag,
            };
            match phase {
                PHASE_PRE_PREPARE => Some(PbftBatchMsg::PrePrepare { view, rows, sig }),
                PHASE_PREPARE => Some(PbftBatchMsg::Prepare { view, rows, sig }),
                PHASE_COMMIT => Some(PbftBatchMsg::Commit { view, rows, sig }),
                _ => None,
            }
        }
        Payload::BatchViewChange { vote, .. } => {
            // a view-change vote travels under its voter's frame MAC
            if vote.signer as usize != frame_signer {
                return None;
            }
            Some(PbftBatchMsg::ViewChange(vc_from_wire(vote)))
        }
        Payload::BatchNewView {
            view,
            rows,
            justification,
            ..
        } => Some(PbftBatchMsg::NewView {
            view,
            rows,
            justification: justification.into_iter().map(vc_from_wire).collect(),
        }),
        _ => None,
    }
}

fn vc_to_wire(vc: &ViewChangeVote) -> ViewChangeWire {
    ViewChangeWire {
        new_view: vc.new_view,
        signer: vc.sig.signer.0 as u64,
        tag: vc.sig.tag,
        prepared: vc.prepared.as_ref().map(|cert| PreparedCertWire {
            view: cert.view,
            rows: cert.rows.clone(),
            sigs: cert
                .sigs
                .iter()
                .map(|s| (s.signer.0 as u64, s.tag))
                .collect(),
        }),
    }
}

fn vc_from_wire(vc: ViewChangeWire) -> ViewChangeVote {
    ViewChangeVote {
        new_view: vc.new_view,
        prepared: vc.prepared.map(|cert| PreparedBatch {
            view: cert.view,
            rows: cert.rows,
            sigs: cert
                .sigs
                .into_iter()
                .map(|(signer, tag)| Signature {
                    signer: NodeId(signer as usize),
                    tag,
                })
                .collect(),
        }),
        sig: Signature {
            signer: NodeId(vc.signer as usize),
            tag: vc.tag,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parsing_and_names() {
        for kind in [
            ConsensusKind::LeaderEcho,
            ConsensusKind::DolevStrong,
            ConsensusKind::Pbft,
        ] {
            assert_eq!(kind.as_str().parse::<ConsensusKind>(), Ok(kind));
        }
        assert!("raft".parse::<ConsensusKind>().is_err());
        assert_eq!(ConsensusKind::default(), ConsensusKind::LeaderEcho);
    }

    #[test]
    fn min_cluster_bounds() {
        assert_eq!(ConsensusKind::LeaderEcho.min_cluster(2), 3);
        assert_eq!(ConsensusKind::DolevStrong.min_cluster(2), 3);
        assert_eq!(ConsensusKind::Pbft.min_cluster(2), 7);
    }

    #[test]
    fn wal_protocol_ids_are_stable() {
        // WAL rows persist these: renumbering would misattribute old logs
        assert_eq!(ConsensusKind::LeaderEcho.wal_protocol(), 0);
        assert_eq!(ConsensusKind::DolevStrong.wal_protocol(), 1);
        assert_eq!(ConsensusKind::Pbft.wal_protocol(), 2);
    }

    #[test]
    fn equivocation_variant_is_a_valid_truncation() {
        let rows = vec![vec![8, 0, 0, 1, 42], vec![9, 0, 1, 2, 43]];
        assert_eq!(equivocation_variant(&rows), vec![vec![9, 0, 1, 2, 43]]);
        assert_eq!(equivocation_variant(&Vec::new()), Vec::<Vec<u64>>::new());
    }
}
