//! The load generator: one thread multiplexing every client identity
//! through the public client API — [`Frame::sign`],
//! [`Transport::broadcast_upto`] / [`Transport::recv_timeout`] and
//! [`accept_replies`] — instead of one blocking `CsmClient` thread per
//! identity (the host has two cores; the live workloads need 5 to 130
//! outstanding operations).
//!
//! Writes are bank deposits accepted at `b + 1` matching `(round, output)`
//! replies, pooled across resends. Reads are balance queries accepted at
//! `b + 1` matching `(round, value)` replies, re-sampled on each resend.

use crate::stats::derive;
use csm_core::client::{accept_replies, DeliveryStatus};
use csm_network::auth::KeyRegistry;
use csm_transport::{Frame, Payload, Transport};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What an identity sends.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// Deposits to one shard, keeping `depth` outstanding.
    Writer { shard: u64, depth: usize },
    /// Balance queries, one outstanding, rotating over `shards` shards.
    Reader { shards: u64 },
}

/// One client identity: its endpoint and its closed-loop state.
struct Identity<T> {
    transport: T,
    id: u64,
    role: Role,
    next_key: u64,
    outstanding: usize,
}

type Value = (u64, Vec<u64>);

/// One operation in flight.
struct Op {
    ident: usize,
    write: bool,
    shard: u64,
    amount: u64,
    frame: Frame,
    first_send: Instant,
    last_send: Instant,
    sends: u32,
    by_node: Vec<Option<Value>>,
    first_reply: Option<Instant>,
    /// The watched node's reply to this operation, with its arrival.
    watched: Option<(Instant, Value)>,
}

/// One accepted operation.
#[derive(Debug, Clone)]
pub struct Accepted {
    pub write: bool,
    pub shard: u64,
    /// Deposit amount (writes only).
    pub amount: u64,
    /// The agreed round.
    pub round: u64,
    /// The agreed output (writes) or shard state (reads).
    pub value: Vec<u64>,
    pub latency: Duration,
    pub first_reply: Duration,
    pub resends: u32,
    pub accepted_at: Instant,
}

/// The multiplexing generator.
pub struct Generator<T: Transport> {
    idents: Vec<Identity<T>>,
    registry: Arc<KeyRegistry>,
    cluster: usize,
    need: usize,
    reply_timeout: Duration,
    seed: u64,
    ops: HashMap<(usize, u64), Op>,
    pub accepted: Vec<Accepted>,
    pub issued_writes: u64,
    pub issued_reads: u64,
    rotate: usize,
    /// Node whose replies are compared with accepted values (the rejoin
    /// watch), and since when.
    watch: Option<(usize, Instant)>,
    /// Accepted values of recent operations, for watched replies that
    /// arrive after their operation was accepted.
    recent: HashMap<(usize, u64), Value>,
    /// Arrival of the first watched reply equal to its accepted value.
    pub watch_ok: Option<Instant>,
    /// Watched replies that differed from the accepted value.
    pub watch_wrong: u64,
}

impl<T: Transport> Generator<T> {
    pub fn new(
        transports: Vec<(T, Role)>,
        registry: Arc<KeyRegistry>,
        cluster: usize,
        assumed_faults: usize,
        reply_timeout: Duration,
        seed: u64,
    ) -> Self {
        let idents = transports
            .into_iter()
            .map(|(transport, role)| Identity {
                id: transport.local_id().0 as u64,
                transport,
                role,
                next_key: 0,
                outstanding: 0,
            })
            .collect();
        Generator {
            idents,
            registry,
            cluster,
            need: assumed_faults + 1,
            reply_timeout,
            seed,
            ops: HashMap::new(),
            accepted: Vec::new(),
            issued_writes: 0,
            issued_reads: 0,
            rotate: 0,
            watch: None,
            recent: HashMap::new(),
            watch_ok: None,
            watch_wrong: 0,
        }
    }

    /// Operations still waiting for their quorum.
    pub fn pending(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Starts comparing `node`'s replies from `since` on.
    pub fn watch(&mut self, node: usize, since: Instant) {
        self.watch = Some((node, since));
        self.watch_ok = None;
        self.recent.clear();
    }

    pub fn unwatch(&mut self) {
        self.watch = None;
        self.recent.clear();
    }

    /// The deposit amount of identity `ident`'s `i`-th write.
    fn amount(&self, ident: usize, i: u64) -> u64 {
        1 + derive(self.seed, 0xD0 + ident as u64, i) % 97
    }

    /// The shard identity `ident` reads in its `i`-th query.
    fn read_shard(&self, ident: usize, i: u64, shards: u64) -> u64 {
        derive(self.seed, 0x0E + ident as u64, i) % shards
    }

    fn issue(&mut self, now: Instant) {
        for ident in 0..self.idents.len() {
            loop {
                let me = &self.idents[ident];
                let depth = match me.role {
                    Role::Writer { depth, .. } => depth,
                    Role::Reader { .. } => 1,
                };
                if me.outstanding >= depth {
                    break;
                }
                let key = me.next_key;
                let client = me.id;
                let (payload, write, shard, amount) = match me.role {
                    Role::Writer { shard, .. } => {
                        let amount = self.amount(ident, key);
                        let payload = Payload::Submit {
                            shard,
                            client,
                            seq: key,
                            command: vec![amount],
                        };
                        (payload, true, shard, amount)
                    }
                    Role::Reader { shards } => {
                        let shard = self.read_shard(ident, key, shards);
                        let payload = Payload::Query {
                            shard,
                            client,
                            qid: key,
                        };
                        (payload, false, shard, 0)
                    }
                };
                let frame = Frame::sign(payload, &self.registry, me.transport.local_id());
                let _ = me.transport.broadcast_upto(self.cluster, &frame);
                let me = &mut self.idents[ident];
                me.next_key += 1;
                me.outstanding += 1;
                if write {
                    self.issued_writes += 1;
                } else {
                    self.issued_reads += 1;
                }
                self.ops.insert(
                    (ident, key),
                    Op {
                        ident,
                        write,
                        shard,
                        amount,
                        frame,
                        first_send: now,
                        last_send: now,
                        sends: 1,
                        by_node: vec![None; self.cluster],
                        first_reply: None,
                        watched: None,
                    },
                );
            }
        }
    }

    fn resend_overdue(&mut self, now: Instant) {
        for op in self.ops.values_mut() {
            if now.duration_since(op.last_send) >= self.reply_timeout {
                if !op.write {
                    // nodes answer queries from their current round, so a
                    // fresh attempt re-samples a consistent quorum
                    op.by_node.iter_mut().for_each(|r| *r = None);
                }
                let _ = self.idents[op.ident]
                    .transport
                    .broadcast_upto(self.cluster, &op.frame);
                op.last_send = now;
                op.sends += 1;
            }
        }
    }

    /// Handles one inbound frame on identity `ident`.
    fn handle(&mut self, ident: usize, frame: Frame) {
        let now = Instant::now();
        let node = frame.sig.signer.0;
        if node >= self.cluster {
            return;
        }
        let client = self.idents[ident].id;
        let (key, shard, value, write) = match frame.payload {
            Payload::Reply {
                shard,
                round,
                client: c,
                seq,
                output,
            } if c == client => (seq, shard, (round, output), true),
            Payload::QueryReply {
                shard,
                round,
                client: c,
                qid,
                value,
            } if c == client => (qid, shard, (round, value), false),
            _ => return,
        };
        let watched = matches!(self.watch, Some((w, since)) if w == node && now >= since);
        let Some(op) = self.ops.get_mut(&(ident, key)) else {
            // a late reply: only the watched node's is of interest
            if watched && write {
                if let Some(accepted) = self.recent.get(&(ident, key)) {
                    let ok = *accepted == value;
                    self.judge_watched(now, ok);
                }
            }
            return;
        };
        if op.write != write || op.shard != shard || op.by_node[node].is_some() {
            return;
        }
        if op.first_reply.is_none() {
            op.first_reply = Some(now);
        }
        if watched && op.watched.is_none() {
            op.watched = Some((now, value.clone()));
        }
        op.by_node[node] = Some(value);
        if let DeliveryStatus::Accepted { value, .. } = accept_replies(&op.by_node, self.need) {
            let op = self.ops.remove(&(ident, key)).expect("op present");
            self.idents[ident].outstanding -= 1;
            if let Some((at, v)) = &op.watched {
                let (at, ok) = (*at, *v == value);
                self.judge_watched(at, ok);
            }
            if self.watch.is_some() && write {
                self.recent.insert((ident, key), value.clone());
            }
            self.accepted.push(Accepted {
                write: op.write,
                shard: op.shard,
                amount: op.amount,
                round: value.0,
                value: value.1,
                latency: now.duration_since(op.first_send),
                first_reply: op
                    .first_reply
                    .map_or(Duration::ZERO, |t| t.duration_since(op.first_send)),
                resends: op.sends - 1,
                accepted_at: now,
            });
        }
    }

    fn judge_watched(&mut self, at: Instant, ok: bool) {
        if ok {
            if self.watch_ok.is_none_or(|t| at < t) {
                self.watch_ok = Some(at);
            }
        } else {
            self.watch_wrong += 1;
        }
    }

    /// One generator iteration: top up every identity's outstanding
    /// operations (when `issue`), absorb every reply that has arrived,
    /// resend overdue operations, and — when nothing arrived — block
    /// briefly on one endpoint.
    pub fn step(&mut self, issue: bool) {
        let now = Instant::now();
        if issue {
            self.issue(now);
        }
        let mut got = 0usize;
        for ident in 0..self.idents.len() {
            for _ in 0..256 {
                match self.idents[ident].transport.recv_timeout(Duration::ZERO) {
                    Ok(frame) => {
                        got += 1;
                        self.handle(ident, frame);
                    }
                    Err(_) => break,
                }
            }
        }
        self.resend_overdue(Instant::now());
        if got == 0 {
            self.rotate = (self.rotate + 1) % self.idents.len();
            let ident = self.rotate;
            if let Ok(frame) = self.idents[ident]
                .transport
                .recv_timeout(Duration::from_micros(200))
            {
                self.handle(ident, frame);
            }
        }
    }
}
