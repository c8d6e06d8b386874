//! A minimal sans-io Ring Paxos engine (Marandi et al., DSN 2010).
//!
//! The shape is the paper's: one **coordinator** sequences client
//! values into consensus **instances** and multicasts `Accept`s; the
//! acceptors form a logical **ring** (members in id order) and
//! acknowledge along it, so one `RingAck` travelling the ring carries
//! everyone's vote; the **last** acceptor closes the instance by
//! multicasting the `Decision` (value included, so learners need no
//! separate value channel); learners deliver strictly in instance
//! order. Instances are pipelined behind a bounded in-flight window.
//! The simulator's shared-medium broadcast stands in for IP multicast.
//!
//! # Scope — and what is deliberately out of it
//!
//! This is the *steady-state* protocol plus the loss-recovery plumbing
//! a chaos run needs (retry timers, duplicate suppression, gap repair
//! via [`RingPaxosMsg::LearnReq`]). The coordinator is **fixed**: node
//! `members[0]`, no failover, no Paxos phase 1. A coordinator crash
//! therefore stalls the ensemble until that same node restarts — the
//! chaos harness retargets coordinator crashes for this backend, and
//! the comparison in EXPERIMENTS.md calls the asymmetry out. Ballots
//! exist (they carry the coordinator's incarnation so stale traffic
//! from a previous life is discarded) but are never contended.
//!
//! Everything is sans-io in the house style: inputs arrive with an
//! explicit `now`, outputs accumulate in a caller-owned buffer, and
//! the engine self-applies its own multicasts because the simulated
//! medium — like real multicast sockets configured without loopback —
//! does not echo a frame back to its sender.
//!
//! # State layout
//!
//! Instances are opened densely and in order, so every piece of
//! per-instance state lives in an `InstanceWindow`: a run of
//! consecutive slots indexed by instance offset, with O(1) lookup,
//! insert and remove and iteration in instance order. State that shares
//! a key set shares a slot, which leaves three windows:
//!
//! * `open` — the coordinator's opened, undecided instances, each with
//!   its `Accept` retransmit clock (`OpenInstance`);
//! * `acceptor` — an acceptor's undecided instances: the accepted
//!   value, whether the predecessor's `RingAck` arrived, and whether
//!   this node already forwarded (`AcceptorSlot`);
//! * `learned` — every decision this node has heard (`Learned`): the
//!   first one, kept to serve repairs, and the one awaiting delivery.
//!
//! `open` and `acceptor` hold only in-flight instances and shrink as
//! decisions arrive. `learned` is a log: it keeps every decision for the
//! life of the node, so it grows O(instances) — one slot per instance
//! decided since boot. Nothing truncates it (there is no checkpoint or
//! state transfer to make old decisions unneeded).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

use bytes::Bytes;

use totem_srp::{Delivered, SubmitError};
use totem_wire::{
    Ballot, InstanceId, NetworkId, NodeId, Packet, Proposal, RingId, RingPaxosMsg, Seq,
    SharedPacket, Transition,
};

use crate::backend::Broadcast;
use crate::node::{Nanos, NodeOutput};

/// All Ring Paxos traffic travels on one network: the first. The
/// redundant-network plane is a Totem/RRP concept this backend does
/// not use (a head-to-head must not quietly inherit RRP's masking).
const NET: NetworkId = NetworkId::new(0);

/// In-flight (opened, undecided) instance window at the coordinator.
const WINDOW: usize = 32;

/// Proposer-side bound on unacknowledged submissions; mirrors the SRP
/// send-queue limit so the saturation pump exerts the same pressure on
/// both backends.
const QUEUE_LIMIT: usize = 64;

/// Retry / gap-repair tick.
const TICK_NS: Nanos = 5_000_000;

/// First retransmit backoff for an unacknowledged `Propose` or an
/// undecided open instance; doubles per retry up to [`RETRY_MAX_NS`].
/// Without a backoff a saturated proposer re-pushes its whole
/// outstanding queue every tick — a retransmission storm that drowns
/// the shared medium long before anything is actually stuck (the
/// pipeline keeps every queue full in steady state, so "outstanding"
/// does not mean "lost").
const RETRY_NS: Nanos = 8 * TICK_NS;

/// Retransmit backoff ceiling.
const RETRY_MAX_NS: Nanos = 128 * TICK_NS;

/// How long a delivery gap may stand before the learner asks the
/// coordinator to fill it.
const GAP_NS: Nanos = 10_000_000;

/// A submitted value awaiting its decision, with the retransmit
/// clock that paces how often it is re-pushed at the coordinator.
#[derive(Debug, Clone)]
struct PendingReq {
    payload: Bytes,
    /// When the `Propose` last went out.
    sent: Nanos,
    /// Current retransmit backoff (doubles per retry, capped).
    backoff: Nanos,
}

/// What an instance was decided to: a client value, or `None` for a
/// nop hole-fill.
type Decision = Option<Proposal>;

/// The coordinator's record of an opened, undecided instance, with the
/// retransmit clock of its `Accept` (timestamps are excluded from
/// [`Broadcast::fingerprint`]).
#[derive(Debug)]
struct OpenInstance {
    value: Proposal,
    /// When the `Accept` last went out.
    sent: Nanos,
    /// Current retransmit backoff (doubles per retry, capped).
    backoff: Nanos,
}

/// An acceptor's record of an instance it has not seen decided.
#[derive(Debug, Default)]
struct AcceptorSlot {
    /// The value from the coordinator's `Accept`, once one arrived.
    value: Option<Proposal>,
    /// The predecessor's `RingAck` has arrived.
    pred_acked: bool,
    /// This acceptor has acked (or decided) the instance. A
    /// retransmitted `Accept` clears it first: a retry means the ring
    /// stalled, so the ack (or the closing `Decision`) must travel
    /// again — the original may have been lost.
    forwarded: bool,
}

/// A learner's record of a decided instance.
#[derive(Debug)]
struct Learned {
    /// The first decision heard, kept for the node's life so any
    /// `LearnReq` or duplicate `Propose` can be served from it (every
    /// node keeps one: the coordinator itself may miss the `Decision`
    /// multicast, and its repair request can then be answered by any
    /// peer that saw it).
    logged: Decision,
    /// The decision to deliver: the latest heard, taken on delivery.
    /// `Some` exactly for instances at or after `next_deliver`.
    pending: Option<Decision>,
}

/// How far beyond either end of a non-empty [`InstanceWindow`] an
/// insert may land. The ring stalls while any member is down or cut
/// off, so real traffic stays within a few in-flight windows of the
/// instances a node already holds; the bound exists so that one corrupt
/// instance id cannot allocate gigabytes of empty slots. An insert past
/// it is refused and the message carrying it dropped, as if lost.
const MAX_GAP: usize = 1 << 16;

/// A map from instance ids to `V`, kept as a run of consecutive slots.
///
/// Slot `i` holds instance `base_iid + i`, by raw wrapping arithmetic
/// (so across the `u64` wrap the slot of the reserved id 0 just stays
/// empty). The first and last slots are always occupied: removing an
/// end entry trims the run, and an emptied window takes its next insert
/// as the new base. Inserts may land at most [`MAX_GAP`] instances
/// before the first or after the last entry. Iteration runs in serial
/// instance order from the first entry.
#[derive(Debug)]
struct InstanceWindow<V> {
    /// The instance of `slots[0]`; meaningless while `slots` is empty.
    base_iid: InstanceId,
    slots: VecDeque<Option<V>>,
    /// Occupied slots.
    len: usize,
}

impl<V> InstanceWindow<V> {
    fn new() -> Self {
        InstanceWindow { base_iid: InstanceId::ZERO, slots: VecDeque::new(), len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `iid`'s distance past the base, by serial offset.
    fn offset(&self, iid: InstanceId) -> Option<usize> {
        usize::try_from(iid.as_u64().wrapping_sub(self.base_iid.as_u64())).ok()
    }

    fn get(&self, iid: InstanceId) -> Option<&V> {
        self.slots.get(self.offset(iid)?)?.as_ref()
    }

    fn get_mut(&mut self, iid: InstanceId) -> Option<&mut V> {
        let i = self.offset(iid)?;
        self.slots.get_mut(i)?.as_mut()
    }

    fn contains(&self, iid: InstanceId) -> bool {
        self.get(iid).is_some()
    }

    /// The entry for `iid`, created by `f` if absent; `None` (and no
    /// change) when `iid` lies more than [`MAX_GAP`] from the window.
    fn get_or_insert_with(&mut self, iid: InstanceId, f: impl FnOnce() -> V) -> Option<&mut V> {
        if self.slots.is_empty() {
            self.base_iid = iid;
        }
        let len = self.slots.len();
        let i = match self.offset(iid) {
            Some(i) if i < len => i,
            Some(i) if i - len < MAX_GAP => {
                self.slots.resize_with(i + 1, || None);
                i
            }
            _ => {
                let before = self.base_iid.as_u64().wrapping_sub(iid.as_u64());
                let n = usize::try_from(before).ok().filter(|&n| n <= MAX_GAP)?;
                self.slots.reserve(n);
                for _ in 0..n {
                    self.slots.push_front(None);
                }
                self.base_iid = iid;
                0
            }
        };
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.len += 1;
        }
        Some(slot.get_or_insert_with(f))
    }

    fn remove(&mut self, iid: InstanceId) -> Option<V> {
        let i = self.offset(iid)?;
        let v = self.slots.get_mut(i)?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base_iid = InstanceId::new(self.base_iid.as_u64().wrapping_add(1));
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(v)
    }

    /// Entries in instance order.
    fn iter(&self) -> impl Iterator<Item = (InstanceId, &V)> {
        self.iter_from(self.base_iid)
    }

    /// Entries at or after `from`, in instance order (all of them when
    /// `from` precedes the window).
    fn iter_from(&self, from: InstanceId) -> impl Iterator<Item = (InstanceId, &V)> {
        let (skip, mut raw) = if from.follows(self.base_iid) {
            (self.offset(from).unwrap_or(usize::MAX), from.as_u64())
        } else {
            (0, self.base_iid.as_u64())
        };
        self.slots.range(skip.min(self.slots.len())..).filter_map(move |slot| {
            let iid = InstanceId::new(raw);
            raw = raw.wrapping_add(1);
            slot.as_ref().map(|v| (iid, v))
        })
    }
}

/// One node of the Ring Paxos ensemble. Every node is proposer,
/// acceptor and learner; `members[0]` additionally coordinates.
#[derive(Debug)]
pub struct RingPaxosNode {
    id: NodeId,
    /// The static ensemble, in id order — also the acceptor ring.
    members: Vec<NodeId>,
    /// This node's position on the ring.
    pos: usize,
    /// The ballot this node stamps on coordinator traffic: its
    /// incarnation, so a rebooted coordinator outranks its past self.
    ballot: Ballot,
    /// This node's incarnation (restamped on proposals so the
    /// coordinator can tell a rebooted proposer's fresh request
    /// counter from its previous life's).
    inc: u64,

    // --- proposer ---
    /// Next request number to assign (from 1, per incarnation).
    next_req: u64,
    /// Submitted values awaiting a decision, in request order, each
    /// with its retransmit clock (not part of the observable state:
    /// timestamps are excluded from [`Broadcast::hash_state`]).
    outstanding: BTreeMap<u64, PendingReq>,

    // --- coordinator (only populated on `members[0]`) ---
    /// Next instance to open.
    next_iid: InstanceId,
    /// Per-proposer next expected request number (in-order intake).
    expected_req: BTreeMap<(NodeId, u64), u64>,
    /// Out-of-order proposals parked until their predecessors arrive.
    parked: BTreeMap<(NodeId, u64), BTreeMap<u64, Proposal>>,
    /// In-order proposals waiting for a window slot.
    ready: VecDeque<Proposal>,
    /// Opened, undecided instances.
    open: InstanceWindow<OpenInstance>,
    /// Which instance each request was sequenced into (duplicate
    /// `Propose` suppression and re-serve).
    assigned: BTreeMap<(NodeId, u64, u64), InstanceId>,

    // --- acceptor ---
    /// Serially-highest *coordinator* ballot seen; older coordinator
    /// lives are ignored. Starts at zero on non-coordinators — it
    /// tracks the coordinator's incarnation, not this node's, so a
    /// reborn acceptor must not outrank a coordinator that never
    /// crashed.
    max_ballot: Ballot,
    /// Instances not yet decided here that have seen an `Accept` or
    /// the predecessor's `RingAck`.
    acceptor: InstanceWindow<AcceptorSlot>,

    // --- learner ---
    /// Every decision learned since boot, delivered or not.
    learned: InstanceWindow<Learned>,
    /// Next instance to deliver.
    next_deliver: InstanceId,
    /// Requests already delivered — a re-sequenced duplicate (post
    /// coordinator amnesia) is skipped, not re-delivered.
    delivered_reqs: BTreeSet<(NodeId, u64, u64)>,
    /// Serially-highest instance observed anywhere in the traffic
    /// (gap detection: delivery is behind whenever this outruns
    /// `next_deliver`).
    max_seen: InstanceId,
    /// When the current head-of-line delivery gap was first seen.
    gap_since: Option<Nanos>,

    // --- machinery ---
    transitions: Vec<Transition>,
    deadline: Option<Nanos>,
}

impl RingPaxosNode {
    /// A node of the static ensemble `members`.
    ///
    /// `incarnation` stamps this node's proposals (and, on the
    /// coordinator, its ballot); `epoch` is the crash watermark a
    /// restart carries in ([`Broadcast::crash_epoch`] of the previous
    /// life) — delivery and instance numbering resume strictly beyond
    /// it. A fresh boot passes `epoch = 0`.
    pub fn new(id: NodeId, members: &[NodeId], incarnation: u64, epoch: u64) -> Self {
        let mut members: Vec<NodeId> = members.to_vec();
        members.sort_unstable();
        members.dedup();
        let pos = members.iter().position(|&m| m == id).expect("node must be a member");
        let horizon = InstanceId::new(epoch);
        RingPaxosNode {
            id,
            pos,
            ballot: Ballot::new(incarnation),
            inc: incarnation,
            next_req: 1,
            outstanding: BTreeMap::new(),
            next_iid: horizon.next(),
            expected_req: BTreeMap::new(),
            parked: BTreeMap::new(),
            ready: VecDeque::new(),
            open: InstanceWindow::new(),
            assigned: BTreeMap::new(),
            max_ballot: if pos == 0 { Ballot::new(incarnation) } else { Ballot::ZERO },
            acceptor: InstanceWindow::new(),
            learned: InstanceWindow::new(),
            next_deliver: horizon.next(),
            delivered_reqs: BTreeSet::new(),
            max_seen: horizon,
            gap_since: None,
            transitions: Vec::new(),
            deadline: None,
            members,
        }
    }

    /// The static ensemble, in ring order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether this node is the (fixed) coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.pos == 0
    }

    /// Opened-but-undecided instances at the coordinator (zero
    /// elsewhere); exposed for tests and diagnostics.
    pub fn open_instances(&self) -> usize {
        self.open.len()
    }

    fn coordinator(&self) -> NodeId {
        self.members[0]
    }

    /// The fixed ring identity stamped on deliveries: led by the
    /// coordinator, sequence 0 (the ensemble never reforms).
    fn ring_id(&self) -> RingId {
        RingId::new(self.coordinator(), 0)
    }

    fn note_transition(
        &mut self,
        machine: &'static str,
        from: &'static str,
        event: &'static str,
        to: &'static str,
    ) {
        self.transitions.push(Transition { machine, from, event, to });
    }

    /// The coordinator pipeline machine's current state name.
    fn pipeline_state(&self) -> &'static str {
        if self.open.is_empty() {
            "Idle"
        } else {
            "Open"
        }
    }

    fn observe(&mut self, iid: InstanceId) {
        self.max_seen = self.max_seen.serial_max(iid);
    }

    /// Emits `msg` to every peer on the shared medium and applies it
    /// locally (the medium does not echo to the sender).
    fn multicast(&mut self, now: Nanos, msg: RingPaxosMsg, out: &mut Vec<NodeOutput>) {
        out.push(NodeOutput::Send {
            net: NET,
            dst: None,
            pkt: SharedPacket::new(Packet::RingPaxos(msg.clone())),
        });
        self.handle(now, msg, out);
    }

    fn unicast(&mut self, now: Nanos, dst: NodeId, msg: RingPaxosMsg, out: &mut Vec<NodeOutput>) {
        if dst == self.id {
            self.handle(now, msg, out);
        } else {
            out.push(NodeOutput::Send {
                net: NET,
                dst: Some(dst),
                pkt: SharedPacket::new(Packet::RingPaxos(msg)),
            });
        }
    }

    fn handle(&mut self, now: Nanos, msg: RingPaxosMsg, out: &mut Vec<NodeOutput>) {
        match msg {
            RingPaxosMsg::Propose(p) => self.on_propose(now, p, out),
            RingPaxosMsg::Accept { iid, ballot, value } => {
                self.on_accept(now, iid, ballot, value, out);
            }
            RingPaxosMsg::RingAck { iid, ballot, from } => {
                self.on_ring_ack(now, iid, ballot, from, out);
            }
            RingPaxosMsg::Decision { iid, nop, value } => {
                self.on_decision(now, iid, nop, value, out);
            }
            RingPaxosMsg::LearnReq { from, iid } => self.on_learn_req(now, from, iid, out),
        }
        self.rearm(now);
    }

    // --- coordinator ---

    fn on_propose(&mut self, now: Nanos, p: Proposal, out: &mut Vec<NodeOutput>) {
        if !self.is_coordinator() {
            return;
        }
        let key = (p.sender, p.inc);
        let expected = *self.expected_req.get(&key).unwrap_or(&1);
        if p.req < expected {
            // A retransmission of a request already sequenced: re-serve
            // whatever stage it is in rather than sequencing it twice.
            if let Some(&iid) = self.assigned.get(&(p.sender, p.inc, p.req)) {
                if let Some(decision) = self.learned.get(iid).map(|l| l.logged.clone()) {
                    let nop = decision.is_none();
                    let value = decision.unwrap_or_else(Self::nop_value);
                    self.multicast(now, RingPaxosMsg::Decision { iid, nop, value }, out);
                } else if let Some(value) = self.open.get(iid).map(|o| o.value.clone()) {
                    let ballot = self.ballot;
                    self.multicast(now, RingPaxosMsg::Accept { iid, ballot, value }, out);
                }
            }
            return;
        }
        if p.req > expected {
            // Ahead of its predecessors (reordering or loss): park it;
            // intake stays strictly in per-proposer request order so
            // FIFO survives sequencing.
            self.parked.entry(key).or_default().insert(p.req, p);
            return;
        }
        let mut next = expected + 1;
        self.ready.push_back(p);
        // Unpark any successors this arrival released.
        if let Some(run) = self.parked.get_mut(&key) {
            while let Some(q) = run.remove(&next) {
                self.ready.push_back(q);
                next += 1;
            }
            if run.is_empty() {
                self.parked.remove(&key);
            }
        }
        self.expected_req.insert(key, next);
        self.fill_window(now, out);
    }

    /// Opens ready proposals into instances while the in-flight window
    /// has room.
    fn fill_window(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        while self.open.len() < WINDOW {
            let Some(p) = self.ready.pop_front() else { break };
            let iid = self.next_iid;
            let was_idle = self.open.is_empty();
            let opened = OpenInstance { value: p.clone(), sent: now, backoff: RETRY_NS };
            if self.open.get_or_insert_with(iid, || opened).is_none() {
                // The oldest open instance is stuck MAX_GAP behind:
                // wait for it to decide before opening more.
                self.ready.push_front(p);
                break;
            }
            self.next_iid = self.next_iid.next();
            self.observe(iid);
            if was_idle {
                self.note_transition("ring-paxos", "Idle", "Propose", "Open");
            } else {
                self.note_transition("ring-paxos", "Open", "Pipeline", "Open");
            }
            self.assigned.insert((p.sender, p.inc, p.req), iid);
            let ballot = self.ballot;
            self.multicast(now, RingPaxosMsg::Accept { iid, ballot, value: p }, out);
        }
    }

    fn nop_value() -> Proposal {
        Proposal { sender: NodeId::new(0), inc: 0, req: 0, payload: Bytes::new() }
    }

    fn on_learn_req(
        &mut self,
        now: Nanos,
        _from: NodeId,
        iid: InstanceId,
        out: &mut Vec<NodeOutput>,
    ) {
        if self.learned.contains(iid) {
            // Any node that saw the decision can serve a repair (the
            // requester may be the coordinator itself, if it missed
            // the Decision multicast). Serve the requested instance
            // plus a run of known successors so a reborn learner
            // catches up a burst per gap tick, not one instance.
            self.note_hole_fill();
            let mut at = iid;
            for _ in 0..8 {
                let Some(decision) = self.learned.get(at).map(|l| l.logged.clone()) else {
                    break;
                };
                let nop = decision.is_none();
                let value = decision.unwrap_or_else(Self::nop_value);
                self.multicast(now, RingPaxosMsg::Decision { iid: at, nop, value }, out);
                at = at.next();
            }
            return;
        }
        if !self.is_coordinator() {
            return; // nothing known here; the coordinator will answer
        }
        if let Some(o) = self.open.get_mut(iid) {
            // Still in flight: drive the ring again instead of
            // deciding over its head.
            o.sent = now;
            o.backoff = RETRY_NS;
            let value = o.value.clone();
            self.note_hole_fill();
            let ballot = self.ballot;
            self.multicast(now, RingPaxosMsg::Accept { iid, ballot, value }, out);
        } else if self.next_iid.follows(iid) {
            // Opened by a previous life of this coordinator and lost
            // with it: fill the hole with a nop so delivery can move.
            self.note_hole_fill();
            self.multicast(
                now,
                RingPaxosMsg::Decision { iid, nop: true, value: Self::nop_value() },
                out,
            );
        }
        // An iid at or beyond next_iid is a confused learner; ignore.
    }

    fn note_hole_fill(&mut self) {
        if self.pipeline_state() == "Idle" {
            self.note_transition("ring-paxos", "Idle", "HoleFill", "Idle");
        } else {
            self.note_transition("ring-paxos", "Open", "HoleFill", "Open");
        }
    }

    // --- acceptor ---

    fn on_accept(
        &mut self,
        now: Nanos,
        iid: InstanceId,
        ballot: Ballot,
        value: Proposal,
        out: &mut Vec<NodeOutput>,
    ) {
        if !ballot.at_or_after(self.max_ballot) {
            return; // stale coordinator life
        }
        self.max_ballot = ballot;
        self.observe(iid);
        if self.decided_here(iid) {
            return;
        }
        let Some(slot) = self.acceptor.get_or_insert_with(iid, AcceptorSlot::default) else {
            return;
        };
        // A fresh Accept is not `forwarded`; a retransmitted one means
        // the coordinator is still waiting, so whatever this acceptor
        // sent last time was lost — send it again.
        slot.forwarded = false;
        slot.value = Some(value);
        self.advance_ring(now, iid, out);
    }

    /// Whether `iid` is decided here, delivered or not. Every decided
    /// instance at or after `next_deliver` is in `learned`.
    fn decided_here(&self, iid: InstanceId) -> bool {
        self.next_deliver.follows(iid) || self.learned.contains(iid)
    }

    fn on_ring_ack(
        &mut self,
        now: Nanos,
        iid: InstanceId,
        ballot: Ballot,
        from: NodeId,
        out: &mut Vec<NodeOutput>,
    ) {
        if !ballot.at_or_after(self.max_ballot) {
            return;
        }
        self.max_ballot = ballot;
        self.observe(iid);
        if self.pos == 0 || self.members[self.pos - 1] != from {
            return; // not my predecessor's ack; not mine to forward
        }
        if self.decided_here(iid) {
            return; // a late ack: the instance has no vote left to forward
        }
        let Some(slot) = self.acceptor.get_or_insert_with(iid, AcceptorSlot::default) else {
            return;
        };
        slot.pred_acked = true;
        if slot.value.is_some() {
            self.advance_ring(now, iid, out);
        }
    }

    /// Moves the ring forward for `iid` if this acceptor's turn has
    /// come: position 1's vote is unlocked by the `Accept` itself (the
    /// coordinator's vote is implicit in sending it), later positions
    /// need their predecessor's `RingAck`; the last position closes the
    /// instance by multicasting the `Decision`.
    fn advance_ring(&mut self, now: Nanos, iid: InstanceId, out: &mut Vec<NodeOutput>) {
        let last = self.members.len() - 1;
        if self.pos == 0 && last != 0 {
            return; // the coordinator's vote travels inside the Accept
        }
        let first = self.pos <= 1;
        let Some(slot) = self.acceptor.get_mut(iid) else { return };
        if !(first || slot.pred_acked) || slot.forwarded {
            return;
        }
        slot.forwarded = true;
        if self.pos == last {
            let value = slot.value.clone().expect("accepted before decide");
            self.note_transition("ring-paxos-ring", "Steady", "LastDecide", "Steady");
            self.multicast(now, RingPaxosMsg::Decision { iid, nop: false, value }, out);
        } else {
            let ballot = self.max_ballot;
            let next = self.members[self.pos + 1];
            self.note_transition("ring-paxos-ring", "Steady", "RingForward", "Steady");
            self.unicast(now, next, RingPaxosMsg::RingAck { iid, ballot, from: self.id }, out);
        }
    }

    // --- learner ---

    fn on_decision(
        &mut self,
        now: Nanos,
        iid: InstanceId,
        nop: bool,
        value: Proposal,
        out: &mut Vec<NodeOutput>,
    ) {
        self.observe(iid);
        let decision: Decision = if nop { None } else { Some(value) };
        if self.open.remove(iid).is_some() && self.open.is_empty() {
            self.note_transition("ring-paxos", "Open", "Drained", "Idle");
        }
        // Our own submission came home: stop retrying it.
        if let Some(p) = decision.as_ref() {
            if p.sender == self.id && p.inc == self.inc {
                self.outstanding.remove(&p.req);
            }
        }
        let delivered = self.next_deliver.follows(iid);
        let Some(learned) = self
            .learned
            .get_or_insert_with(iid, || Learned { logged: decision.clone(), pending: None })
        else {
            return;
        };
        if delivered {
            return; // a retransmitted decision
        }
        learned.pending = Some(decision);
        self.acceptor.remove(iid);
        self.deliver_in_order(out);
        if self.is_coordinator() {
            self.fill_window(now, out);
        }
    }

    fn deliver_in_order(&mut self, out: &mut Vec<NodeOutput>) {
        while let Some(decision) =
            self.learned.get_mut(self.next_deliver).and_then(|l| l.pending.take())
        {
            let iid = self.next_deliver;
            self.next_deliver = self.next_deliver.next();
            self.gap_since = None;
            // A nop hole-fill occupies the instance but delivers
            // nothing; a request the (amnesiac) coordinator sequenced
            // twice is delivered at its first instance only.
            let Some(p) = decision else { continue };
            if !self.delivered_reqs.insert((p.sender, p.inc, p.req)) {
                continue;
            }
            out.push(NodeOutput::Deliver(Delivered {
                sender: p.sender,
                seq: Seq::new(iid.as_u64()),
                ring: self.ring_id(),
                data: p.payload,
            }));
        }
    }

    /// Whether delivery is stuck behind a missing decision.
    fn delivery_gap(&self) -> bool {
        self.max_seen.at_or_after(self.next_deliver) && !self.learned.contains(self.next_deliver)
    }

    /// Decided instances not yet delivered (`None` = a nop), in
    /// instance order.
    fn undelivered(&self) -> impl Iterator<Item = (InstanceId, &Decision)> {
        self.learned
            .iter_from(self.next_deliver)
            .filter_map(|(k, l)| Some((k, l.pending.as_ref()?)))
    }

    // --- timers ---

    fn rearm(&mut self, now: Nanos) {
        let busy = !self.outstanding.is_empty()
            || !self.open.is_empty()
            || !self.ready.is_empty()
            || self.undelivered().next().is_some()
            || self.delivery_gap();
        if !busy {
            self.deadline = None;
        } else {
            // Arm a fresh tick, but never push back one already armed:
            // rearm runs on every event, and under a steady inbound
            // stream (peers retrying every tick) a sliding deadline
            // would be postponed forever — the retry timer this node
            // itself needs to unwedge the ring would starve.
            let next = now + TICK_NS;
            self.deadline = Some(self.deadline.filter(|&d| d > now).map_or(next, |d| d.min(next)));
        }
        if self.delivery_gap() {
            self.gap_since.get_or_insert(now);
        } else {
            self.gap_since = None;
        }
    }

    fn fire(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        // Proposer: re-push unacknowledged requests whose backoff has
        // expired, oldest first (duplicates are suppressed at the
        // coordinator). The backoff doubles per retry so a healthily
        // loaded pipeline — where "outstanding" just means "queued" —
        // is not drowned in retransmissions.
        let (due, n) = first_eight(
            self.outstanding
                .iter()
                .filter(|(_, r)| now.saturating_sub(r.sent) >= r.backoff)
                .map(|(&req, _)| req),
        );
        for &req in &due[..n] {
            let Some(r) = self.outstanding.get_mut(&req) else { continue };
            r.sent = now;
            r.backoff = (r.backoff * 2).min(RETRY_MAX_NS);
            let p = Proposal { sender: self.id, inc: self.inc, req, payload: r.payload.clone() };
            self.unicast(now, self.coordinator(), RingPaxosMsg::Propose(p), out);
        }
        // Coordinator: drive the ring again for undecided instances
        // whose backoff has expired.
        let (stalled, n) = first_eight(
            self.open
                .iter()
                .filter(|(_, o)| now.saturating_sub(o.sent) >= o.backoff)
                .map(|(iid, _)| iid),
        );
        if n > 0 {
            self.note_transition("ring-paxos", "Open", "Retry", "Open");
        }
        for &iid in &stalled[..n] {
            let Some(o) = self.open.get_mut(iid) else { continue };
            o.sent = now;
            o.backoff = (o.backoff * 2).min(RETRY_MAX_NS);
            let value = o.value.clone();
            let ballot = self.ballot;
            self.multicast(now, RingPaxosMsg::Accept { iid, ballot, value }, out);
        }
        // Learner: a gap that outlived the grace period gets reported
        // for repair — to the coordinator, whose log is authoritative;
        // or, when the *coordinator* is the one with the gap (it
        // missed a Decision multicast), to everyone, since any peer
        // that saw the decision can re-serve it.
        if self.delivery_gap() {
            if let Some(since) = self.gap_since {
                if now.saturating_sub(since) >= GAP_NS {
                    self.gap_since = Some(now);
                    let iid = self.next_deliver;
                    self.note_transition("ring-paxos-ring", "Steady", "GapRepair", "Steady");
                    let from = self.id;
                    if self.is_coordinator() {
                        self.multicast(now, RingPaxosMsg::LearnReq { from, iid }, out);
                    } else {
                        self.unicast(
                            now,
                            self.coordinator(),
                            RingPaxosMsg::LearnReq { from, iid },
                            out,
                        );
                    }
                }
            }
        }
        self.rearm(now);
    }
}

/// The first eight of `items` (fewer if it runs out), gathered without
/// allocating: a tick re-sends at most eight items of each kind.
fn first_eight<T: Copy + Default>(items: impl Iterator<Item = T>) -> ([T; 8], usize) {
    let mut batch = [T::default(); 8];
    let mut n = 0;
    for (slot, item) in batch.iter_mut().zip(items) {
        *slot = item;
        n += 1;
    }
    (batch, n)
}

impl Broadcast for RingPaxosNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn start_into(&mut self, _now: Nanos, _out: &mut Vec<NodeOutput>) {
        // Static ensemble: nothing to announce.
    }

    fn bootstrap_into(&mut self, _now: Nanos, _out: &mut Vec<NodeOutput>) {
        // No bootstrap artifact (the token is a Totem concept).
    }

    fn submit_into(
        &mut self,
        now: Nanos,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError> {
        if self.outstanding.len() >= QUEUE_LIMIT {
            return Err(SubmitError { limit: QUEUE_LIMIT });
        }
        let req = self.next_req;
        self.next_req += 1;
        self.outstanding
            .insert(req, PendingReq { payload: data.clone(), sent: now, backoff: RETRY_NS });
        let p = Proposal { sender: self.id, inc: self.inc, req, payload: data };
        self.unicast(now, self.coordinator(), RingPaxosMsg::Propose(p), out);
        self.rearm(now);
        Ok(())
    }

    fn on_packet_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    ) {
        if net != NET {
            return; // single-network protocol: other planes are noise
        }
        if let Packet::RingPaxos(msg) = pkt.into_packet() {
            self.handle(now, msg, out);
        }
    }

    fn on_timer_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        match self.deadline {
            Some(d) if now >= d => self.fire(now, out),
            _ => {}
        }
    }

    fn next_deadline(&self) -> Option<Nanos> {
        self.deadline
    }

    fn send_queue_len(&self) -> usize {
        self.outstanding.len()
    }

    fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.transitions)
    }

    fn fingerprint<H: Hasher>(&self, h: &mut H) {
        self.id.hash(h);
        self.ballot.hash(h);
        self.max_ballot.hash(h);
        self.inc.hash(h);
        self.next_req.hash(h);
        self.next_iid.hash(h);
        self.next_deliver.hash(h);
        self.max_seen.hash(h);
        self.outstanding.len().hash(h);
        for (req, pending) in &self.outstanding {
            req.hash(h);
            pending.payload.len().hash(h);
        }
        self.open.len().hash(h);
        for (k, _) in self.open.iter() {
            k.as_u64().hash(h);
        }
        let accepted = || self.acceptor.iter().filter(|(_, s)| s.value.is_some());
        accepted().count().hash(h);
        for (k, _) in accepted() {
            k.as_u64().hash(h);
        }
        self.undelivered().count().hash(h);
        for (k, v) in self.undelivered() {
            k.as_u64().hash(h);
            v.is_some().hash(h);
        }
        self.delivered_reqs.len().hash(h);
    }

    fn crash_epoch(&self) -> u64 {
        // The *delivered* watermark, not `max_seen`: a reboot resumes
        // delivery exactly where the dead incarnation stopped, so it
        // redelivers nothing yet still acks (and later catches up on)
        // every instance the old life saw but never delivered. Seeding
        // it from `max_seen` would make the reborn acceptor refuse
        // those in-flight instances as "already delivered", wedging
        // the ring at its position forever. The coordinator would need
        // `max_seen` here to avoid re-numbering collisions — but a
        // coordinator crash is outside this backend's scope (fixed
        // coordinator, no failover) and the chaos/mc harnesses never
        // inject one.
        self.next_deliver.as_u64().wrapping_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ensemble(n: u16) -> Vec<RingPaxosNode> {
        let members: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        members.iter().map(|&id| RingPaxosNode::new(id, &members, 0, 0)).collect()
    }

    /// Routes queued `Send` outputs between the nodes until the wire
    /// falls silent, returning deliveries per node.
    fn pump(nodes: &mut [RingPaxosNode], out: Vec<NodeOutput>) -> Vec<Vec<Delivered>> {
        let mut delivered: Vec<Vec<Delivered>> = vec![Vec::new(); nodes.len()];
        let mut wire: VecDeque<(usize, NodeOutput)> = out.into_iter().map(|o| (0, o)).collect();
        let mut guard = 0;
        while let Some((src, o)) = wire.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "wire never drained");
            match o {
                NodeOutput::Send { dst, pkt, .. } => {
                    let targets: Vec<usize> = match dst {
                        Some(d) => vec![d.as_u16() as usize],
                        None => (0..nodes.len()).filter(|&i| i != src).collect(),
                    };
                    for t in targets {
                        let mut out = Vec::new();
                        nodes[t].on_packet_into(0, NET, pkt.clone(), &mut out);
                        for x in out {
                            match x {
                                NodeOutput::Deliver(d) => delivered[t].push(d),
                                other => wire.push_back((t, other)),
                            }
                        }
                    }
                }
                NodeOutput::Deliver(d) => delivered[src].push(d),
                _ => {}
            }
        }
        delivered
    }

    fn submit(nodes: &mut [RingPaxosNode], who: usize, data: &'static [u8]) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        nodes[who].submit_into(0, Bytes::from_static(data), &mut out).unwrap();
        out.into_iter().collect()
    }

    #[test]
    fn three_nodes_agree_on_one_value() {
        let mut nodes = ensemble(3);
        let out = submit(&mut nodes, 1, b"v-1");
        let delivered = pump(&mut nodes, out);
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.len(), 1, "node {i} must deliver exactly once");
            assert_eq!(d[0].data.as_ref(), b"v-1");
            assert_eq!(d[0].sender, NodeId::new(1));
            assert_eq!(d[0].seq, Seq::new(1));
        }
    }

    #[test]
    fn two_node_ring_decides_without_acks() {
        // n = 2: the single non-coordinator acceptor is also the last;
        // the Accept alone closes the instance.
        let mut nodes = ensemble(2);
        let out = submit(&mut nodes, 0, b"x-1");
        let delivered = pump(&mut nodes, out);
        assert!(delivered.iter().all(|d| d.len() == 1));
    }

    #[test]
    fn pipelined_submissions_deliver_in_instance_order_everywhere() {
        let mut nodes = ensemble(4);
        let mut out = Vec::new();
        out.extend(submit(&mut nodes, 1, b"a-1"));
        out.extend(submit(&mut nodes, 2, b"b-1"));
        out.extend(submit(&mut nodes, 1, b"a-2"));
        let delivered = pump(&mut nodes, out);
        let orders: Vec<Vec<&[u8]>> =
            delivered.iter().map(|d| d.iter().map(|m| m.data.as_ref()).collect()).collect();
        for o in &orders {
            assert_eq!(o.len(), 3);
            assert_eq!(o, &orders[0], "total order must be identical on every node");
        }
        // FIFO per sender survives sequencing.
        let a: Vec<&[u8]> = orders[0].iter().copied().filter(|p| p.starts_with(b"a-")).collect();
        assert_eq!(a, vec![b"a-1".as_ref(), b"a-2".as_ref()]);
    }

    #[test]
    fn duplicate_propose_is_sequenced_once() {
        let mut nodes = ensemble(3);
        let out = submit(&mut nodes, 1, b"v-1");
        // The proposer's retry timer re-sends the same request.
        let dup = {
            let mut out2 = Vec::new();
            let p = Proposal {
                sender: NodeId::new(1),
                inc: 0,
                req: 1,
                payload: Bytes::from_static(b"v-1"),
            };
            nodes[1].unicast(0, NodeId::new(0), RingPaxosMsg::Propose(p), &mut out2);
            out2
        };
        let mut all = out;
        all.extend(dup);
        let mut wire: Vec<(usize, NodeOutput)> = Vec::new();
        for o in all {
            wire.push((1, o));
        }
        // Re-route by hand: both the original and the duplicate go to
        // the coordinator, which must open exactly one instance.
        let mut delivered: Vec<Vec<Delivered>> = vec![Vec::new(); 3];
        let mut queue: VecDeque<(usize, NodeOutput)> = wire.into();
        let mut guard = 0;
        while let Some((src, o)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000);
            if let NodeOutput::Send { dst, pkt, .. } = o {
                let targets: Vec<usize> = match dst {
                    Some(d) => vec![d.as_u16() as usize],
                    None => (0..3).filter(|&i| i != src).collect(),
                };
                for t in targets {
                    let mut out = Vec::new();
                    nodes[t].on_packet_into(0, NET, pkt.clone(), &mut out);
                    for x in out {
                        match x {
                            NodeOutput::Deliver(d) => delivered[t].push(d),
                            other => queue.push_back((t, other)),
                        }
                    }
                }
            } else if let NodeOutput::Deliver(d) = o {
                delivered[src].push(d);
            }
        }
        for d in &delivered {
            assert_eq!(d.len(), 1, "duplicate request must not deliver twice");
        }
    }

    #[test]
    fn learner_gap_is_repaired_via_learn_req() {
        // In a 3-node ring the last acceptor (node 2) originates the
        // Decision, so the lossy learner must be node 1: it sees the
        // Accept, acks, and then loses the Decision multicast.
        let mut nodes = ensemble(3);
        let out = submit(&mut nodes, 0, b"w-1");
        let mut dropped = 0;
        let mut queue: VecDeque<(usize, NodeOutput)> = out.into_iter().map(|o| (0, o)).collect();
        let mut delivered1 = 0;
        let mut guard = 0;
        while let Some((src, o)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000);
            if let NodeOutput::Send { dst, pkt, .. } = o {
                let targets: Vec<usize> = match dst {
                    Some(d) => vec![d.as_u16() as usize],
                    None => (0..3).filter(|&i| i != src).collect(),
                };
                for t in targets {
                    if t == 1
                        && matches!(pkt.packet(), Packet::RingPaxos(RingPaxosMsg::Decision { .. }))
                    {
                        dropped += 1;
                        continue; // the loss under test
                    }
                    let mut out = Vec::new();
                    nodes[t].on_packet_into(0, NET, pkt.clone(), &mut out);
                    for x in out {
                        match x {
                            NodeOutput::Deliver(_) if t == 1 => delivered1 += 1,
                            NodeOutput::Deliver(_) => {}
                            other => queue.push_back((t, other)),
                        }
                    }
                }
            }
        }
        assert!(dropped > 0, "test must actually drop a decision");
        assert_eq!(delivered1, 0);
        // Node 1 knows instance 1 exists (it saw the Accept): its gap
        // timer fires, asks the coordinator, and the re-multicast
        // decision completes delivery.
        assert!(nodes[1].next_deadline().is_some(), "gapped learner must arm a timer");
        let mut learn = Vec::new();
        let t1 = nodes[1].next_deadline().unwrap().max(GAP_NS);
        nodes[1].on_timer_into(t1, &mut learn);
        assert!(
            learn.iter().any(|o| matches!(
                o,
                NodeOutput::Send { dst: Some(_), pkt, .. }
                    if matches!(pkt.packet(), Packet::RingPaxos(RingPaxosMsg::LearnReq { .. }))
            )),
            "gap must produce a LearnReq to the coordinator: {learn:?}"
        );
        // Route the LearnReq to the coordinator and its answer back.
        let mut queue: VecDeque<(usize, NodeOutput)> = learn.into_iter().map(|o| (1, o)).collect();
        let mut final_deliveries = 0;
        let mut guard = 0;
        while let Some((src, o)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000);
            if let NodeOutput::Send { dst, pkt, .. } = o {
                let targets: Vec<usize> = match dst {
                    Some(d) => vec![d.as_u16() as usize],
                    None => (0..3).filter(|&i| i != src).collect(),
                };
                for t in targets {
                    let mut out = Vec::new();
                    nodes[t].on_packet_into(GAP_NS * 2, NET, pkt.clone(), &mut out);
                    for x in out {
                        match x {
                            NodeOutput::Deliver(_) if t == 1 => final_deliveries += 1,
                            NodeOutput::Deliver(_) => {}
                            other => queue.push_back((t, other)),
                        }
                    }
                }
            }
        }
        assert_eq!(final_deliveries, 1, "repair must deliver the missed value exactly once");
    }

    #[test]
    fn restart_resumes_beyond_the_crash_epoch() {
        let mut nodes = ensemble(3);
        let out = submit(&mut nodes, 1, b"v-1");
        let _ = pump(&mut nodes, out);
        let epoch = nodes[1].crash_epoch();
        assert_eq!(epoch, 1);
        let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let reborn = RingPaxosNode::new(NodeId::new(1), &members, 1, epoch);
        assert_eq!(reborn.next_deliver, InstanceId::new(2));
        assert_eq!(reborn.inc, 1);
        // Its ballot outranks its first life's.
        assert!(reborn.ballot.follows(Ballot::ZERO));
    }

    #[test]
    fn window_bounds_in_flight_instances() {
        let members: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        let mut coord = RingPaxosNode::new(NodeId::new(0), &members, 0, 0);
        // Submit more than a window's worth without letting the wire
        // answer: opened instances must cap at WINDOW.
        let mut out = Vec::new();
        for _ in 0..QUEUE_LIMIT {
            coord.submit_into(0, Bytes::from_static(b"z"), &mut out).unwrap();
        }
        assert_eq!(coord.open_instances(), WINDOW);
        assert!(coord.submit_into(0, Bytes::from_static(b"z"), &mut out).is_err());
    }

    mod window {
        use super::*;
        use proptest::prelude::*;

        /// Checks every read of `w` against the model, whose keys are
        /// offsets from `origin`.
        fn agree(w: &InstanceWindow<u32>, model: &BTreeMap<i64, u32>, origin: u64) {
            let at = |off: i64| InstanceId::new(origin.wrapping_add_signed(off));
            assert_eq!(w.len(), model.len());
            assert_eq!(w.is_empty(), model.is_empty());
            let all: Vec<(InstanceId, u32)> = model.iter().map(|(&k, &v)| (at(k), v)).collect();
            assert_eq!(w.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>(), all);
            for probe in -60..60 {
                assert_eq!(w.get(at(probe)), model.get(&probe), "get {probe}");
                assert_eq!(w.contains(at(probe)), model.contains_key(&probe));
            }
            for probe in (-60..60).step_by(13) {
                let from: Vec<(InstanceId, u32)> =
                    model.range(probe..).map(|(&k, &v)| (at(k), v)).collect();
                assert_eq!(w.iter_from(at(probe)).map(|(k, &v)| (k, v)).collect::<Vec<_>>(), from);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// The window behaves as a `BTreeMap` ordered by serial
            /// offset, including across the `u64` wrap, and refuses
            /// exactly the inserts more than `MAX_GAP` beyond its ends.
            #[test]
            fn window_matches_a_btreemap(
                origin in prop_oneof![Just(u64::MAX - 30), Just(1u64), any::<u64>()],
                ops in proptest::collection::vec((0u8..8, -50i64..50, any::<u32>()), 0..80),
            ) {
                let at = |off: i64| InstanceId::new(origin.wrapping_add_signed(off));
                let gap = i64::try_from(MAX_GAP).unwrap();
                let mut w = InstanceWindow::new();
                let mut model = BTreeMap::new();
                for (op, off, v) in ops {
                    match op {
                        0..=3 => {
                            let got = w.get_or_insert_with(at(off), || v).map(|x| *x);
                            prop_assert_eq!(got, Some(*model.entry(off).or_insert(v)));
                        }
                        4 | 5 => prop_assert_eq!(w.remove(at(off)), model.remove(&off)),
                        6 => {
                            if let Some(x) = w.get_mut(at(off)) {
                                *x = v;
                            }
                            if let Some(x) = model.get_mut(&off) {
                                *x = v;
                            }
                        }
                        _ => {
                            // An insert exactly at, or one past, the
                            // bound beyond the nearer end; undone at
                            // once so the window stays small.
                            let (Some(&lo), Some(&hi)) = (model.keys().next(), model.keys().last())
                            else { continue };
                            let dist = gap + (off & 1);
                            let far = if off < 0 { lo - dist } else { hi + dist };
                            let got = w.get_or_insert_with(at(far), || v).is_some();
                            prop_assert_eq!(got, dist <= gap);
                            prop_assert_eq!(w.len(), model.len() + usize::from(got));
                            if got {
                                prop_assert_eq!(w.remove(at(far)), Some(v));
                            }
                        }
                    }
                    agree(&w, &model, origin);
                }
            }
        }
    }

    #[test]
    fn transitions_cover_the_spec_edges() {
        let mut nodes = ensemble(3);
        let out = submit(&mut nodes, 1, b"t-1");
        let _ = pump(&mut nodes, out);
        let coord: Vec<String> =
            nodes[0].take_transitions().iter().map(|t| t.to_string()).collect();
        assert!(coord.iter().any(|t| t == "ring-paxos: Idle --Propose--> Open"), "{coord:?}");
        assert!(coord.iter().any(|t| t == "ring-paxos: Open --Drained--> Idle"), "{coord:?}");
        let mut ring: Vec<String> =
            nodes[1].take_transitions().iter().map(|t| t.to_string()).collect();
        ring.extend(nodes[2].take_transitions().iter().map(|t| t.to_string()));
        assert!(
            ring.iter().any(|t| t == "ring-paxos-ring: Steady --RingForward--> Steady"),
            "{ring:?}"
        );
        assert!(
            ring.iter().any(|t| t == "ring-paxos-ring: Steady --LastDecide--> Steady"),
            "{ring:?}"
        );
    }
}
