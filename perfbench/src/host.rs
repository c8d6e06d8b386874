//! The bench-side simulator host: a `SimWorld` actor that makes the same
//! `Broadcast` calls, in the same order and with the same effects, as
//! `SimCluster`'s private actor, so its runs reproduce `SimCluster`'s
//! delivery digests. On top it can time each call into the protocol
//! (the traced run), log every pump submission (the exactly-once oracle
//! for closed loops), and record each node's inputs for replay through
//! fresh protocol instances (the per-layer split).

use std::cell::Cell;
use std::time::Instant;

use bytes::Bytes;

use totem_cluster::{BackendKind, BackendNode, Broadcast, NodeOutput, RingPaxosNode, TotemNode};
use totem_rrp::{FaultReport, RrpLayer};
use totem_sim::{Actor, CpuConfig, Ctx, FaultCommand, SimStats, SimTime, SimWorld};
use totem_srp::Delivered;
use totem_wire::{NetworkId, NodeId, Packet, SharedPacket};

use crate::probe;
use crate::sim::{SimHost, SimWorkload};

/// Wall-clock and allocation tallies of one traced run, summed over
/// every node of the world.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Time inside `run_until` spent outside actor callbacks: the
    /// simulator's own scheduling, medium and CPU models.
    pub sim_ns: u64,
    /// Time inside actor callbacks (host dispatch plus protocol).
    pub callback_ns: u64,
    /// Callbacks dispatched by the simulator (packets and alarms).
    pub events: u64,
    /// Time inside the `Broadcast` input calls (bootstrap, submit,
    /// packet, timer); the constant-time getters count as host time.
    pub node_ns: u64,
    /// `Broadcast` input calls made.
    pub node_calls: u64,
    /// Allocations made inside those calls.
    pub node_allocs: u64,
}

thread_local! {
    /// When the last callback returned (or the current `run_until`
    /// began): the start of the simulator's current self-time gap.
    static LAST_EXIT: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// One recorded protocol input of one node.
#[derive(Debug, Clone)]
pub enum Input {
    /// `bootstrap_into` at `now`.
    Bootstrap(u64, Vec<Route>),
    /// `submit_into(now, data)`.
    Submit(u64, Bytes, Vec<Route>),
    /// `on_packet_into(now, net, pkt)`; `missing` is the SRP's
    /// `any_messages_missing()` before and after the call.
    Packet {
        now: u64,
        net: NetworkId,
        pkt: SharedPacket,
        missing: (bool, bool),
        routes: Vec<Route>,
    },
    /// `on_timer_into(now)`; `rrp_due` tells whether the RRP layer's
    /// own timer had expired.
    Timer { now: u64, rrp_due: bool, missing_after: bool, routes: Vec<Route> },
}

/// Which RRP routing decision produced a group of sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Data broadcast.
    Message,
    /// Token (or other unicast to the successor).
    Token,
    /// Join or commit traffic.
    Membership,
}

/// A node of the bench-side host.
pub struct HostActor {
    node: BackendNode,
    cpu: CpuConfig,
    bootstrap: bool,
    saturate: Option<usize>,
    delivered: Vec<Delivered>,
    delivered_at: Vec<u64>,
    faults: Vec<FaultReport>,
    /// Bookkeeping `SimCluster`'s actor does on each output; kept so the
    /// host does the same work per delivery.
    configs: usize,
    latency_sum_ns: u128,
    latency_samples: u64,
    out_buf: Vec<NodeOutput>,
    /// Timestamps of every successful pump submission, in order.
    submitted: Vec<u64>,
    tally: Option<Tally>,
    record: Option<Vec<Input>>,
}

impl HostActor {
    /// Runs one `Broadcast` call, timing it when tracing.
    fn call<R>(&mut self, f: impl FnOnce(&mut BackendNode, &mut Vec<NodeOutput>) -> R) -> R {
        let Some(t) = self.tally.as_mut() else { return f(&mut self.node, &mut self.out_buf) };
        let a0 = probe::allocs_this_thread();
        let t0 = Instant::now();
        let r = f(&mut self.node, &mut self.out_buf);
        t.node_ns += t0.elapsed().as_nanos() as u64;
        t.node_allocs += probe::allocs_this_thread() - a0;
        t.node_calls += 1;
        r
    }

    /// Opens a callback span, closing the simulator's gap before it.
    /// `dispatched` callbacks are simulator events; a harness call into
    /// a node is not.
    fn enter(&mut self, dispatched: bool) -> Option<Instant> {
        let t = self.tally.as_mut()?;
        let now = Instant::now();
        t.events += u64::from(dispatched);
        if let Some(prev) = LAST_EXIT.get() {
            t.sim_ns += now.duration_since(prev).as_nanos() as u64;
        }
        Some(now)
    }

    fn exit(&mut self, entered: Option<Instant>) {
        if let (Some(t), Some(start)) = (self.tally.as_mut(), entered) {
            let now = Instant::now();
            t.callback_ns += now.duration_since(start).as_nanos() as u64;
            LAST_EXIT.set(Some(now));
        }
    }

    fn missing(&self) -> bool {
        self.node.as_totem().is_some_and(|n| n.srp().any_messages_missing())
    }

    fn rrp_due(&self, now: u64) -> bool {
        self.node.as_totem().and_then(|n| n.rrp().next_deadline()).is_some_and(|d| d <= now)
    }

    /// Appends the input `make` builds (given the routing calls behind
    /// the pending sends) when recording.
    fn record(&mut self, make: impl FnOnce(Vec<Route>) -> Input) {
        if self.record.is_some() {
            let input = make(routes_of(&self.out_buf));
            if let Some(inputs) = &mut self.record {
                inputs.push(input);
            }
        }
    }

    fn handle(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        for out in self.out_buf.drain(..) {
            match out {
                NodeOutput::Send { net, dst, pkt } => match dst {
                    None => ctx.broadcast(net, pkt),
                    Some(d) => ctx.unicast(net, d, pkt),
                },
                NodeOutput::Deliver(d) => {
                    ctx.consume_cpu(self.cpu.deliver_cost(d.data.len()));
                    if self.saturate.is_some() && d.data.len() >= 8 {
                        let mut ts = [0u8; 8];
                        ts.copy_from_slice(&d.data[..8]);
                        let lat = now.as_nanos().saturating_sub(u64::from_be_bytes(ts));
                        self.latency_sum_ns += u128::from(lat);
                        self.latency_samples += 1;
                    }
                    self.delivered.push(d);
                    self.delivered_at.push(now.as_nanos());
                }
                NodeOutput::Config(_) => self.configs += 1,
                NodeOutput::Fault(f) => self.faults.push(f),
                NodeOutput::Reinstated { .. } => {}
            }
        }
    }

    fn submit(&mut self, now: SimTime, data: Bytes, ctx: &mut Ctx<'_>) -> bool {
        let at = now.as_nanos();
        let logged = self.record.is_some().then(|| data.clone());
        if self.call(|n, out| n.submit_into(at, data, out)).is_err() {
            return false;
        }
        if let Some(data) = logged {
            self.record(|routes| Input::Submit(at, data, routes));
        }
        self.handle(now, ctx);
        true
    }

    fn pump(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let Some(size) = self.saturate else { return };
        while self.node.send_queue_len() < 64 {
            let mut body = vec![0u8; size.max(8)];
            body[..8].copy_from_slice(&now.as_nanos().to_be_bytes());
            if !self.submit(now, Bytes::from(body), ctx) {
                break;
            }
            self.submitted.push(now.as_nanos());
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        match self.node.next_deadline() {
            Some(d) => ctx.set_alarm(SimTime::from_nanos(d)),
            None => ctx.cancel_alarm(),
        }
        for t in self.node.take_transitions() {
            ctx.note_transition(t);
        }
    }
}

impl Actor for HostActor {
    fn on_start(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let entered = self.enter(true);
        if self.bootstrap {
            let at = now.as_nanos();
            self.call(|n, out| n.bootstrap_into(at, out));
            self.record(|routes| Input::Bootstrap(at, routes));
        }
        self.handle(now, ctx);
        self.pump(now, ctx);
        self.arm(ctx);
        self.exit(entered);
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        net: NetworkId,
        _from: NodeId,
        pkt: SharedPacket,
        ctx: &mut Ctx<'_>,
    ) {
        let entered = self.enter(true);
        let at = now.as_nanos();
        let before = self.record.as_ref().map(|_| (self.missing(), pkt.clone()));
        self.call(|n, out| n.on_packet_into(at, net, pkt, out));
        if let Some((missing_before, pkt)) = before {
            let missing = (missing_before, self.missing());
            self.record(|routes| Input::Packet { now: at, net, pkt, missing, routes });
        }
        self.handle(now, ctx);
        self.pump(now, ctx);
        self.arm(ctx);
        self.exit(entered);
    }

    fn on_alarm(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let entered = self.enter(true);
        let at = now.as_nanos();
        let rrp_due = self.record.is_some() && self.rrp_due(at);
        self.call(|n, out| n.on_timer_into(at, out));
        if self.record.is_some() {
            let missing_after = self.missing();
            self.record(|routes| Input::Timer { now: at, rrp_due, missing_after, routes });
        }
        self.handle(now, ctx);
        self.pump(now, ctx);
        self.arm(ctx);
        self.exit(entered);
    }
}

/// The RRP routing calls behind `outputs`' sends: one per group of
/// consecutive copies of the same frame.
fn routes_of(outputs: &[NodeOutput]) -> Vec<Route> {
    let mut routes = Vec::new();
    let mut prev: Option<*const Packet> = None;
    for out in outputs {
        let NodeOutput::Send { dst, pkt, .. } = out else { continue };
        let ptr: *const Packet = pkt.packet();
        if prev == Some(ptr) {
            continue;
        }
        prev = Some(ptr);
        routes.push(match (pkt.packet(), dst) {
            (Packet::Join(_) | Packet::Commit(_), _) => Route::Membership,
            (_, Some(_)) => Route::Token,
            (_, None) => Route::Message,
        });
    }
    routes
}

/// Builds the engine `SimCluster::new` builds for node `me`.
fn engine(w: &SimWorkload, cfg: &totem_cluster::ClusterConfig, me: NodeId) -> BackendNode {
    let members: Vec<NodeId> = (0..w.nodes as u16).map(NodeId::new).collect();
    match w.backend {
        BackendKind::Totem => BackendNode::Totem(TotemNode::new_operational(
            me,
            &members,
            cfg.srp.clone(),
            cfg.rrp.clone(),
            0,
        )),
        BackendKind::RingPaxos => BackendNode::RingPaxos(RingPaxosNode::new(me, &members, 0, 0)),
    }
}

/// What the host does beyond mirroring `SimCluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation (the exactly-once oracle of closed loops).
    Plain,
    /// Time every callback and `Broadcast` call.
    Timed,
    /// Time, and record every node's inputs for replay.
    Recorded,
}

/// A `SimWorld` of [`HostActor`]s.
pub struct HostWorld {
    world: SimWorld<HostActor>,
    workload: SimWorkload,
}

impl HostWorld {
    /// The world `SimCluster::new(cfg)` would build, hosted by
    /// [`HostActor`]s.
    pub fn new(w: &SimWorkload, cfg: totem_cluster::ClusterConfig, mode: Mode) -> Self {
        let actors = (0..w.nodes as u16)
            .map(NodeId::new)
            .map(|me| HostActor {
                node: engine(w, &cfg, me),
                cpu: cfg.sim.cpus[me.index()].clone(),
                bootstrap: me.index() == 0,
                saturate: None,
                delivered: Vec::new(),
                delivered_at: Vec::new(),
                configs: 0,
                faults: Vec::new(),
                latency_sum_ns: 0,
                latency_samples: 0,
                out_buf: Vec::new(),
                submitted: Vec::new(),
                tally: (mode != Mode::Plain).then(Tally::default),
                record: (mode == Mode::Recorded).then(Vec::new),
            })
            .collect();
        HostWorld { world: SimWorld::new(cfg.sim.clone(), actors), workload: w.clone() }
    }

    /// Tallies summed over every node.
    pub fn tally(&self) -> Tally {
        let mut sum = Tally::default();
        for a in self.world.actors() {
            let t = a.tally.unwrap_or_default();
            sum.sim_ns += t.sim_ns;
            sum.callback_ns += t.callback_ns;
            sum.events += t.events;
            sum.node_ns += t.node_ns;
            sum.node_calls += t.node_calls;
            sum.node_allocs += t.node_allocs;
        }
        sum
    }

    /// Takes every node's recorded inputs.
    pub fn take_inputs(&mut self) -> Vec<Vec<Input>> {
        (0..self.workload.nodes)
            .map(|n| self.world.actor_mut(NodeId::new(n as u16)).record.take().unwrap_or_default())
            .collect()
    }

    /// The engines, for their stats accessors.
    pub fn engines(&self) -> impl Iterator<Item = &BackendNode> {
        self.world.actors().map(|a| &a.node)
    }

    /// Runs `f` against the world; when tracing, the time `f` spends
    /// outside callback spans (the event loop, and applying a harness
    /// call's effects) is the simulator's.
    fn traced<R>(&mut self, f: impl FnOnce(&mut SimWorld<HostActor>) -> R) -> R {
        if self.world.actor(NodeId::new(0)).tally.is_none() {
            return f(&mut self.world);
        }
        LAST_EXIT.set(Some(Instant::now()));
        let r = f(&mut self.world);
        let gap = LAST_EXIT.get().map_or(0, |p| p.elapsed().as_nanos() as u64);
        LAST_EXIT.set(None);
        if let Some(tally) = self.world.actor_mut(NodeId::new(0)).tally.as_mut() {
            tally.sim_ns += gap;
        }
        r
    }
}

impl SimHost for HostWorld {
    fn now(&self) -> SimTime {
        self.world.now()
    }

    fn run_until(&mut self, t: SimTime) {
        self.traced(|world| world.run_until(t));
    }

    fn try_submit(&mut self, node: usize, data: Bytes) -> bool {
        self.traced(|world| {
            world.with_actor(NodeId::new(node as u16), |a, now, ctx| {
                let entered = a.enter(false);
                let ok = a.submit(now, data, ctx);
                if ok {
                    a.arm(ctx);
                }
                a.exit(entered);
                ok
            })
        })
    }

    fn saturate(&mut self, size: usize) {
        for n in 0..self.workload.nodes {
            self.traced(|world| {
                world.with_actor(NodeId::new(n as u16), |a, now, ctx| {
                    let entered = a.enter(false);
                    a.saturate = Some(size);
                    a.pump(now, ctx);
                    a.arm(ctx);
                    a.exit(entered);
                });
            });
        }
    }

    fn schedule_fault(&mut self, at: SimTime, cmd: FaultCommand) {
        self.world.schedule_fault(at, cmd);
    }

    fn log(&self, node: usize) -> (&[Delivered], &[u64]) {
        let a = self.world.actor(NodeId::new(node as u16));
        (&a.delivered, &a.delivered_at)
    }

    fn prune(&mut self, node: usize, keep_last: usize) {
        let a = self.world.actor_mut(NodeId::new(node as u16));
        let excess = a.delivered.len().saturating_sub(keep_last);
        a.delivered.drain(..excess);
        a.delivered_at.drain(..excess);
    }

    fn faults(&self, node: usize) -> &[FaultReport] {
        &self.world.actor(NodeId::new(node as u16)).faults
    }

    fn net_stats(&self) -> &SimStats {
        self.world.stats()
    }

    fn submitted(&self, node: usize) -> Option<&[u64]> {
        let a = self.world.actor(NodeId::new(node as u16));
        a.saturate.map(|_| a.submitted.as_slice())
    }
}

/// Wall time and outcome of replaying recorded inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Time replaying every node's inputs through a fresh engine.
    pub node_ns: u64,
    /// Time replaying the packet and timer inputs through a fresh
    /// `RrpLayer` (zero for engines without one).
    pub rrp_ns: u64,
    /// Packet inputs replayed through the RRP layer.
    pub rrp_frames: u64,
    /// Whether every fresh engine delivered exactly what its original
    /// delivered.
    pub digests_match: bool,
}

/// Replays each node's `inputs` through fresh engines (and, for Totem,
/// through a fresh `RrpLayer`), comparing delivery digests against
/// `expected` (one per node).
pub fn replay(
    w: &SimWorkload,
    cfg: &totem_cluster::ClusterConfig,
    inputs: &[Vec<Input>],
    expected: &[u64],
) -> Replay {
    let mut r = Replay { digests_match: true, ..Replay::default() };
    for (n, node_inputs) in inputs.iter().enumerate() {
        let mut node = engine(w, cfg, NodeId::new(n as u16));
        let mut out = Vec::new();
        let mut digest = crate::stats::Fnv::default();
        let mut delivered = Vec::new();
        let t0 = Instant::now();
        for input in node_inputs {
            match input {
                Input::Bootstrap(now, _) => node.bootstrap_into(*now, &mut out),
                Input::Submit(now, data, _) => {
                    let _ = node.submit_into(*now, data.clone(), &mut out);
                }
                Input::Packet { now, net, pkt, .. } => {
                    node.on_packet_into(*now, *net, pkt.clone(), &mut out)
                }
                Input::Timer { now, .. } => node.on_timer_into(*now, &mut out),
            }
            delivered.extend(out.drain(..).filter_map(|o| match o {
                NodeOutput::Deliver(d) => Some(d),
                _ => None,
            }));
        }
        r.node_ns += t0.elapsed().as_nanos() as u64;
        for d in &delivered {
            digest.message(d.sender.as_u16(), &d.data);
        }
        r.digests_match &= expected.get(n) == Some(&digest.0);

        if w.backend != BackendKind::Totem {
            continue;
        }
        let Ok(mut rrp) = RrpLayer::new(cfg.rrp.clone()) else {
            r.digests_match = false;
            continue;
        };
        let mut events = Vec::new();
        let mut route_buf = Vec::new();
        let t0 = Instant::now();
        for input in node_inputs {
            let routes = match input {
                Input::Bootstrap(_, routes) | Input::Submit(_, _, routes) => routes,
                Input::Packet { now, net, pkt, missing, routes } => {
                    rrp.on_packet_into(*now, *net, pkt.clone(), missing.0, &mut events);
                    events.clear();
                    std::hint::black_box(rrp.poll_release(*now, missing.1));
                    r.rrp_frames += 1;
                    routes
                }
                Input::Timer { now, rrp_due, missing_after, routes } => {
                    if *rrp_due {
                        std::hint::black_box(rrp.on_timer(*now));
                    }
                    std::hint::black_box(rrp.poll_release(*now, *missing_after));
                    routes
                }
            };
            for route in routes {
                match route {
                    Route::Message => rrp.routes_for_message_into(&mut route_buf),
                    Route::Token => rrp.routes_for_token_into(&mut route_buf),
                    Route::Membership => rrp.routes_for_membership_into(&mut route_buf),
                }
            }
        }
        r.rrp_ns += t0.elapsed().as_nanos() as u64;
    }
    r
}

/// Per-frame encode and decode cost of the distinct frames among
/// `inputs` (at most `limit` of them): `(encode_ns, decode_ns, frames)`.
pub fn wire_replay(inputs: &[Vec<Input>], limit: usize) -> (f64, f64, usize) {
    let mut seen = std::collections::HashSet::new();
    let mut packets = Vec::new();
    for input in inputs.iter().flatten() {
        if let Input::Packet { pkt, .. } = input {
            if packets.len() < limit && seen.insert(pkt.packet() as *const Packet as usize) {
                packets.push(pkt.packet().clone());
            }
        }
    }
    wire_cost(&packets)
}

/// Times encoding fresh handles of `packets`, then decoding the bytes.
pub fn wire_cost(packets: &[Packet]) -> (f64, f64, usize) {
    if packets.is_empty() {
        return (0.0, 0.0, 0);
    }
    let fresh: Vec<SharedPacket> = packets.iter().cloned().map(SharedPacket::new).collect();
    let t0 = Instant::now();
    for p in &fresh {
        std::hint::black_box(p.encoded());
    }
    let encode = t0.elapsed().as_nanos() as f64;
    let bytes: Vec<Bytes> = fresh.iter().map(|p| p.encoded().clone()).collect();
    let t0 = Instant::now();
    for b in &bytes {
        let _ = std::hint::black_box(SharedPacket::from_datagram(b.clone()));
    }
    let decode = t0.elapsed().as_nanos() as f64;
    let n = packets.len() as f64;
    (encode / n, decode / n, packets.len())
}
