//! The loopback-UDP workload: the threaded runtime over real sockets on
//! 127.0.0.1, driven as an open loop by the bench thread, which also
//! drains every node's event channel and checks the deliveries.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;

use totem_cluster::{
    spawn_node_with, Broadcast, NodeOutput, RuntimeConfig, RuntimeEvent, RuntimeHandle, SimCluster,
    StartMode, TotemNode,
};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_srp::{SrpConfig, SubmitError};
use totem_transport::{
    CountingTransport, Destination, RecvBatch, SendBatch, Transport, TransportCounters, UdpTopology,
};
use totem_wire::{NetworkId, NodeId, SharedPacket, Transition};

use crate::gauge;
use crate::probe;
use crate::report::{ProtocolCounters, Report};
use crate::sim::{self, run_episode};
use crate::simbench::check_episode;
use crate::stats::{median, percentiles, SplitMix};

const NODES: usize = 3;
const NETWORKS: usize = 2;
/// Open loop: offered load, messages per second over all senders.
const RATE: u64 = 5_000;
/// Closed loop: messages in flight, 64 per sender as in `SimCluster`'s
/// saturation pump.
const DEPTH: u64 = 32 * NODES as u64;
/// How often the bench thread polls the event channels when no
/// submission is due.
const POLL: Duration = Duration::from_micros(200);
/// The window is also measured in slices of this length.
const SLICE: Duration = Duration::from_secs(1);
const MSG_SIZE: usize = 256;
/// Cluster set-ups timed per run (the measured cluster is one more).
const SETUPS: usize = 16;
const WARMUP: Duration = Duration::from_millis(500);
const DRAIN: Duration = Duration::from_secs(3);
/// Received datagrams kept for the wire-codec replay.
const WIRE_SAMPLES: usize = 20_000;

/// A `Broadcast` wrapper on the driver thread: stamps the instant each
/// message is delivered and, when `timing`, times every input call.
#[derive(Debug)]
struct Probe {
    inner: TotemNode,
    timing: bool,
    ns: u64,
    calls: u64,
    allocs: u64,
    /// `(message id, delivery instant)` in delivery order.
    stamps: Vec<(u64, Instant)>,
}

impl Probe {
    fn new(i: usize, timing: bool) -> Self {
        Probe { inner: totem(i), timing, ns: 0, calls: 0, allocs: 0, stamps: Vec::new() }
    }

    fn call<R>(
        &mut self,
        out: &mut Vec<NodeOutput>,
        f: impl FnOnce(&mut TotemNode, &mut Vec<NodeOutput>) -> R,
    ) -> R {
        let before = out.len();
        let r = if self.timing {
            let a0 = probe::allocs_this_thread();
            let t0 = Instant::now();
            let r = f(&mut self.inner, out);
            self.ns += t0.elapsed().as_nanos() as u64;
            self.allocs += probe::allocs_this_thread() - a0;
            self.calls += 1;
            r
        } else {
            f(&mut self.inner, out)
        };
        let mut now = None;
        for o in &out[before..] {
            if let NodeOutput::Deliver(d) = o {
                if let Some(id) = message_id(&d.data) {
                    self.stamps.push((id, *now.get_or_insert_with(Instant::now)));
                }
            }
        }
        r
    }
}

impl Broadcast for Probe {
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn start_into(&mut self, now: u64, out: &mut Vec<NodeOutput>) {
        self.call(out, |n, out| Broadcast::start_into(n, now, out));
    }
    fn bootstrap_into(&mut self, now: u64, out: &mut Vec<NodeOutput>) {
        self.call(out, |n, out| Broadcast::bootstrap_into(n, now, out));
    }
    fn submit_into(
        &mut self,
        now: u64,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError> {
        self.call(out, |n, out| Broadcast::submit_into(n, now, data, out))
    }
    fn on_packet_into(
        &mut self,
        now: u64,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    ) {
        self.call(out, |n, out| Broadcast::on_packet_into(n, now, net, pkt, out));
    }
    fn on_timer_into(&mut self, now: u64, out: &mut Vec<NodeOutput>) {
        self.call(out, |n, out| Broadcast::on_timer_into(n, now, out));
    }
    fn next_deadline(&self) -> Option<u64> {
        Broadcast::next_deadline(&self.inner)
    }
    fn send_queue_len(&self) -> usize {
        Broadcast::send_queue_len(&self.inner)
    }
    fn take_transitions(&mut self) -> Vec<Transition> {
        Broadcast::take_transitions(&mut self.inner)
    }
    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        Broadcast::fingerprint(&self.inner, h);
    }
    fn crash_epoch(&self) -> u64 {
        Broadcast::crash_epoch(&self.inner)
    }
}

/// The id a bench message carries in its first 8 bytes (`None` for the
/// set-up probe and foreign payloads).
fn message_id(data: &[u8]) -> Option<u64> {
    let head: [u8; 8] = data.get(..8)?.try_into().ok()?;
    let id = u64::from_be_bytes(head);
    (data.len() == MSG_SIZE && id != u64::MAX).then_some(id)
}

/// What a [`TimedTransport`] saw.
#[derive(Debug, Default)]
struct TransportTally {
    send_ns: AtomicU64,
    frames: AtomicU64,
    bytes: AtomicU64,
    samples: Mutex<Vec<Bytes>>,
}

/// A `Transport` wrapper that times `send_batch`, counts frames and
/// bytes, and keeps a sample of received datagrams.
#[derive(Debug)]
struct TimedTransport<T> {
    inner: T,
    tally: Arc<TransportTally>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn networks(&self) -> usize {
        self.inner.networks()
    }
    fn send(&self, net: NetworkId, dst: Destination, payload: Bytes) -> io::Result<()> {
        self.inner.send(net, dst, payload)
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<(NetworkId, Bytes)> {
        self.inner.recv_timeout(timeout)
    }
    fn send_batch(&self, batch: &mut SendBatch) -> io::Result<usize> {
        let pending: Vec<u64> = batch.pending().iter().map(|f| f.payload.len() as u64).collect();
        let t0 = Instant::now();
        let r = self.inner.send_batch(batch);
        self.tally.send_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(n) = r {
            self.tally.frames.fetch_add(n as u64, Ordering::Relaxed);
            self.tally.bytes.fetch_add(pending.iter().take(n).sum(), Ordering::Relaxed);
        }
        r
    }
    fn recv_batch(&self, out: &mut RecvBatch, timeout: Duration) -> usize {
        let before = out.len();
        let got = self.inner.recv_batch(out, timeout);
        if got > 0 {
            let mut samples = self.tally.samples.lock().expect("sample lock poisoned");
            let room = WIRE_SAMPLES.saturating_sub(samples.len());
            samples.extend(out.iter().skip(before).take(room).map(|(_, b)| b.clone()));
        }
        got
    }
}

fn members() -> Vec<NodeId> {
    (0..NODES as u16).map(NodeId::new).collect()
}

fn totem(i: usize) -> TotemNode {
    TotemNode::new_operational(
        NodeId::new(i as u16),
        &members(),
        SrpConfig::default(),
        RrpConfig::new(ReplicationStyle::Active, NETWORKS),
        0,
    )
}

/// Binds and spawns a cluster, wrapping each node and transport.
fn spawn<B, T>(
    node: impl Fn(usize) -> B,
    mut wrap: impl FnMut(totem_transport::UdpTransport) -> T,
) -> io::Result<Vec<RuntimeHandle<B>>>
where
    B: Broadcast + Send + 'static,
    T: Transport + 'static,
{
    let transports = UdpTopology::bind_ephemeral(NODES, NETWORKS)?.into_transports()?;
    Ok(transports
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let start = if i == 0 { StartMode::Representative } else { StartMode::Member };
            spawn_node_with(node(i), wrap(t), start, RuntimeConfig::default())
        })
        .collect())
}

/// Waits until every node delivered the probe message `body`.
fn await_everywhere<B: Broadcast>(handles: &[RuntimeHandle<B>], body: &Bytes) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    handles.iter().all(|h| loop {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else { return false };
        if let Some(RuntimeEvent::Delivered(d)) = h.next_event(left) {
            if d.data == *body {
                return true;
            }
        }
    })
}

fn probe_body() -> Bytes {
    let mut body = vec![0xFF; 16];
    body.resize(MSG_SIZE, 0);
    Bytes::from(body)
}

/// Wall seconds from binding the sockets to the probe's delivery at
/// every node, for a throwaway cluster.
fn setup_once() -> Result<f64, String> {
    let t0 = Instant::now();
    let handles = formed(false, |t| t)?;
    let secs = t0.elapsed().as_secs_f64();
    drop(handles);
    Ok(secs)
}

/// What one open-loop run measured.
struct Window {
    /// Messages due inside the window and delivered everywhere.
    msgs: u64,
    wall: Duration,
    /// Hand-off to delivery, per message and node, in the window.
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
    cpu: std::collections::BTreeMap<&'static str, u64>,
    allocs_runtime: u64,
    /// Per [`SLICE`] of the window: wall time, messages completed and
    /// node-thread CPU nanoseconds.
    slices: Vec<(Duration, u64, u64)>,
    attempted: u64,
    failed: u64,
    violation: Option<String>,
}

/// Per node: the order of delivered ids and the last id per sender.
struct NodeLog {
    order: Vec<u64>,
    last_from: Vec<Option<u64>>,
}

fn thread_group(bench: u64) -> impl Fn(u64, &str) -> &'static str {
    move |tid, name| {
        if tid == bench {
            "bench"
        } else if name.starts_with("totem-udp") {
            "reader"
        } else if name.starts_with("totem-") {
            "driver"
        } else {
            "other"
        }
    }
}

/// How the bench thread offers load, round-robin over the senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pace {
    /// Message `k` is due `k / RATE` after the start.
    Open,
    /// Keeps [`DEPTH`] messages submitted but not yet delivered
    /// everywhere: the cluster runs as fast as it can.
    Closed,
}

/// Drives `handles` for `WARMUP + window`, measures the window, drains,
/// and shuts the cluster down.
fn drive(
    handles: Vec<RuntimeHandle<Probe>>,
    seed: u64,
    pace: Pace,
    window: Duration,
) -> (Window, Vec<Probe>) {
    let bench_tid = probe::this_tid();
    let interval = 1_000_000_000 / RATE;
    let due = |id: u64| Duration::from_nanos(id * interval);
    let (opens, closes) = (WARMUP, WARMUP + window);
    // The open loop offers a fixed count; the closed loop stops
    // submitting when the window closes.
    let mut total = match pace {
        Pace::Open => closes.as_nanos() as u64 / interval,
        Pace::Closed => u64::MAX,
    };
    let mut rng = SplitMix::new(seed, 7);
    let mut logs: Vec<NodeLog> =
        (0..NODES).map(|_| NodeLog { order: Vec::new(), last_from: vec![None; NODES] }).collect();
    let mut delivered: Vec<u8> = Vec::new();
    let mut sent_at = Vec::new();
    let mut completed = 0u64;
    let mut w = Window {
        msgs: 0,
        wall: window,
        latencies_us: Vec::new(),
        late_us: Vec::new(),
        cpu: Default::default(),
        allocs_runtime: 0,
        slices: Vec::new(),
        attempted: 0,
        failed: 0,
        violation: None,
    };
    let mut opened = None;
    let mut slice = None;
    let mut closed = false;
    let epoch = Instant::now();
    let mut drain_deadline = epoch + closes + DRAIN;
    let mut next = 0u64;
    loop {
        if opened.is_none() && epoch.elapsed() >= opens {
            let cpu = probe::threads_cpu_ns();
            slice = Some((Instant::now(), completed, sut_cpu_of(&cpu, bench_tid)));
            opened = Some((
                Instant::now(),
                cpu,
                probe::allocs_total(),
                probe::allocs_this_thread(),
                completed,
                next,
            ));
        }
        let closing = epoch.elapsed() >= closes && (pace == Pace::Closed || next >= total);
        if let Some((t0, done0, cpu0)) = slice {
            // The last slice ends with the window, a little short.
            let end = if closing { SLICE / 2 } else { SLICE };
            if !closed && t0.elapsed() >= end {
                let cpu = sut_cpu_of(&probe::threads_cpu_ns(), bench_tid);
                w.slices.push((t0.elapsed(), completed - done0, cpu.saturating_sub(cpu0)));
                slice = Some((Instant::now(), completed, cpu));
            }
        }
        loop {
            let ready = match pace {
                Pace::Open => next < total && due(next) <= epoch.elapsed(),
                Pace::Closed => next - completed < DEPTH && epoch.elapsed() < closes,
            };
            if !ready {
                break;
            }
            let mut body = Vec::with_capacity(MSG_SIZE);
            body.extend_from_slice(&next.to_be_bytes());
            while body.len() < MSG_SIZE {
                body.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            body.truncate(MSG_SIZE);
            handles[next as usize % NODES].submit(Bytes::from(body));
            sent_at.push(Instant::now());
            delivered.push(0);
            if pace == Pace::Open && due(next) >= opens {
                w.late_us.push(epoch.elapsed().saturating_sub(due(next)).as_secs_f64() * 1e6);
            }
            next += 1;
        }
        if !closed && closing {
            let (t0, cpu0, a0, b0, done0, _) =
                opened.as_ref().expect("window opened before it closes");
            w.wall = t0.elapsed();
            w.cpu = probe::cpu_delta_by(cpu0, &probe::threads_cpu_ns(), thread_group(bench_tid));
            w.allocs_runtime = (probe::allocs_total() - a0) - (probe::allocs_this_thread() - b0);
            w.msgs = completed - done0;
            total = next;
            drain_deadline = Instant::now() + DRAIN;
            closed = true;
        }
        for (n, h) in handles.iter().enumerate() {
            while let Ok(ev) = h.events().try_recv() {
                let RuntimeEvent::Delivered(d) = ev else { continue };
                let Some(id) = message_id(&d.data) else { continue };
                let s = d.sender.index();
                if id >= next || s != id as usize % NODES {
                    w.violation.get_or_insert(format!("node {n} delivered unknown message {id}"));
                    continue;
                }
                let log = &mut logs[n];
                if log.last_from[s].is_some_and(|prev| prev >= id) {
                    w.violation.get_or_insert(format!(
                        "node {n}: sender {s} out of FIFO order or duplicated"
                    ));
                }
                log.last_from[s] = Some(id);
                log.order.push(id);
                let count = &mut delivered[id as usize];
                *count = count.saturating_add(1);
                if *count as usize == NODES {
                    completed += 1;
                }
            }
        }
        if closed && (completed == total || Instant::now() > drain_deadline) {
            break;
        }
        let wake = match pace {
            Pace::Open if next < total => due(next),
            _ => epoch.elapsed() + POLL,
        };
        std::thread::sleep(wake.saturating_sub(epoch.elapsed()));
    }
    let probes: Vec<Probe> = handles.into_iter().map(RuntimeHandle::shutdown).collect();

    w.attempted = total;
    w.failed = delivered.iter().filter(|&&c| c as usize != NODES).count() as u64;
    let reference = &logs[0].order;
    for (n, log) in logs.iter().enumerate().skip(1) {
        let common = reference.len().min(log.order.len());
        if reference[..common] != log.order[..common] {
            w.violation
                .get_or_insert(format!("total order violated: node {n} disagrees with node 0"));
        }
    }
    let first_in_window = opened.as_ref().map_or(0, |o| o.5);
    for p in &probes {
        for &(id, at) in &p.stamps {
            // From the hand-off to the node: the generator never waits
            // for the system, so a stall still counts, while the
            // generator's own lateness (reported apart) does not.
            match sent_at.get(id as usize) {
                Some(&sent) if id >= first_in_window => {
                    w.latencies_us.push(at.saturating_duration_since(sent).as_secs_f64() * 1e6);
                }
                _ => {}
            }
        }
    }
    (w, probes)
}

/// Runs the loopback-UDP workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::new();
    match if trace { layers(&mut r, seed, seconds) } else { end_to_end(&mut r, seed, seconds) } {
        Ok(()) => r,
        Err(e) => {
            r.fail(e);
            r
        }
    }
}

fn check(r: &mut Report, w: &Window) {
    r.attempted += w.attempted;
    r.failed += w.failed;
    if let Some(v) = &w.violation {
        r.fail(v.clone());
    }
    r.check(w.failed == 0, || {
        format!("{} of {} messages not delivered everywhere", w.failed, w.attempted)
    });
    r.check(w.msgs > 0, || "no message completed inside the window".into());
}

/// CPU nanoseconds of every thread but the bench thread.
fn sut_cpu_of(threads: &std::collections::BTreeMap<u64, (String, u64)>, bench_tid: u64) -> u64 {
    threads.iter().filter(|(tid, _)| **tid != bench_tid).map(|(_, (_, ns))| ns).sum()
}

fn sut_cpu(w: &Window) -> u64 {
    w.cpu.iter().filter(|(k, _)| **k != "bench").map(|(_, v)| v).sum()
}

fn measure_window(seconds: f64, spent: Duration) -> Duration {
    Duration::from_secs_f64((seconds - spent.as_secs_f64() - WARMUP.as_secs_f64()).max(2.0))
}

/// Spawns a cluster of probes and waits until it delivers.
fn formed<T: Transport + 'static>(
    timing: bool,
    wrap: impl FnMut(totem_transport::UdpTransport) -> T,
) -> Result<Vec<RuntimeHandle<Probe>>, String> {
    let handles = spawn(|i| Probe::new(i, timing), wrap)
        .map_err(|e| format!("bind loopback cluster: {e}"))?;
    handles[0].submit(probe_body());
    if await_everywhere(&handles, &probe_body()) {
        Ok(handles)
    } else {
        Err("cluster did not form within 10 s".into())
    }
}

fn end_to_end(r: &mut Report, seed: u64, seconds: f64) -> Result<(), String> {
    let start = Instant::now();
    let mut setups = (0..SETUPS).map(|_| setup_once()).collect::<Result<Vec<f64>, String>>()?;
    let t0 = Instant::now();
    let handles = formed(false, |t| t)?;
    setups.push(t0.elapsed().as_secs_f64());
    let (mut w, _) = drive(handles, seed, Pace::Closed, measure_window(seconds, start.elapsed()));
    check(r, &w);
    r.check(w.slices.len() >= 3, || format!("only {} slices in the window", w.slices.len()));
    // Neither figure is scaled by the host gauge: across runs they did
    // not follow it. They ride on syscalls, thread wake-ups and the
    // scheduling of nine threads over the processors.
    let per_slice = |f: &dyn Fn(&(Duration, u64, u64)) -> f64| {
        let mut v: Vec<f64> = w.slices.iter().map(f).collect();
        median(&mut v)
    };
    let wall = per_slice(&|(d, n, _)| d.as_nanos() as f64 / (*n).max(1) as f64);
    let cpu = per_slice(&|(_, n, c)| *c as f64 / (*n).max(1) as f64);
    let lat = percentiles(&mut w.latencies_us);
    r.notes.push(format!(
        "closed loop, {DEPTH} in flight: {} messages in {:.2} s; median of {} slices: \
         {wall:.1} ns/msg of wall, {cpu:.0} ns/msg of node-thread CPU (by thread group {:?}); \
         latency from {} samples, p50 {:.1} us, p{} {:.1} us; nproc {}",
        w.msgs,
        w.wall.as_secs_f64(),
        w.slices.len(),
        w.cpu,
        lat.count,
        lat.p50,
        lat.top_pct,
        lat.top,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    r.metric("setup_s", median(&mut setups));
    r.metric("wall_ns_per_msg", wall);
    r.metric("msgs_per_s", 1e9 / wall);

    // Every workload reports every metric, and the loopback run's
    // wall-clock tail latency and stalls swing with the shared host, so
    // the sim-time slots are filled by the simulated twin.
    let twin = sim::UDP_TWIN;
    let inputs = twin.inputs(seed);
    let mut cluster = SimCluster::new(twin.cluster_config(&inputs));
    let e = run_episode(&mut cluster, &twin, &inputs, &twin.bodies(&inputs));
    check_episode(r, &e, "simulated twin");
    r.metric("sim_latency_p50_us", e.latency.p50);
    r.metric("sim_latency_p99_us", e.latency.p99);
    r.metric("stall_ms", e.stall_ms);
    Ok(())
}

fn layers(r: &mut Report, seed: u64, seconds: f64) -> Result<(), String> {
    r.metric("bench.host_slowdown", gauge::slowdown(8));
    let half = seconds / 2.0;
    let (base, _) =
        drive(formed(false, |t| t)?, seed, Pace::Open, measure_window(half, Duration::ZERO));
    check(r, &base);

    let mut counters: Vec<Arc<TransportCounters>> = Vec::new();
    let mut tallies: Vec<Arc<TransportTally>> = Vec::new();
    let handles = formed(true, |t| {
        let counted = CountingTransport::new(t, NODES - 1);
        counters.push(counted.counters());
        let tally = Arc::new(TransportTally::default());
        tallies.push(tally.clone());
        TimedTransport { inner: counted, tally }
    })?;
    let snapshot = |counters: &[Arc<TransportCounters>]| {
        let load = |f: fn(&TransportCounters) -> &AtomicU64| -> u64 {
            counters.iter().map(|c| f(c).load(Ordering::Relaxed)).sum()
        };
        [
            load(|c| &c.submits),
            load(|c| &c.completions),
            load(|c| &c.datagrams_out),
            load(|c| &c.datagrams_in),
        ]
    };
    let tally_sum = |tallies: &[Arc<TransportTally>]| {
        let load = |f: fn(&TransportTally) -> &AtomicU64| -> u64 {
            tallies.iter().map(|t| f(t).load(Ordering::Relaxed)).sum()
        };
        [load(|t| &t.send_ns), load(|t| &t.frames), load(|t| &t.bytes)]
    };
    probe::enable_alloc_counting(true);
    let c0 = snapshot(&counters);
    let t0 = tally_sum(&tallies);
    let (mut w, nodes) = drive(handles, seed, Pace::Open, measure_window(half, Duration::ZERO));
    let c1 = snapshot(&counters);
    let t1 = tally_sum(&tallies);
    probe::enable_alloc_counting(false);
    check(r, &w);
    let msgs = w.msgs.max(1) as f64;
    let [submits, completions, out, inn] = [0, 1, 2, 3].map(|i| c1[i] - c0[i]);
    let [send_ns, frames, bytes] = [0, 1, 2].map(|i| t1[i] - t0[i]);
    // The nodes' own tallies span the whole traced cluster's life, so
    // they are divided by every message a node delivered in it.
    let node_ns: u64 = nodes.iter().map(|n| n.ns).sum();
    let node_calls: u64 = nodes.iter().map(|n| n.calls).sum();
    let node_allocs: u64 = nodes.iter().map(|n| n.allocs).sum();
    let delivered = nodes[0].inner.srp().stats().delivered_msgs.max(1) as f64;
    let mut counters = ProtocolCounters::default();
    nodes.iter().for_each(|n| counters.add(&n.inner));
    let whole = |v: u64| v as f64 / delivered;
    let driver = w.cpu.get("driver").copied().unwrap_or(0) as f64;
    let reader = w.cpu.get("reader").copied().unwrap_or(0) as f64;
    let samples = std::mem::take(&mut *tallies[0].samples.lock().expect("sample lock poisoned"));
    let packets_sampled: Vec<_> = samples
        .into_iter()
        .filter_map(|b| SharedPacket::from_datagram(b).ok())
        .map(|p| p.packet().clone())
        .collect();
    let (encode_ns, decode_ns, _) = crate::host::wire_cost(&packets_sampled);
    let lat = percentiles(&mut w.latencies_us);
    let late = percentiles(&mut w.late_us);
    let overhead =
        sut_cpu(&w) as f64 / msgs / (sut_cpu(&base) as f64 / base.msgs.max(1) as f64) - 1.0;

    r.metric("node.ns_per_msg", whole(node_ns));
    r.metric("node.calls_per_msg", whole(node_calls));
    r.metric("node.allocs_per_msg", whole(node_allocs));
    counters.report(r, delivered);
    r.metric("wire.frames_per_msg", frames as f64 / msgs);
    r.metric("wire.bytes_per_msg", bytes as f64 / msgs);
    r.metric("wire.decode_ns_per_frame", decode_ns);
    r.metric("wire.encode_ns_per_frame", encode_ns);
    r.metric("runtime.driver_cpu_ns_per_msg", driver / msgs);
    r.metric(
        "runtime.allocs_per_msg",
        (w.allocs_runtime as f64 - node_allocs as f64 * msgs / delivered).max(0.0) / msgs,
    );
    r.metric("runtime.idle_frac", 1.0 - driver / (NODES as f64 * w.wall.as_nanos() as f64));
    r.metric("runtime.latency_p50_us", lat.p50);
    r.metric("runtime.latency_p99_us", lat.p99);
    r.metric("transport.reader_cpu_ns_per_msg", reader / msgs);
    r.metric(
        "transport.syscalls_per_datagram",
        (submits + completions) as f64 / (out + inn).max(1) as f64,
    );
    r.metric("transport.datagrams_per_msg", out as f64 / msgs);
    r.metric("transport.recv_batch_len", inn as f64 / completions.max(1) as f64);
    r.metric("transport.send_ns_per_datagram", send_ns as f64 / out.max(1) as f64);
    r.metric("bench.gen_late_p99_us", late.p99);
    r.metric("bench.trace_overhead_frac", overhead);
    r.metric("bench.ledger_sum_frac", (driver + reader) / sut_cpu(&w).max(1) as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_loops_deliver_every_message_once_in_order() {
        for pace in [Pace::Open, Pace::Closed] {
            let handles = formed(false, |t| t).expect("loopback cluster forms");
            let (mut w, probes) = drive(handles, 5, pace, Duration::from_secs(2));
            assert_eq!(w.violation, None, "{pace:?}");
            assert_eq!(w.failed, 0, "{pace:?}");
            if pace == Pace::Open {
                assert_eq!(
                    w.attempted,
                    (WARMUP + Duration::from_secs(2)).as_nanos() as u64 * RATE / 1_000_000_000
                );
            }
            assert!(w.msgs >= RATE * 18 / 10, "{pace:?}: only {} messages in the window", w.msgs);
            assert_eq!(w.slices.len(), 2, "{pace:?}");
            assert_eq!(probes.len(), NODES);
            let lat = percentiles(&mut w.latencies_us);
            assert_eq!(lat.count % NODES, 0, "{pace:?}: a message missed a node's stamp");
            assert!(lat.p50 > 0.0 && lat.p50 <= lat.p99, "{pace:?}");
        }
    }
}
