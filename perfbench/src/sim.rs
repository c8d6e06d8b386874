//! The simulated workloads: definitions, seeded inputs, the episode
//! loop shared by `SimCluster` and the bench-side host, and the
//! output checks (agreement, FIFO, exactly-once).

use std::collections::VecDeque;
use std::time::Instant;

use bytes::Bytes;

use totem_cluster::{BackendKind, ClusterConfig, SimCluster};
use totem_rrp::{FaultReport, ReplicationStyle};
use totem_sim::{CpuConfig, FaultCommand, SimDuration, SimStats, SimTime};
use totem_srp::Delivered;
use totem_wire::NetworkId;

use crate::stats::{nearest_rank, percentiles, Fnv, Percentiles, SplitMix};

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// `SimCluster`'s saturation pump: every node keeps 64 messages
    /// queued (paper §8).
    Closed,
    /// A fixed total rate, round-robin over the senders.
    Open {
        /// Messages per second of simulated time.
        rate: u64,
    },
}

/// One simulated workload.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Cluster size.
    pub nodes: usize,
    /// Replication style.
    pub style: ReplicationStyle,
    /// Broadcast engine.
    pub backend: BackendKind,
    /// Application message size in bytes.
    pub msg_size: usize,
    /// Offered load.
    pub load: Load,
    /// Simulated time before the latency and throughput window opens.
    pub warmup_ms: u64,
    /// Simulated time the load runs for.
    pub span_ms: u64,
    /// Network 1 goes down at this simulated instant.
    pub fault_at_ms: Option<u64>,
    /// Open loop: how long past the span deliveries may still drain.
    pub drain_ms: u64,
}

/// Four nodes, active replication over two networks, 100-byte messages
/// from the saturation pump: the Figure 6 smallest point.
pub const SATURATE: SimWorkload = SimWorkload {
    name: "sim-saturate-small",
    nodes: 4,
    style: ReplicationStyle::Active,
    backend: BackendKind::Totem,
    msg_size: 100,
    load: Load::Closed,
    warmup_ms: 200,
    span_ms: 1200,
    fault_at_ms: None,
    drain_ms: 0,
};

/// Four nodes, passive replication over two networks, 1 KB messages at
/// 3,000 msgs/s; network 1 dies mid-run.
pub const NETFAIL: SimWorkload = SimWorkload {
    name: "sim-netfail-passive",
    nodes: 4,
    style: ReplicationStyle::Passive,
    backend: BackendKind::Totem,
    msg_size: 1024,
    load: Load::Open { rate: 3000 },
    warmup_ms: 0,
    span_ms: 4000,
    fault_at_ms: Some(1500),
    drain_ms: 3000,
};

/// Three-node Ring Paxos, 256-byte messages from the saturation pump.
pub const RING_PAXOS: SimWorkload = SimWorkload {
    name: "sim-ringpaxos",
    nodes: 3,
    style: ReplicationStyle::Single,
    backend: BackendKind::RingPaxos,
    msg_size: 256,
    load: Load::Closed,
    warmup_ms: 200,
    span_ms: 8200,
    fault_at_ms: None,
    drain_ms: 0,
};

/// The simulated twin of `udp-loopback`: the same three nodes, active
/// replication over two networks and 256-byte messages at 5,000 msgs/s.
/// Wall-clock tail latency on a shared host swings with the host, so
/// the loopback workload fills its sim-time slots from this twin.
pub const UDP_TWIN: SimWorkload = SimWorkload {
    name: "udp-loopback",
    nodes: 3,
    style: ReplicationStyle::Active,
    backend: BackendKind::Totem,
    msg_size: 256,
    load: Load::Open { rate: 5000 },
    warmup_ms: 0,
    span_ms: 2000,
    fault_at_ms: None,
    drain_ms: 1000,
};

/// Every simulated workload.
pub const WORKLOADS: [SimWorkload; 3] = [SATURATE, NETFAIL, RING_PAXOS];

/// Everything the seed decides for a simulated workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Per-node processor speed relative to the Pentium II model
    /// (within ±0.1%, as machines of one testbed differ).
    pub cpu_factors: Vec<f64>,
    /// When network 1 fails, if it does.
    pub fault_at: Option<SimTime>,
    /// Seed of the simulator's own generator.
    pub sim_seed: u64,
    /// Seed of the open-loop payload bytes.
    pub payload_seed: u64,
}

fn scaled(cpu: &CpuConfig, f: f64) -> CpuConfig {
    let d = |d: SimDuration| SimDuration::from_nanos((d.as_nanos() as f64 * f).round() as u64);
    CpuConfig {
        send_packet: d(cpu.send_packet),
        send_per_byte_ns: cpu.send_per_byte_ns,
        recv_packet: d(cpu.recv_packet),
        recv_per_byte_ns: cpu.recv_per_byte_ns,
        deliver_msg: d(cpu.deliver_msg),
        deliver_per_byte_ns: cpu.deliver_per_byte_ns,
    }
}

impl SimWorkload {
    /// The seeded inputs of this workload.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed, 1);
        let cpu_factors = (0..self.nodes).map(|_| 1.0 + (rng.unit() - 0.5) * 0.002).collect();
        Inputs {
            cpu_factors,
            fault_at: self.fault_at_ms.map(|ms| SimTime::from_nanos(ms * 1_000_000)),
            sim_seed: rng.next_u64(),
            payload_seed: rng.next_u64(),
        }
    }

    /// The cluster configuration, with full delivery logs kept (the
    /// checks read them).
    pub fn cluster_config(&self, inputs: &Inputs) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(self.nodes, self.style)
            .with_seed(inputs.sim_seed)
            .with_backend(self.backend);
        for (cpu, f) in cfg.sim.cpus.iter_mut().zip(&inputs.cpu_factors) {
            *cpu = scaled(cpu, *f);
        }
        cfg
    }

    /// Open loop: message `k`'s due instant in nanoseconds.
    fn due(&self, k: u64) -> u64 {
        match self.load {
            Load::Open { rate } => k * 1_000_000_000 / rate,
            Load::Closed => 0,
        }
    }

    /// Open loop: how many messages the span offers.
    pub fn open_count(&self) -> u64 {
        match self.load {
            Load::Open { rate } => rate * self.span_ms / 1000,
            Load::Closed => 0,
        }
    }

    /// Open loop: every message body, `[id][due][seeded bytes]`.
    pub fn bodies(&self, inputs: &Inputs) -> Vec<Bytes> {
        (0..self.open_count())
            .map(|k| {
                let mut rng = SplitMix::new(inputs.payload_seed, k);
                let mut body = Vec::with_capacity(self.msg_size);
                body.extend_from_slice(&k.to_be_bytes());
                body.extend_from_slice(&self.due(k).to_be_bytes());
                while body.len() < self.msg_size {
                    body.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                body.truncate(self.msg_size);
                Bytes::from(body)
            })
            .collect()
    }
}

/// The simulated host an episode drives: `SimCluster`, or the
/// bench-side [`crate::host::HostWorld`].
pub trait SimHost {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Advances the simulation to `t`.
    fn run_until(&mut self, t: SimTime);
    /// Queues a message on `node`; `false` on backpressure.
    fn try_submit(&mut self, node: usize, data: Bytes) -> bool;
    /// Starts the saturation pump on every node.
    fn saturate(&mut self, size: usize);
    /// Schedules a fault.
    fn schedule_fault(&mut self, at: SimTime, cmd: FaultCommand);
    /// The not-yet-pruned delivery log of `node`, with delivery times.
    fn log(&self, node: usize) -> (&[Delivered], &[u64]);
    /// Drops all but the last `keep_last` log entries of `node`.
    fn prune(&mut self, node: usize, keep_last: usize);
    /// Fault reports raised at `node`.
    fn faults(&self, node: usize) -> &[FaultReport];
    /// Wire-level statistics.
    fn net_stats(&self) -> &SimStats;
    /// Pump submission timestamps of `node`, where the host logs them.
    fn submitted(&self, _node: usize) -> Option<&[u64]> {
        None
    }
}

impl SimHost for SimCluster {
    fn now(&self) -> SimTime {
        SimCluster::now(self)
    }
    fn run_until(&mut self, t: SimTime) {
        SimCluster::run_until(self, t);
    }
    fn try_submit(&mut self, node: usize, data: Bytes) -> bool {
        SimCluster::try_submit(self, node, data).is_ok()
    }
    fn saturate(&mut self, size: usize) {
        self.enable_saturation(size);
    }
    fn schedule_fault(&mut self, at: SimTime, cmd: FaultCommand) {
        SimCluster::schedule_fault(self, at, cmd);
    }
    fn log(&self, node: usize) -> (&[Delivered], &[u64]) {
        (self.delivered(node), self.delivery_times(node))
    }
    fn prune(&mut self, node: usize, keep_last: usize) {
        self.prune_delivered(node, keep_last);
    }
    fn faults(&self, node: usize) -> &[FaultReport] {
        SimCluster::faults(self, node)
    }
    fn net_stats(&self) -> &SimStats {
        SimCluster::net_stats(self)
    }
}

/// What one episode measured and checked. Everything but `wall_ns` is
/// a pure function of the workload and seed.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Wall-clock time spent driving the host (checks excluded).
    pub wall_ns: u64,
    /// Messages in the agreed sequence every node delivered.
    pub agreed: u64,
    /// FNV digest of that sequence.
    pub digest: u64,
    /// Each node's digest of its whole delivery sequence.
    pub node_digests: Vec<u64>,
    /// Submit-to-delivery-everywhere latency, microseconds of sim time.
    pub latency: Percentiles,
    /// Agreed deliveries per second of simulated time.
    pub msgs_per_s: f64,
    /// With a fault: the longest gap between deliveries at any node
    /// after it. Without: the 99.9th percentile of those gaps in the
    /// window (the single longest is an extreme value that moves with
    /// the seed).
    pub stall_ms: f64,
    /// Fault to the last node's fault report (NaN without a fault).
    pub detect_ms: f64,
    /// Messages checked.
    pub attempted: u64,
    /// Messages not delivered exactly once at every node.
    pub failed: u64,
    /// A broken total order, FIFO or exactly-once property.
    pub violation: Option<String>,
}

impl Episode {
    /// The sim-time outcome, for exact comparison between runs.
    pub fn sim_key(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.agreed,
            self.digest,
            self.latency.p50.to_bits(),
            self.latency.p99.to_bits(),
            self.stall_ms.to_bits(),
            self.detect_ms.to_bits(),
        )
    }
}

/// Consumes delivery logs as they grow, checking and measuring the
/// common prefix every node has delivered.
struct Tracker {
    nodes: usize,
    load: Load,
    total: u64,
    /// Absolute index of each node's first unpruned log entry.
    base: Vec<usize>,
    agreed: usize,
    digest: Fnv,
    node_digests: Vec<Fnv>,
    /// Absolute index up to which each node's log is in its digest.
    hashed: Vec<usize>,
    violation: Option<String>,
    /// Per sender: the last FIFO key seen.
    last_key: Vec<Option<u64>>,
    /// Per sender: position in the host's submission log.
    cursor: Vec<usize>,
    seen: Vec<bool>,
    window: (u64, u64),
    stall_window: (u64, u64),
    last_t: Vec<Option<u64>>,
    /// Gaps between consecutive deliveries at a node, in the stall
    /// window.
    gaps_ns: Vec<f64>,
    latencies: Vec<f64>,
    in_window: u64,
    first_due: u64,
    last_done: u64,
}

impl Tracker {
    fn new(w: &SimWorkload, fault_at: Option<SimTime>) -> Self {
        let span = w.span_ms * 1_000_000;
        let warm = w.warmup_ms * 1_000_000;
        let stall_from = fault_at.map_or(warm, SimTime::as_nanos);
        Tracker {
            nodes: w.nodes,
            load: w.load,
            total: w.open_count(),
            base: vec![0; w.nodes],
            agreed: 0,
            digest: Fnv::default(),
            node_digests: vec![Fnv::default(); w.nodes],
            hashed: vec![0; w.nodes],
            violation: None,
            last_key: vec![None; w.nodes],
            cursor: vec![0; w.nodes],
            seen: vec![false; w.open_count() as usize],
            window: (warm, span),
            stall_window: (stall_from, span),
            last_t: vec![None; w.nodes],
            gaps_ns: Vec::new(),
            latencies: Vec::new(),
            in_window: 0,
            first_due: u64::MAX,
            last_done: 0,
        }
    }

    fn fail(&mut self, why: String) {
        self.violation.get_or_insert(why);
    }

    fn consume<H: SimHost>(&mut self, h: &mut H) {
        let totals: Vec<usize> = (0..self.nodes).map(|n| self.base[n] + h.log(n).0.len()).collect();
        for n in 0..self.nodes {
            let (log, _) = h.log(n);
            for d in &log[self.hashed[n] - self.base[n]..] {
                self.node_digests[n].message(d.sender.as_u16(), &d.data);
            }
            self.hashed[n] = totals[n];
        }
        let agreed = totals.iter().copied().min().unwrap_or(0);
        for p in self.agreed..agreed {
            let (first, _) = h.log(0);
            let d0 = first[p - self.base[0]].clone();
            let mut done = 0u64;
            for n in 0..self.nodes {
                let (log, times) = h.log(n);
                let d = &log[p - self.base[n]];
                if d.sender != d0.sender || d.data != d0.data {
                    self.fail(format!(
                        "total order violated at position {p}: node {n} disagrees with node 0"
                    ));
                }
                let t = times[p - self.base[n]];
                done = done.max(t);
                if let Some(prev) = self.last_t[n] {
                    if t >= self.stall_window.0 && prev <= self.stall_window.1 {
                        self.gaps_ns.push((t - prev) as f64);
                    }
                }
                self.last_t[n] = Some(t);
            }
            self.digest.message(d0.sender.as_u16(), &d0.data);
            self.check(h, &d0, done);
        }
        self.agreed = agreed;
        for (n, &total) in totals.iter().enumerate() {
            h.prune(n, total - agreed);
            self.base[n] = agreed;
        }
    }

    fn check<H: SimHost>(&mut self, h: &H, d: &Delivered, done: u64) {
        let s = d.sender.index();
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&d.data[i * 8..i * 8 + 8]);
            u64::from_be_bytes(b)
        };
        if s >= self.nodes || d.data.len() < 16 {
            self.fail(format!(
                "delivered a message no node submitted ({} bytes from {s})",
                d.data.len()
            ));
            return;
        }
        match self.load {
            Load::Closed => {
                let ts = word(0);
                if self.last_key[s].is_some_and(|prev| ts < prev) {
                    self.fail(format!("sender {s} delivered out of FIFO order"));
                }
                self.last_key[s] = Some(ts);
                if let Some(log) = h.submitted(s) {
                    if log.get(self.cursor[s]) != Some(&ts) {
                        self.fail(format!(
                            "sender {s}: delivery does not match its next submission"
                        ));
                    }
                    self.cursor[s] += 1;
                }
                if (self.window.0..self.window.1).contains(&done) {
                    self.in_window += 1;
                    self.latencies.push((done - ts) as f64 / 1e3);
                }
            }
            Load::Open { .. } => {
                let (id, due) = (word(0), word(1));
                if id >= self.total || id as usize % self.nodes != s {
                    self.fail(format!("delivered unknown message id {id} from {s}"));
                    return;
                }
                if std::mem::replace(&mut self.seen[id as usize], true) {
                    self.fail(format!("message {id} delivered twice"));
                }
                if self.last_key[s].is_some_and(|prev| id <= prev) {
                    self.fail(format!("sender {s} delivered out of FIFO order"));
                }
                self.last_key[s] = Some(id);
                self.latencies.push(done.saturating_sub(due) as f64 / 1e3);
                self.first_due = self.first_due.min(due);
                self.last_done = self.last_done.max(done);
                self.in_window += 1;
            }
        }
    }
}

/// Wall time of the driving sections of an episode.
struct Stopwatch {
    since: Instant,
    wall_ns: u64,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch { since: Instant::now(), wall_ns: 0 }
    }
    fn pause(&mut self) {
        self.wall_ns += self.since.elapsed().as_nanos() as u64;
    }
    fn resume(&mut self) {
        self.since = Instant::now();
    }
}

const CHUNK_NS: u64 = 10_000_000;

/// Runs one episode of `w` on `h` (fresh, built from `inputs`).
pub fn run_episode<H: SimHost>(
    h: &mut H,
    w: &SimWorkload,
    inputs: &Inputs,
    bodies: &[Bytes],
) -> Episode {
    let fault_net = NetworkId::new(1);
    if let Some(at) = inputs.fault_at {
        h.schedule_fault(at, FaultCommand::NetworkDown { net: fault_net, down: true });
    }
    let span = SimTime::from_nanos(w.span_ms * 1_000_000);
    let mut tr = Tracker::new(w, inputs.fault_at);
    let mut clock = Stopwatch::start();
    match w.load {
        Load::Closed => {
            h.saturate(w.msg_size);
            while h.now() < span {
                let next =
                    SimTime::from_nanos((h.now().as_nanos() + CHUNK_NS).min(span.as_nanos()));
                h.run_until(next);
                clock.pause();
                tr.consume(h);
                clock.resume();
            }
        }
        Load::Open { .. } => {
            let mut pending: Vec<VecDeque<Bytes>> = vec![VecDeque::new(); w.nodes];
            let flush = |h: &mut H, pending: &mut Vec<VecDeque<Bytes>>| {
                for (n, queue) in pending.iter_mut().enumerate() {
                    while let Some(body) = queue.front() {
                        if !h.try_submit(n, body.clone()) {
                            break;
                        }
                        queue.pop_front();
                    }
                }
            };
            let mut next_check = CHUNK_NS;
            for (k, body) in bodies.iter().enumerate() {
                let due = w.due(k as u64);
                h.run_until(SimTime::from_nanos(due));
                pending[k % w.nodes].push_back(body.clone());
                flush(h, &mut pending);
                if due >= next_check {
                    next_check += CHUNK_NS;
                    clock.pause();
                    tr.consume(h);
                    clock.resume();
                }
            }
            let limit = span.as_nanos() + w.drain_ms * 1_000_000;
            while (tr.agreed as u64) < tr.total && h.now().as_nanos() < limit {
                h.run_until(SimTime::from_nanos(h.now().as_nanos() + 1_000_000));
                flush(h, &mut pending);
                clock.pause();
                tr.consume(h);
                clock.resume();
            }
        }
    }
    clock.pause();
    tr.consume(h);
    finish(h, w, inputs, tr, clock)
}

fn finish<H: SimHost>(
    h: &H,
    w: &SimWorkload,
    inputs: &Inputs,
    mut tr: Tracker,
    clock: Stopwatch,
) -> Episode {
    let mut attempted = tr.agreed as u64;
    let mut failed = 0;
    match w.load {
        Load::Open { .. } => {
            attempted = tr.total;
            failed = tr.total - tr.agreed as u64;
        }
        Load::Closed => {
            // Exactly-once against the submission log: everything
            // submitted comfortably before the end must have arrived.
            let cutoff = (w.span_ms - 500) * 1_000_000;
            if (0..w.nodes).any(|n| h.submitted(n).is_some()) {
                attempted = 0;
                for n in 0..w.nodes {
                    let log = h.submitted(n).unwrap_or(&[]);
                    let due = log.partition_point(|&ts| ts <= cutoff);
                    attempted += due as u64;
                    failed += due.saturating_sub(tr.cursor[n]) as u64;
                }
            }
        }
    }
    let detect_ms = match inputs.fault_at {
        Some(at) => {
            let mut last: Option<u64> = Some(0);
            for n in 0..w.nodes {
                let first = h.faults(n).iter().find(|f| f.net == NetworkId::new(1)).map(|f| f.at);
                last = match (last, first) {
                    (Some(l), Some(f)) => Some(l.max(f)),
                    _ => None,
                };
            }
            match last {
                Some(t) => t.saturating_sub(at.as_nanos()) as f64 / 1e6,
                None => {
                    tr.fail("a node never reported the failed network".into());
                    f64::NAN
                }
            }
        }
        None => f64::NAN,
    };
    let msgs_per_s = match w.load {
        Load::Closed => tr.in_window as f64 / ((tr.window.1 - tr.window.0) as f64 / 1e9),
        Load::Open { .. } => {
            tr.in_window as f64 / (tr.last_done.saturating_sub(tr.first_due).max(1) as f64 / 1e9)
        }
    };
    Episode {
        wall_ns: clock.wall_ns,
        agreed: tr.agreed as u64,
        digest: tr.digest.0,
        node_digests: tr.node_digests.iter().map(|d| d.0).collect(),
        latency: percentiles(&mut tr.latencies),
        msgs_per_s,
        stall_ms: match inputs.fault_at {
            Some(_) => tr.gaps_ns.iter().copied().fold(0.0, f64::max) / 1e6,
            None => {
                tr.gaps_ns.sort_by(f64::total_cmp);
                nearest_rank(&tr.gaps_ns, 99.9) / 1e6
            }
        },
        detect_ms,
        attempted,
        failed,
        violation: tr.violation,
    }
}

/// Wall seconds from building the cluster to the first delivery at
/// every node.
pub fn setup_once(w: &SimWorkload, inputs: &Inputs, first: &Bytes) -> f64 {
    let t0 = Instant::now();
    let mut c = SimCluster::new(w.cluster_config(inputs));
    match w.load {
        Load::Closed => c.enable_saturation(w.msg_size),
        Load::Open { .. } => {
            c.submit(0, first.clone());
        }
    }
    while (0..w.nodes).any(|n| c.delivered(n).is_empty()) && c.now() < SimTime::from_secs(5) {
        c.run_until(SimTime::from_nanos(c.now().as_nanos() + 100_000));
    }
    std::hint::black_box(&c);
    t0.elapsed().as_secs_f64()
}
