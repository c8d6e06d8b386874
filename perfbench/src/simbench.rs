//! End-to-end and traced runs of the simulated workloads.

use std::time::{Duration, Instant};

use totem_cluster::{BackendKind, SimCluster};

use crate::gauge;
use crate::host::{self, HostWorld, Mode, Tally};
use crate::probe;
use crate::report::{ProtocolCounters, Report};
use crate::sim::{run_episode, setup_once, Episode, SimHost, SimWorkload};
use crate::stats::median;

/// Adds an episode's checked messages to `r`, failing it on any
/// violation or undelivered message.
pub fn check_episode(r: &mut Report, e: &Episode, what: &str) {
    r.attempted += e.attempted;
    r.failed += e.failed;
    if let Some(v) = &e.violation {
        r.fail(format!("{what}: {v}"));
    }
    r.check(e.failed == 0, || {
        format!("{what}: {} of {} messages not delivered everywhere", e.failed, e.attempted)
    });
}

fn per_msg(ns: u64, e: &Episode) -> f64 {
    ns as f64 / e.agreed.max(1) as f64
}

/// The untraced run: set-up time, then fresh `SimCluster` episodes for
/// `seconds`, each checked against the first and against the bench-side
/// host's exactly-once oracle.
pub fn end_to_end(w: &SimWorkload, seed: u64, seconds: f64) -> Report {
    let mut r = Report::new();
    let inputs = w.inputs(seed);
    let bodies = w.bodies(&inputs);
    let first = bodies.first().cloned().unwrap_or_default();

    let mut oracle_host = HostWorld::new(w, w.cluster_config(&inputs), Mode::Plain);
    let oracle = run_episode(&mut oracle_host, w, &inputs, &bodies);
    check_episode(&mut r, &oracle, "bench-side host");

    // Each episode follows three reference passes and a timed cluster
    // set-up; both times are scaled by how much slower than calm the
    // median pass ran. (A single pass right after an episode's teardown
    // can run twice as slow on the allocator state it leaves behind.)
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut episodes: Vec<(Episode, f64)> = Vec::new();
    let mut setups = Vec::new();
    while episodes.len() < 3 || Instant::now() < deadline {
        let slowdown = gauge::slowdown(3);
        setups.push(setup_once(w, &inputs, &first) / slowdown);
        let mut cluster = SimCluster::new(w.cluster_config(&inputs));
        let e = run_episode(&mut cluster, w, &inputs, &bodies);
        check_episode(&mut r, &e, "SimCluster");
        r.check(e.sim_key() == episodes.first().map_or(&e, |(e0, _)| e0).sim_key(), || {
            "SimCluster is not deterministic: two episodes of one seed differ".into()
        });
        r.check((e.agreed, e.digest) == (oracle.agreed, oracle.digest), || {
            format!(
                "bench-side host digest {:016x}/{} differs from SimCluster {:016x}/{}",
                oracle.digest, oracle.agreed, e.digest, e.agreed
            )
        });
        episodes.push((e, slowdown));
    }
    let med = |f: &dyn Fn(&Episode, f64) -> f64| {
        let mut v: Vec<f64> = episodes.iter().map(|(e, s)| f(e, *s)).collect();
        median(&mut v)
    };
    let slowdown = med(&|_, s| s);
    let raw_wall = med(&|e, _| per_msg(e.wall_ns, e));
    let e0 = &episodes[0].0;
    r.notes.push(format!(
        "{} episodes of {} agreed messages, digest {:016x}; latency from {} samples, p{} = {:.1} us; \
         raw wall {raw_wall:.1} ns/msg on a host {slowdown:.3}x slower than calm",
        episodes.len(),
        e0.agreed,
        e0.digest,
        e0.latency.count,
        e0.latency.top_pct,
        e0.latency.top
    ));
    r.metric("setup_s", median(&mut setups));
    r.metric("wall_ns_per_msg", med(&|e, s| per_msg(e.wall_ns, e) / s));
    r.metric("msgs_per_s", e0.msgs_per_s);
    r.metric("sim_latency_p50_us", e0.latency.p50);
    r.metric("sim_latency_p99_us", e0.latency.p99);
    r.metric("stall_ms", e0.stall_ms);
    r
}

/// The traced run: untraced `SimCluster` episodes interleaved with
/// timed bench-side host episodes (which must reproduce their digests),
/// then one recorded episode replayed layer by layer.
pub fn layers(w: &SimWorkload, seed: u64, seconds: f64) -> Report {
    let mut r = Report::new();
    r.metric("bench.host_slowdown", gauge::slowdown(8));
    let inputs = w.inputs(seed);
    let bodies = w.bodies(&inputs);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.6);

    let mut untraced = Vec::new();
    let mut traced: Vec<(Tally, Episode)> = Vec::new();
    while traced.len() < 2 || Instant::now() < deadline {
        let mut cluster = SimCluster::new(w.cluster_config(&inputs));
        let plain = run_episode(&mut cluster, w, &inputs, &bodies);
        check_episode(&mut r, &plain, "SimCluster");
        untraced.push(per_msg(plain.wall_ns, &plain));

        let mut host = HostWorld::new(w, w.cluster_config(&inputs), Mode::Timed);
        probe::enable_alloc_counting(true);
        let e = run_episode(&mut host, w, &inputs, &bodies);
        probe::enable_alloc_counting(false);
        check_episode(&mut r, &e, "traced host");
        r.check((e.agreed, e.digest) == (plain.agreed, plain.digest), || {
            format!(
                "traced host digest {:016x}/{} differs from SimCluster {:016x}/{}",
                e.digest, e.agreed, plain.digest, plain.agreed
            )
        });
        traced.push((host.tally(), e));
    }

    let cfg = w.cluster_config(&inputs);
    let mut rec_host = HostWorld::new(w, cfg.clone(), Mode::Recorded);
    let rec = run_episode(&mut rec_host, w, &inputs, &bodies);
    check_episode(&mut r, &rec, "recording host");
    let rec_tally = rec_host.tally();
    let mut counters = ProtocolCounters::default();
    rec_host.engines().filter_map(|e| e.as_totem()).for_each(|n| counters.add(n));
    let stats = SimHost::net_stats(&rec_host);
    let frames = stats.total_frames();
    let wire_bytes: u64 = stats.iter().map(|(_, s)| s.wire_bytes).sum();
    let recorded = rec_host.take_inputs();
    let replay = host::replay(w, &cfg, &recorded, &rec.node_digests);
    r.check(replay.digests_match, || "replayed engines did not reproduce their deliveries".into());
    let (encode_ns, decode_ns, frames_timed) = host::wire_replay(&recorded, 50_000);
    drop(recorded);

    let med = |f: &dyn Fn(&Tally, &Episode) -> f64| {
        let mut v: Vec<f64> = traced.iter().map(|(t, e)| f(t, e)).collect();
        median(&mut v)
    };
    let msgs = |e: &Episode| e.agreed.max(1) as f64;
    let sim_ns = med(&|t, e| t.sim_ns as f64 / msgs(e));
    let host_ns = med(&|t, e| (t.callback_ns - t.node_ns) as f64 / msgs(e));
    let node_ns = med(&|t, e| t.node_ns as f64 / msgs(e));
    let total_ns = med(&|_, e| e.wall_ns as f64 / msgs(e));
    // A replay reads its inputs cold from memory and so runs slower
    // than the engines did in place; the RRP layer's share of the
    // replayed engine time splits the in-place engine time.
    let rrp_share = replay.rrp_ns as f64 / replay.node_ns.max(1) as f64;
    let rrp_ns = node_ns * rrp_share;
    let srp_ns = node_ns - rrp_ns;
    let ledger_frac = (sim_ns + host_ns + rrp_ns + srp_ns) / total_ns;
    r.check((0.9..=1.1).contains(&ledger_frac), || {
        format!("layers sum to {ledger_frac:.3} of the traced wall time, outside 10%")
    });
    r.check(rrp_share <= 1.0, || "replayed RRP layer costs more than the whole engine".into());
    let overhead = total_ns / median(&mut untraced) - 1.0;
    let rec_msgs = msgs(&rec);
    let replay_frac = replay.node_ns as f64 / rec_tally.node_ns.max(1) as f64;
    r.notes.push(format!(
        "{} traced episodes; replayed {} RRP inputs; replay took {replay_frac:.3} of the \
         in-place engine time; wire costs from {frames_timed} distinct frames",
        traced.len(),
        replay.rrp_frames,
    ));

    let rp = w.backend == BackendKind::RingPaxos;
    let per = |n: u64| n as f64 / rec_msgs;
    r.metric("sim.self_ns_per_event", med(&|t, _| t.sim_ns as f64 / t.events.max(1) as f64));
    r.metric("sim.events_per_msg", med(&|t, e| t.events as f64 / msgs(e)));
    r.metric("sim_cluster.self_ns_per_msg", host_ns);
    r.metric("node.ns_per_msg", node_ns);
    r.metric("node.calls_per_msg", med(&|t, e| t.node_calls as f64 / msgs(e)));
    r.metric("node.allocs_per_msg", med(&|t, e| t.node_allocs as f64 / msgs(e)));
    r.metric("rrp.ns_per_msg", rrp_ns);
    r.metric("rrp.ns_per_frame", rrp_ns * rec_msgs / replay.rrp_frames.max(1) as f64);
    if rec.detect_ms.is_finite() {
        r.metric("rrp.detect_ms", rec.detect_ms);
    }
    if !rp {
        r.metric("srp.ns_per_msg", srp_ns);
    }
    counters.report(&mut r, rec_msgs);
    r.metric("wire.frames_per_msg", per(frames));
    r.metric("wire.bytes_per_msg", per(wire_bytes));
    r.metric("wire.decode_ns_per_frame", decode_ns);
    r.metric("wire.encode_ns_per_frame", encode_ns);
    if rp {
        r.metric("ring_paxos.ns_per_msg", node_ns);
        r.metric("ring_paxos.frames_per_msg", per(frames));
    }
    r.metric("bench.trace_overhead_frac", overhead);
    r.metric("bench.ledger_sum_frac", ledger_frac);
    r.metric("bench.replay_slowdown", replay_frac);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::WORKLOADS;

    fn cluster_episode(w: &SimWorkload, seed: u64) -> Episode {
        let inputs = w.inputs(seed);
        let mut cluster = SimCluster::new(w.cluster_config(&inputs));
        run_episode(&mut cluster, w, &inputs, &w.bodies(&inputs))
    }

    fn host_episode(w: &SimWorkload, seed: u64, mode: Mode) -> (Episode, HostWorld) {
        let inputs = w.inputs(seed);
        let mut host = HostWorld::new(w, w.cluster_config(&inputs), mode);
        let e = run_episode(&mut host, w, &inputs, &w.bodies(&inputs));
        (e, host)
    }

    #[test]
    fn sim_workloads_repeat_exactly_per_seed() {
        for w in WORKLOADS.iter().chain([&crate::sim::UDP_TWIN]) {
            let a = cluster_episode(w, 1);
            let b = cluster_episode(w, 1);
            assert_eq!(a.violation, None, "{}", w.name);
            assert_eq!(a.failed, 0, "{}", w.name);
            assert!(a.agreed > 1000, "{}: only {} messages", w.name, a.agreed);
            assert_eq!(a.sim_key(), b.sim_key(), "{}: one seed, two outcomes", w.name);
            assert_eq!(a.msgs_per_s.to_bits(), b.msgs_per_s.to_bits(), "{}", w.name);
            let other = cluster_episode(w, 2);
            assert_eq!(other.violation, None, "{}", w.name);
            assert_ne!(a.sim_key(), other.sim_key(), "{}: the seed changes nothing", w.name);
        }
    }

    #[test]
    fn bench_host_reproduces_sim_cluster_and_checks_exactly_once() {
        for w in &WORKLOADS {
            let plain = cluster_episode(w, 3);
            for mode in [Mode::Plain, Mode::Timed] {
                let (e, _) = host_episode(w, 3, mode);
                assert_eq!(
                    (e.agreed, e.digest),
                    (plain.agreed, plain.digest),
                    "{} {mode:?}",
                    w.name
                );
                assert_eq!(e.node_digests, plain.node_digests, "{} {mode:?}", w.name);
                assert_eq!(e.violation, None, "{}", w.name);
                assert_eq!(e.failed, 0, "{}", w.name);
                assert!(
                    e.attempted > 1000,
                    "{}: exactly-once checked {} messages",
                    w.name,
                    e.attempted
                );
            }
        }
    }

    #[test]
    fn replayed_inputs_reproduce_every_node() {
        for w in &WORKLOADS {
            let (e, mut host) = host_episode(w, 4, Mode::Recorded);
            let inputs = host.take_inputs();
            assert!(inputs.iter().all(|i| !i.is_empty()), "{}", w.name);
            let cfg = w.cluster_config(&w.inputs(4));
            let r = host::replay(w, &cfg, &inputs, &e.node_digests);
            assert!(r.digests_match, "{}", w.name);
            assert_eq!(r.rrp_frames > 0, w.backend == BackendKind::Totem, "{}", w.name);
            let (encode, decode, frames) = host::wire_replay(&inputs, 1000);
            assert!(frames > 0 && encode > 0.0 && decode > 0.0, "{}", w.name);
        }
    }
}
