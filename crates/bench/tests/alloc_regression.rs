//! Allocation-regression gate for the zero-copy data plane.
//!
//! The hot-path contract is: a broadcast performs **one encode** of
//! the frame (cached in its [`totem_wire::SharedPacket`]) plus O(1)
//! buffer allocations, *independent of cluster size* — fanning a
//! frame out to more receivers is refcount bumps, never payload
//! copies. These tests pin that with a counting global allocator:
//! if a per-receiver deep clone or a per-send re-encode sneaks back
//! in, the per-frame numbers scale with the node count and the
//! assertions below fail.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use totem_cluster::{BackendKind, ClusterConfig, SimCluster};
use totem_rrp::ReplicationStyle;
use totem_sim::{SimDuration, SimTime};
use totem_wire::{Chunk, DataPacket, NodeId, RingId, Seq, SharedPacket};

/// Counts allocations and requested bytes; frees are not tracked (the
/// gate cares about allocation *pressure*, not live bytes).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counters are plain
// relaxed atomics with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (ALLOC_COUNT.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// The counters are process-wide and the harness runs tests on
/// parallel threads, so every test holds this lock for its whole body:
/// no sibling allocates inside another's counted window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; the `()` it guards is intact.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations during `pass`, the fewest of three attempts, each on a
/// fixture freshly built by `fixture` outside the counted window. The
/// lock keeps sibling tests out, but the harness itself allocates on
/// its own thread while it records a finished sibling's result, and
/// that can land in a short window. Because every attempt starts from
/// a new fixture, an allocation `pass` makes, even one made only on
/// the first touch of an object, shows in every attempt.
fn fewest_of_three<F>(mut fixture: impl FnMut() -> F, mut pass: impl FnMut(&F)) -> u64 {
    (0..3)
        .map(|_| {
            let fresh = fixture();
            let (a0, _) = snapshot();
            pass(&fresh);
            snapshot().0 - a0
        })
        .min()
        .expect("three attempts")
}

/// Steady-state allocation cost of a saturated Totem cluster:
/// (allocations per wire frame, allocated bytes per wire frame).
fn per_frame_cost(nodes: usize, msg_size: usize) -> (f64, f64) {
    let mut cfg = ClusterConfig::new(nodes, ReplicationStyle::Active).counters_only().with_seed(7);
    cfg.sim = cfg.sim.with_cpu(totem_sim::CpuConfig::pentium_ii_450());
    saturated_cost(cfg, msg_size)
}

/// Steady-state allocation cost of `cfg` under the saturation pump.
fn saturated_cost(cfg: ClusterConfig, msg_size: usize) -> (f64, f64) {
    let mut cluster = SimCluster::new(cfg);
    cluster.enable_saturation(msg_size);

    // Warm up: ring formation, first-touch growth of windows, pools
    // and queues all happen here, outside the counted window.
    cluster.run_until(SimTime::ZERO + SimDuration::from_millis(80));
    let frames_before = cluster.net_stats().total_frames();
    let (a0, b0) = snapshot();

    cluster.run_until(SimTime::ZERO + SimDuration::from_millis(80 + 120));

    let (a1, b1) = snapshot();
    let frames = cluster.net_stats().total_frames() - frames_before;
    assert!(frames > 100, "expected a saturated run, got only {frames} frames");
    ((a1 - a0) as f64 / frames as f64, (b1 - b0) as f64 / frames as f64)
}

/// Encoding a shared frame allocates once; every further access to
/// the wire form is free.
#[test]
fn second_encode_of_a_shared_frame_allocates_nothing() {
    let _serial = serial();
    let spent = fewest_of_three(
        || {
            let pkt: SharedPacket = DataPacket {
                ring: RingId::new(NodeId::new(0), 1),
                seq: Seq::new(1),
                sender: NodeId::new(0),
                chunks: vec![Chunk::complete(1, bytes::Bytes::from(vec![0xAB; 700]))],
            }
            .into();
            // The first encode allocates, outside the counted window.
            let first = pkt.encoded().clone();
            (pkt, first)
        },
        |(pkt, first)| {
            for _ in 0..16 {
                // Clones of the handle share the cache: no encode, no alloc.
                let copy = pkt.clone();
                assert_eq!(copy.encoded().as_ref(), first.as_ref());
            }
        },
    );
    assert_eq!(spent, 0, "re-reading the cached encoding must not allocate");
}

/// Per-frame allocation cost must not scale with the receiver count:
/// doubling the cluster may grow bookkeeping slightly (more per-node
/// timers and window entries in flight) but payload buffers are
/// shared, so the per-frame cost stays in the same band instead of
/// doubling with a per-receiver copy.
#[test]
fn broadcast_cost_is_independent_of_cluster_size() {
    let _serial = serial();
    let (allocs4, bytes4) = per_frame_cost(4, 700);
    let (allocs8, bytes8) = per_frame_cost(8, 700);

    // Regression budget for the absolute cost: the zero-copy data
    // plane runs well under 8 allocations per frame (the pre-change
    // hot path was ~18); a deep-clone regression lands far above.
    assert!(allocs4 < 10.0, "allocs/frame at 4 nodes regressed: {allocs4:.1}");
    assert!(allocs8 < 12.0, "allocs/frame at 8 nodes regressed: {allocs8:.1}");

    // Scaling: with per-receiver deep clones a 4→8 node doubling
    // costs ≥2× the buffer bytes per frame. Shared frames keep both
    // counts in the same band; 1.6 leaves room for bookkeeping noise.
    assert!(
        allocs8 < allocs4 * 1.6,
        "allocs/frame scaled with cluster size: {allocs4:.1} -> {allocs8:.1}"
    );
    assert!(
        bytes8 < bytes4 * 1.6,
        "alloc bytes/frame scaled with cluster size: {bytes4:.0} -> {bytes8:.0}"
    );
}

/// A saturated 3-node Ring Paxos ensemble. Its per-instance state
/// lives in instance-indexed windows, so steady state allocates only
/// for the frames themselves and the per-request dedup sets; a
/// per-instance tree map would add its node allocations here.
#[test]
fn ring_paxos_allocations_per_frame() {
    let _serial = serial();
    let cfg = ClusterConfig::new(3, ReplicationStyle::Single)
        .counters_only()
        .with_seed(7)
        .with_backend(BackendKind::RingPaxos);
    let (allocs, _) = saturated_cost(cfg, 256);
    println!("ring paxos, 3 nodes, 256 B: {allocs:.3} allocs/frame");
    // Measured 2.58 (deterministic per seed); the same engine on
    // per-instance BTreeMaps measured 3.00.
    assert!(allocs < 2.7, "ring paxos allocs/frame regressed: {allocs:.2}");
}
