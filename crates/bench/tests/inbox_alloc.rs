//! Allocation-regression gate for the transport inbox arenas.
//!
//! The batched receive path's contract is O(1) allocations per
//! *batch*, not per datagram: a reader thread copies every datagram
//! into one linear arena, seals the arena into an immutable batch
//! (one channel send), and the driver carves frames off as zero-copy
//! slices. These tests pin that with a counting global allocator —
//! if a per-datagram `Bytes` allocation or a per-frame queue node
//! sneaks back in, the per-frame numbers scale with the batch size
//! and the assertions fail.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use totem_transport::inbox::{InboxArena, MAX_BATCH_FRAMES};
use totem_wire::NetworkId;

/// Counts allocations and requested bytes; frees are not tracked (the
/// gate cares about allocation *pressure*, not live bytes).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a plain
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// The counter is process-wide and the harness runs tests on parallel
/// threads, so every test holds this lock for its whole body: no
/// sibling allocates inside another's counted window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; the `()` it guards is intact.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Steady-state cost of the arena cycle: after a warm-up batch sizes
/// the buffers, each full batch (push × frames, seal, carve every
/// frame) costs a small constant number of allocations — the
/// replacement arena, the replacement bounds vec, the `Arc` created
/// by freezing, and the batch's trip through the channel-free path
/// here is none — regardless of how many datagrams it carries.
#[test]
fn arena_batch_cycle_allocates_o1_not_per_frame() {
    let _serial = serial();
    const FRAMES: usize = MAX_BATCH_FRAMES;
    let datagram = [0xABu8; 512];
    let mut arena = InboxArena::new(NetworkId::new(0));

    // Warm up: first batches grow the arena to its steady-state size
    // and teach the cap hint the traffic shape.
    for _ in 0..4 {
        for _ in 0..FRAMES {
            arena.push(&datagram);
        }
        let sealed = arena.seal().expect("non-empty");
        assert_eq!(sealed.iter().count(), FRAMES);
    }

    // Measured: 8 full batch cycles, carving every frame.
    let cycles = 8u64;
    let a0 = allocs();
    let mut carved_total = 0usize;
    for _ in 0..cycles {
        for _ in 0..FRAMES {
            arena.push(&datagram);
        }
        let sealed = arena.seal().expect("non-empty");
        for frame in sealed.iter() {
            carved_total += frame.len();
        }
    }
    let spent = allocs() - a0;
    assert_eq!(carved_total, cycles as usize * FRAMES * datagram.len());

    // O(1) per batch: arena replacement + bounds replacement + freeze.
    // Give headroom for allocator-internal noise, but stay far below
    // one allocation per frame (64 frames/batch would be >= 512).
    let per_batch = spent as f64 / cycles as f64;
    assert!(
        per_batch <= 8.0,
        "arena cycle allocated {per_batch:.1} times per batch (want O(1), \
         {spent} allocations over {cycles} batches of {FRAMES} frames)"
    );
}

/// Carving is zero-copy: frames of a sealed batch alias the arena
/// allocation instead of owning copies, so carving allocates nothing.
#[test]
fn carving_a_sealed_batch_allocates_nothing() {
    let _serial = serial();
    // The fewest allocations of three attempts, each carving a freshly
    // sealed batch: the lock keeps sibling tests out, but the harness
    // itself allocates on its own thread while it records a finished
    // sibling's result, and that can land in this short window. A new
    // arena and batch per attempt make an allocation carving makes,
    // even one made only on the first touch of a batch, show in every
    // attempt.
    let spent = (0..3)
        .map(|_| {
            let mut arena = InboxArena::new(NetworkId::new(1));
            for i in 0..32u8 {
                arena.push(&[i; 256]);
            }
            let sealed = arena.seal().expect("non-empty");

            let a0 = allocs();
            let mut total = 0usize;
            for frame in sealed.iter() {
                total += frame.len();
            }
            let spent = allocs() - a0;
            assert_eq!(total, 32 * 256);
            spent
        })
        .min()
        .expect("three attempts");
    assert_eq!(spent, 0, "carving must not allocate");
}
