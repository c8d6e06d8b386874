//! A fixed reference workload that gauges the host's speed.
//!
//! On a shared host the same binary runs up to 2.4 times slower for
//! minutes at a time, and every figure that measures processor work
//! slows with it. A pass of this fixed workload, which is part of the
//! benchmark and not of the code under test, slows by the same factor;
//! dividing by it keeps such figures comparable across runs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

use crate::stats::{median, Fnv, SplitMix};

/// Wall time of one reference pass on a calm host: the 2-core container
/// the benchmark was calibrated on.
const CALM_PASS_NS: f64 = 2.32e6;

/// Wall nanoseconds of one pass of a fixed workload shaped like a
/// simulator step: an event heap, short-lived buffers and hashing.
fn pass_ns() -> f64 {
    let t0 = Instant::now();
    let mut rng = SplitMix::new(42, 0);
    let mut heap = BinaryHeap::new();
    let mut bufs: VecDeque<Vec<u8>> = VecDeque::new();
    let mut h = Fnv::default();
    for i in 0..20_000u64 {
        heap.push(Reverse((rng.next_u64() % 1_000_000, i)));
        if heap.len() > 256 {
            if let Some(Reverse((t, _))) = heap.pop() {
                h.write(&t.to_le_bytes());
            }
        }
        let mut buf = vec![0u8; 64 + (rng.next_u64() % 1400) as usize];
        buf[0] = i as u8;
        bufs.push_back(buf);
        if bufs.len() > 64 {
            if let Some(buf) = bufs.pop_front() {
                h.write(&buf[..16]);
            }
        }
    }
    std::hint::black_box(h);
    t0.elapsed().as_nanos() as f64
}

/// How much slower than calm the host runs now: the median of `passes`
/// reference passes over [`CALM_PASS_NS`].
pub fn slowdown(passes: usize) -> f64 {
    let mut v: Vec<f64> = (0..passes).map(|_| pass_ns()).collect();
    median(&mut v) / CALM_PASS_NS
}
