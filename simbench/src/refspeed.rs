//! Machine-speed reference: a fixed piece of CPU and memory work that
//! uses none of the program's code, timed right before every pass and
//! every set-up.
//!
//! The machines this benchmark runs on change speed by up to 2x over
//! stretches of seconds to minutes, and a run spends its whole length in
//! one such stretch. The reference work slows down with the machine, so
//! scaling a wall time by `NOMINAL_S / measured` gives the time the same
//! work would have taken at the reference speed. Both the raw and the
//! scaled figures are reported.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Wall seconds of [`measure`]'s work at the reference speed, about its
/// median on the 2-core x86-64 container the benchmark was tuned on.
/// Fixed for good: changing it rescales every reported rate.
pub const NOMINAL_S: f64 = 0.05;

/// The machine's speed now relative to the reference: multiply a wall
/// time by it to get the time at the reference speed.
pub fn speed() -> f64 {
    NOMINAL_S / measure()
}

/// A random cyclic permutation of 2^20 entries (4 MiB, past L2).
fn chain() -> &'static [u32] {
    static CHAIN: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let n = 1usize << 20;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; n];
        for w in 0..n {
            next[order[w] as usize] = order[(w + 1) % n];
        }
        next
    })
}

/// Runs the reference work once and returns its wall seconds: dependent
/// loads through a 4 MiB chain, integer hashing, and small allocations.
pub fn measure() -> f64 {
    let next = chain();
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..400_000 {
        at = next[at as usize];
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ u64::from(at);
    for i in 0..4_000_000u64 {
        h = (h ^ i).wrapping_mul(0x100_0000_01B3).rotate_left(5);
    }
    let mut kept = Vec::with_capacity(64);
    for i in 0..40_000u64 {
        let b = Box::new([i; 8]);
        if i % 512 == 0 {
            kept.push(b);
        } else {
            black_box(&b);
        }
    }
    black_box((h, kept));
    t.elapsed().as_secs_f64()
}
