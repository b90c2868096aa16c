//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts, whose speed can drift by half or
//! more over tens of seconds, for any code, as other tenants come and go.
//! A pass is therefore bracketed by a calibration: fixed loops that share
//! no code with the program, run on every pool thread at once. The pass's
//! time is rescaled by how much slower than [`REFERENCE_NS`] the loops ran
//! around it. The rescaled times read as host times on a host as fast as
//! the reference one; a change to the program moves them, a change in host
//! load mostly does not.

use std::hint::black_box;
use std::time::Instant;

use crate::layers::ns_since;

/// Chunks each thread times of each kernel; the fastest counts.
const CHUNKS: usize = 12;

/// The reference speed, in nanoseconds per calibration: about the fastest
/// calibration seen in the seed-commit runs on the 2-vCPU 2.0 GHz Xeon
/// virtual machine the numbers in `README.md` come from.
pub const REFERENCE_NS: f64 = 4.6e5;

/// Table-driven integer work over a 32 KiB table with data-dependent
/// branches, as in the interpreter's dispatch.
fn table_walk() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut table = vec![0u64; 4096];
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 4095;
        table[j] = table[j].wrapping_add(i ^ x);
        if table[j] & 1 == 0 {
            x = x.wrapping_add(table[(j * 7) & 4095]);
        }
    }
    x ^ table[17]
}

/// Byte copies with a bit set per copied byte, as in the runtime's copies
/// into guest memory and the tag bitmap.
fn copy_and_mark() -> u64 {
    let src: Vec<u8> = (0..65_536u32).map(|i| (i * 31) as u8).collect();
    let mut dst = vec![0u8; src.len()];
    let mut bits = vec![0u8; src.len() / 8];
    for _ in 0..4 {
        for (i, (d, &s)) in dst.iter_mut().zip(&src).enumerate() {
            *d = black_box(s);
            if s & 3 == 0 {
                bits[i >> 3] |= 1 << (i & 7);
            }
        }
    }
    u64::from(dst[77]) ^ u64::from(bits[99])
}

/// Small allocations and number formatting, as in the fleet's reports and
/// trace exports.
fn format_and_drop() -> u64 {
    (0..100u64)
        .map(|i| {
            let items: Vec<String> =
                (0..64u64).map(|j| format!("{{\"k{j}\": {}}}", i * j)).collect();
            items.iter().map(|s| s.len() as u64).sum::<u64>()
        })
        .sum()
}

/// The fastest of [`CHUNKS`] timed runs of `kernel`, in nanoseconds.
fn fastest(kernel: fn() -> u64) -> f64 {
    (0..CHUNKS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            ns_since(t)
        })
        .min()
        .unwrap_or(0) as f64
}

/// The host's current speed, in nanoseconds per calibration: `threads`
/// threads time the kernels at once, and each thread's fastest chunk of
/// each kernel (which a momentary preemption cannot slow) enters one
/// geometric mean.
pub fn calibrate(threads: usize) -> f64 {
    let kernels: [fn() -> u64; 3] = [table_walk, copy_and_mark, format_and_drop];
    let logs: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| s.spawn(|| kernels.map(|kernel| fastest(kernel).ln())))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("a calibration thread panicked")).collect()
    });
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}
