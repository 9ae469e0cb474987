//! A host-speed yardstick, independent of the simulator's code.
//!
//! The host's per-core throughput drifts by 20–40% from minute to minute
//! (other tenants share its cores and caches), and the simulator's own
//! speed drifts with it. A short, fixed, core-bound loop timed right
//! before and after a measured region tracks that drift; a time
//! multiplied by the loop's speed relative to [`REFERENCE_SPINS_PER_S`]
//! is the time the region would take at the reference speed. The loop
//! runs on as many threads as the measured work keeps busy: the host
//! sometimes places both vCPUs on one core's hyperthreads, which slows
//! two busy threads by about 30% and leaves one thread alone as fast.

use std::hint::black_box;
use std::time::Instant;

/// The unit scale of every speed-normalized figure: the loop's rate on a
/// reference host, in iterations per second (README.md, "Host noise").
pub const REFERENCE_SPINS_PER_S: f64 = 8e8;
/// Iterations per reading: about 5 ms.
const SPINS: u64 = 4_000_000;

/// The host's current speed relative to the reference.
pub fn host_speed() -> f64 {
    spin()
}

/// As [`host_speed`], with every core spinning at once: the speed of
/// work that keeps two threads busy (server and client), which a core's
/// hyperthread sibling slows.
pub fn host_speed_all() -> f64 {
    std::thread::scope(|s| {
        let other = s.spawn(spin);
        (spin() + other.join().expect("spin thread")) / 2.0
    })
}

fn spin() -> f64 {
    let start = Instant::now();
    let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
    for i in 0..SPINS {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b ^= a >> 7;
        c = c.wrapping_add(b.rotate_left(13));
    }
    black_box((a, b, c));
    SPINS as f64 / start.elapsed().as_secs_f64() / REFERENCE_SPINS_PER_S
}
