//! A yardstick for the host's speed. The VM this benchmark was tuned on
//! slows down and speeds up by half or more for minutes at a time, as
//! other tenants load the machine, and the pipeline's memory-bound work
//! moves the most. A slice of fixed work that never changes with the
//! program is run between the stages of every set-up and pass, outside
//! their timers, so the slices sample the host while the stages run. The
//! time of a set-up or pass is then scaled by how much slower than
//! [`REFERENCE_SLICE_S`] its slices ran on average (see `Stopwatch` in
//! `main.rs`).
//!
//! One slice mixes what the pipeline does: about a quarter of its time is
//! integer arithmetic, the rest a pointer chase over a 32 MiB table,
//! short-lived small allocations, a hash map of formatted strings and a
//! string sort. Over forty passes of `repro_full`, the log of the pass
//! time moved with the log of a mix in these proportions at a correlation
//! of 0.8 and a slope of 0.9; arithmetic alone moved a third as much as
//! the passes did, and the memory-bound parts alone about twice as much.
//! All of it is deterministic, hashing included.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Time of one slice between the stages of a pass on the machine the
/// benchmark was tuned on (a 2-vCPU Xeon VM) in its fast minutes. Scaled
/// times read as seconds at that speed.
pub const REFERENCE_SLICE_S: f64 = 0.014;

/// Entries of the pointer-chase table (4 bytes each).
const CHASE_LEN: usize = 8 << 20;

thread_local! {
    /// The pointer-chase table: a single cycle through every index, in
    /// shuffled order.
    static CHASE: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn chase_table() -> Vec<u32> {
    let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..CHASE_LEN).rev() {
        x = xorshift(x);
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; CHASE_LEN];
    for (i, &at) in order.iter().enumerate() {
        next[at as usize] = order[(i + 1) % CHASE_LEN];
    }
    next
}

/// Runs one slice and returns its wall time in seconds. The first call
/// builds the chase table, untimed.
pub fn slice() -> f64 {
    CHASE.with(|chase| {
        let mut chase = chase.borrow_mut();
        if chase.is_empty() {
            *chase = chase_table();
        }
        let start = Instant::now();
        work(&chase);
        start.elapsed().as_secs_f64()
    })
}

fn work(chase: &[u32]) {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..1_500_000 {
        x = xorshift(x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(x);

    let mut at = 0u32;
    for _ in 0..20_000 {
        at = chase[at as usize];
    }
    black_box(at);

    let mut live: Vec<Vec<u32>> = Vec::new();
    for i in 0..30_000u32 {
        live.push(vec![i; 1 + i as usize % 13]);
        if live.len() > 20_000 {
            live.clear();
        }
    }
    black_box(&live);
    drop(live);

    let mut map: HashMap<u64, String, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 7u64;
    for _ in 0..8_000 {
        x = xorshift(x);
        map.insert(x % 100_000, format!("pkg-{x:x}"));
    }
    let found: usize = (0..8_000u64)
        .filter_map(|k| map.get(&(k * 12)))
        .map(String::len)
        .sum();
    black_box(found);
    drop(map);

    let mut x = 3u64;
    let mut names: Vec<String> = (0..10_000)
        .map(|_| {
            x = xorshift(x);
            format!("{x:016x}")
        })
        .collect();
    names.sort_unstable();
    black_box(&names);
}
