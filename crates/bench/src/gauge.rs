//! A gauge of the host's speed for timing gates that compare two
//! processes.
//!
//! On a shared host the speed one process gets for a tight loop swings
//! by tens of percent from one run to the next: the core's clock follows
//! the load on the rest of the machine, and so does the share of the core
//! the process gets. Two processes' raw timings of the same code can
//! therefore not be held to a tolerance of a few percent. The gauge is a
//! fixed, flag-free reference loop owned by the benchmark and never
//! changed, with the instruction mix of the code it gauges; [`gauged`]
//! reads it right before every probe of the code under test and reports
//! the fastest probe over the fastest gauge reading. A slower or busier
//! host slows the reference loop as it slows the probe, so the ratio
//! holds still across processes, while a change to the probed code moves
//! the probe and not the gauge.

use std::hint::black_box;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::time::Instant;

/// Reference-loop iterations per reading: about as long as one probe.
const ITERS: u64 = 2_000;

/// The reference loop's private word, read the way an instrumentation
/// site reads its flag word: bit 4 says "initialized", bits 1 and 2
/// stay clear.
static WORD: AtomicU8 = AtomicU8::new(4);

#[inline]
fn word() -> u8 {
    let w = WORD.load(Relaxed);
    if w & 4 != 0 {
        w
    } else {
        cold_word()
    }
}

#[cold]
fn cold_word() -> u8 {
    black_box(4)
}

/// A scope guard laid out like a span: an inline check on drop, the
/// rest out of line.
struct Guard {
    name: &'static str,
    flags: u8,
    start: Option<Instant>,
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record(self.name, self.flags, start);
        }
    }
}

#[cold]
#[inline(never)]
fn record(name: &'static str, flags: u8, start: Instant) {
    black_box((name, flags, start));
}

/// The reference loop: a fixed pass shaped like the disabled path of
/// three instrumentation sites — a scope guard and two more checks of a
/// word — over its own word, with no telemetry flag in it. Same
/// instruction mix, so contention from the rest of the host slows it as
/// it slows the probe. Returns ns per iteration.
fn reading_ns() -> f64 {
    let t = Instant::now();
    for i in 0..ITERS {
        let flags = word() & 3;
        let _guard = Guard {
            name: "gauge",
            flags,
            start: (flags != 0).then(Instant::now),
        };
        if word() & 1 != 0 {
            black_box(i + 1);
        }
        black_box(word() & 2 != 0);
        black_box(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

/// A probe's timing scaled by the gauge.
#[derive(Clone, Copy, Debug)]
pub struct Gauged {
    /// The fastest probe reading (ns per unit of work).
    pub probe_ns: f64,
    /// The fastest gauge reading (ns per reference iteration).
    pub gauge_ns: f64,
    /// `probe_ns / gauge_ns`: host-speed independent, so comparable
    /// across processes.
    pub ratio: f64,
}

/// Runs `pairs` gauge-then-probe pairs, `probe` returning its own
/// timing in ns per unit of work. One unrecorded pair warms both loops.
/// Interference only ever adds time, so each side keeps its fastest
/// reading; interleaving lets both sample the same spells of the host.
///
/// # Panics
/// Panics if `pairs == 0`.
pub fn gauged(pairs: usize, mut probe: impl FnMut() -> f64) -> Gauged {
    assert!(pairs > 0, "a gauged timing needs at least one pair");
    // An opaque store keeps the compiler from folding the word's reads.
    WORD.store(black_box(4), Relaxed);
    reading_ns();
    probe();
    let (mut probe_ns, mut gauge_ns) = (f64::INFINITY, f64::INFINITY);
    for pair in 0..pairs {
        // Alternate which side runs first, so neither always follows the
        // other into a change of the host's state.
        if pair % 2 == 0 {
            gauge_ns = gauge_ns.min(reading_ns());
            probe_ns = probe_ns.min(probe());
        } else {
            probe_ns = probe_ns.min(probe());
            gauge_ns = gauge_ns.min(reading_ns());
        }
    }
    Gauged {
        probe_ns,
        gauge_ns,
        ratio: probe_ns / gauge_ns,
    }
}
