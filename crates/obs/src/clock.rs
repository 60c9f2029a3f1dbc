//! Pluggable time source for spans.
//!
//! Production uses [`RealClock`] (monotonic, relative to the instant the
//! clock was constructed); tests use [`FakeClock`] so span timestamps and
//! durations are fully deterministic and export golden tests can pin
//! exact byte-for-byte output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond counter. Implementations must be cheap: the
/// registry calls [`Clock::micros`] twice per span.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since this clock's epoch.
    fn micros(&self) -> u64;
}

/// Wall-clock time relative to the clock's construction instant.
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is "now".
    pub fn new() -> RealClock {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> RealClock {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A manually-advanced clock for deterministic tests.
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    /// A fake clock starting at zero microseconds.
    pub fn new() -> FakeClock {
        FakeClock {
            now: AtomicU64::new(0),
        }
    }

    /// Jump the clock to an absolute microsecond value.
    pub fn set_micros(&self, micros: u64) {
        self.now.store(micros, Ordering::SeqCst);
    }

    /// Advance the clock by a relative number of microseconds.
    pub fn advance_micros(&self, micros: u64) {
        self.now.fetch_add(micros, Ordering::SeqCst);
    }
}

impl Default for FakeClock {
    fn default() -> FakeClock {
        FakeClock::new()
    }
}

impl Clock for FakeClock {
    fn micros(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}
