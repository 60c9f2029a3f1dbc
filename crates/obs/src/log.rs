//! Minimal leveled logging to stderr, gated by a global level.
//!
//! Pipeline crates log through the [`crate::error!`] … [`crate::trace!`]
//! macros; the CLI sets the threshold from `--log-level`. The default
//! level is [`Level::Off`], so an uninstrumented run prints nothing and
//! each disabled call site pays one atomic load.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

static LOG_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Log severity threshold, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No logging at all (the default).
    Off = 0,
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Degraded but recovered conditions (e.g. retried fetches).
    Warn = 2,
    /// Stage-level progress.
    Info = 3,
    /// Per-item detail.
    Debug = 4,
    /// Everything, including hot-loop detail.
    Trace = 5,
}

impl Level {
    /// Fixed-width lowercase label used in log line prefixes.
    pub fn label(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(value: u8) -> Level {
        match value {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => Level::Off,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(Level::Off),
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level `{other}` (use off|error|warn|info|debug|trace)"
            )),
        }
    }
}

/// Set the global log threshold; messages above it are dropped.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::SeqCst);
}

/// The current global log threshold.
pub fn log_level() -> Level {
    Level::from_u8(LOG_LEVEL.load(Ordering::Relaxed))
}

/// Whether a message at `level` would be emitted right now.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && level as u8 <= LOG_LEVEL.load(Ordering::Relaxed)
}

/// Emit a formatted line to stderr with an elapsed-time/level prefix.
/// Callers go through the level macros, which check [`log_enabled`] first.
pub fn log_at(level: Level, args: fmt::Arguments<'_>) {
    eprintln!(
        "[{:>10.3}ms {:>5}] {}",
        crate::now_micros() as f64 / 1000.0,
        level.label(),
        args
    );
}

/// Log at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Error) {
            $crate::log_at($crate::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Warn) {
            $crate::log_at($crate::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Info) {
            $crate::log_at($crate::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Debug) {
            $crate::log_at($crate::Level::Debug, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Trace) {
            $crate::log_at($crate::Level::Trace, format_args!($($arg)*));
        }
    };
}
