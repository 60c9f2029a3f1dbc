//! Domain types shared by every crate in the MALGRAPH reproduction.
//!
//! The paper studies *malicious packages*: artifacts published to an
//! open-source software (OSS) registry that carry unauthorized behaviour.
//! This crate defines the vocabulary used throughout the workspace:
//!
//! * [`Ecosystem`] — the ten package registries covered by the corpus;
//! * [`PackageName`] / [`Version`] / [`PackageId`] — package identity;
//! * [`Sha256`] — artifact signatures (implemented from scratch, the
//!   stand-in for Python's `hashlib` in the paper's prototype);
//! * [`SimTime`] / [`SimDuration`] — simulated wall-clock time, so the whole
//!   study is deterministic and independent of the host clock;
//! * [`SourceId`] — the ten online sources malicious packages are
//!   collected from (Table I of the paper);
//! * [`ChangeOp`] — the five *changing operations* between consecutive
//!   release attempts of a campaign (Fig. 12): CN, CV, CD, CDep, CC;
//! * [`ActorId`] — an adversary identity used by the simulator and, where
//!   reports disclose it, by the analyses;
//! * [`FetchError`] / [`FaultConfig`] / [`RetryPolicy`] — the collection
//!   transport's fault model: failure categories, per-category rates and
//!   the bounded deterministic backoff schedule;
//! * [`CrashPlan`] / [`CrashSignal`] — deterministic simulated process
//!   deaths at named pipeline stage boundaries, for crash-recovery
//!   testing.
//!
//! # Examples
//!
//! ```
//! use oss_types::{Ecosystem, PackageId, PackageName, SimTime, Version};
//!
//! let name: PackageName = "loglib-modules".parse()?;
//! let version: Version = "1.0.3".parse()?;
//! let id = PackageId::new(Ecosystem::PyPI, name, version);
//! assert_eq!(id.to_string(), "pypi/loglib-modules@1.0.3");
//!
//! let t = SimTime::from_ymd(2023, 8, 9);
//! assert_eq!(t.year(), 2023);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// One `unsafe` call in the crate: `hash` runs its SHA-extensions kernel
// after detecting the CPU features it needs.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod crash;
pub mod ecosystem;
pub mod error;
pub mod fetch;
pub mod hash;
pub mod name;
pub mod ops;
pub mod package;
pub mod source;
pub mod time;

pub use actor::ActorId;
pub use crash::{CrashPlan, CrashSignal};
pub use ecosystem::Ecosystem;
pub use error::ParseError;
pub use fetch::{FaultConfig, FetchError, RetryPolicy};
pub use hash::Sha256;
pub use name::PackageName;
pub use ops::{ChangeOp, OpSet};
pub use package::{PackageId, Version};
pub use source::{SourceCategory, SourceId};
pub use time::{SimDuration, SimTime};
