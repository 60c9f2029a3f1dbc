//! The collection pipeline: from scattered online sources to one corpus.
//!
//! Implements the paper's data-collection methodology (§II) against the
//! simulated world:
//!
//! * [`html`] — a forgiving HTML parser (the BeautifulSoup role);
//! * [`extract`] — keyword filtering and `name@version` extraction from
//!   report pages;
//! * [`sources`] — adapters for the three publication styles (dataset
//!   dumps, advisory pages, SNS feeds), rendering and re-parsing each;
//! * [`recover`] — mirror-registry search for removed packages;
//! * [`transport`] — the unreliable-transport layer: every simulated
//!   fetch passes through a seeded fault plan (transient errors,
//!   timeouts, truncated/corrupted payloads, permanent 404s) with
//!   bounded deterministic retry/backoff and per-source health
//!   telemetry;
//! * [`dataset`] — the merged [`dataset::CollectedDataset`], the sole
//!   input of the MALGRAPH builder; [`collect`] is the zero-fault fast
//!   path, [`collect_with`] the resilient collector;
//! * [`export`] — corpus serialization (the paper's dataset-transparency
//!   website: names + signatures public, archives on request);
//! * [`windows`] — windowed collection: one deterministic crawl
//!   partitioned into [`CorpusDelta`]s by a `registry_sim::WindowPlan`,
//!   feeding the incremental graph builder.
//!
//! # Examples
//!
//! ```
//! use crawler::collect;
//! use registry_sim::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig::small(1));
//! let corpus = collect(&world);
//! assert!(!corpus.packages.is_empty());
//! let available = corpus.packages.iter().filter(|p| p.is_available()).count();
//! assert!(available > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod export;
pub mod extract;
pub mod html;
#[cfg(test)]
mod page_reference;
pub mod recover;
pub mod registry;
pub mod sources;
pub mod transport;
pub mod windows;

pub use dataset::{
    collect, collect_with, CollectOptions, CollectedDataset, CollectedPackage, CollectedReport,
};
pub use export::{
    dataset_from_value, dataset_value, delta_from_value, delta_value, export_delta_json,
    export_json, import_delta_json, import_json, ExportFidelity,
};
pub use registry::{IndexedRegistry, RegistryMeta, RegistryView};
pub use sources::{Archive, RawMention};
pub use transport::{CollectionHealth, FetchHealth, FetchOutcome, Transport};
pub use windows::{collect_windows, partition_windows, resume_windows, union_dataset, CorpusDelta};
