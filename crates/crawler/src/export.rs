//! Corpus export/import — the paper's dataset-transparency commitment.
//!
//! §II-D: "We build a website to publish all malicious package names
//! (sources) with their signatures (e.g., MD5 hashes) … so the researcher
//! can identify which package to use in the dataset." This module
//! serializes a [`CollectedDataset`] in two fidelities:
//!
//! * [`ExportFidelity::ManifestOnly`] — names, versions, sources,
//!   disclosure dates and signatures, exactly what the paper's website
//!   publishes (archives are withheld);
//! * [`ExportFidelity::Full`] — additionally the recovered archives, the
//!   form a cooperating lab would exchange.
//!
//! Serialization is split into *value* builders/readers
//! ([`dataset_value`] / [`dataset_from_value`], and the
//! [`CorpusDelta`] pair [`delta_value`] / [`delta_from_value`] used by
//! the checkpoint write-ahead journal) and thin string wrappers, so the
//! checkpoint layer can embed a corpus inside a larger snapshot document
//! without re-rendering or re-parsing the JSON text.

use crate::dataset::{CollectedDataset, CollectedPackage, CollectedReport};
use crate::registry::RegistryMeta;
use crate::sources::Archive;
use crate::transport::{CollectionHealth, FetchHealth};
use crate::windows::CorpusDelta;
use oss_types::{PackageId, Sha256, SimTime, SourceId};
use registry_sim::ReportCategory;
use std::collections::HashSet;
use std::fmt;

/// How much of the corpus to export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFidelity {
    /// Names, sources and signatures only (the public website form).
    ManifestOnly,
    /// Everything, including archives.
    Full,
}

/// An import/export failure.
#[derive(Debug)]
pub struct ExportError {
    message: String,
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corpus export error: {}", self.message)
    }
}

impl std::error::Error for ExportError {}

/// Slug used for a [`ReportCategory`] in manifests (stable across
/// renames of the Rust variant).
fn category_slug(category: ReportCategory) -> &'static str {
    match category {
        ReportCategory::TechnicalCommunity => "technical-community",
        ReportCategory::Commercial => "commercial",
        ReportCategory::News => "news",
        ReportCategory::Individual => "individual",
        ReportCategory::Official => "official",
        ReportCategory::Other => "other",
    }
}

fn parse_category(slug: &str) -> Option<ReportCategory> {
    ReportCategory::ALL
        .into_iter()
        .find(|c| category_slug(*c) == slug)
}

fn time_value(t: SimTime) -> jsonio::Value {
    jsonio::Value::from(t.as_minutes())
}

fn opt_time_value(t: Option<SimTime>) -> jsonio::Value {
    t.map(time_value).unwrap_or(jsonio::Value::Null)
}

fn archive_value(archive: &Archive) -> jsonio::Value {
    jsonio::object! {
        "description": archive.description.as_str(),
        "dependencies": archive
            .dependencies
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>(),
        "code": archive.code.as_str(),
    }
}

/// Builds the manifest entry of one collected package.
fn package_value(p: &CollectedPackage, fidelity: ExportFidelity) -> jsonio::Value {
    let mentions: Vec<jsonio::Value> = p
        .mentions
        .iter()
        .map(|(source, at)| jsonio::Value::Array(vec![source.slug().into(), time_value(*at)]))
        .collect();
    let jsonio::Value::Object(mut members) = (jsonio::object! {
        "id": p.id.to_string(),
        "mentions": mentions,
        "sha256": p.signature.map(|s| s.to_string()),
        "recovered_from_mirror": p.recovered_from_mirror,
        "mirror_recoverable": p.mirror_recoverable,
        "meta": p.meta.map(|m| jsonio::object! {
            "released": time_value(m.released),
            "removed": opt_time_value(m.removed),
            "downloads": m.downloads,
        }),
    }) else {
        unreachable!("object! builds an object");
    };
    // Archives are withheld entirely in manifest-only exports:
    // the key itself is absent, not null.
    if fidelity == ExportFidelity::Full {
        if let Some(archive) = &p.archive {
            members.push(("archive".to_string(), archive_value(archive)));
        }
    }
    jsonio::Value::Object(members)
}

/// Builds the manifest entry of one collected report.
fn report_value(r: &CollectedReport) -> jsonio::Value {
    jsonio::object! {
        "website": r.website.as_str(),
        "category": category_slug(r.category),
        "published": opt_time_value(r.published),
        "title": r.title.as_str(),
        "packages": r.packages.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
        "actor": r.actor.clone(),
    }
}

/// Builds the manifest document of a corpus as a [`jsonio::Value`] —
/// the embeddable form of [`export_json`].
pub fn dataset_value(dataset: &CollectedDataset, fidelity: ExportFidelity) -> jsonio::Value {
    let packages: Vec<jsonio::Value> = dataset
        .packages
        .iter()
        .map(|p| package_value(p, fidelity))
        .collect();
    let reports: Vec<jsonio::Value> = dataset.reports.iter().map(report_value).collect();
    let jsonio::Value::Object(mut manifest) = (jsonio::object! {
        "format_version": 1u32,
        "collect_time": time_value(dataset.collect_time),
        "website_count": dataset.website_count,
        "packages": packages,
        "reports": reports,
    }) else {
        unreachable!("object! builds an object");
    };
    // The health key is only present for resilient-collector corpora;
    // its absence marks a fault-free legacy manifest.
    if let Some(health) = &dataset.health {
        manifest.push(("health".to_string(), health_value(health)));
    }
    jsonio::Value::Object(manifest)
}

/// Serializes the corpus as pretty-printed JSON.
///
/// # Errors
///
/// Returns [`ExportError`] if serialization fails (it cannot for
/// well-formed corpora; the error path exists for API honesty).
pub fn export_json(
    dataset: &CollectedDataset,
    fidelity: ExportFidelity,
) -> Result<String, ExportError> {
    Ok(dataset_value(dataset, fidelity).to_pretty())
}

/// Deserializes a corpus previously written by [`export_json`].
///
/// Signatures are re-verified against archives when both are present;
/// a mismatch is an error (a corrupted or tampered exchange).
///
/// # Errors
///
/// Returns [`ExportError`] on malformed JSON, unknown format versions,
/// unparseable identities or signature mismatches.
pub fn import_json(json: &str) -> Result<CollectedDataset, ExportError> {
    let root = jsonio::Value::parse(json).map_err(|e| ExportError {
        message: format!("malformed manifest: {e}"),
    })?;
    dataset_from_value(&root)
}

/// Reads a document's `packages` array. A package id may appear only
/// once: the graph has one primary node per id and the similarity memo
/// keys on it, so a repeated record (which, with `"sha256": null`, can
/// even carry different code) is rejected here rather than left to
/// corrupt the build.
fn read_packages(root: &jsonio::Value) -> Result<Vec<CollectedPackage>, ExportError> {
    let entries = require(root, "packages")?
        .as_array()
        .ok_or_else(|| bad_field("packages"))?;
    let mut packages = Vec::with_capacity(entries.len());
    let mut seen: HashSet<PackageId> = HashSet::with_capacity(entries.len());
    for entry in entries {
        let package = read_package(entry)?;
        if !seen.insert(package.id.clone()) {
            return Err(ExportError {
                message: format!("malformed manifest: package {} appears twice", package.id),
            });
        }
        packages.push(package);
    }
    Ok(packages)
}

/// Reads one package entry of a manifest, re-verifying its signature
/// against the archive when both are present.
fn read_package(entry: &jsonio::Value) -> Result<CollectedPackage, ExportError> {
    let raw_id = require(entry, "id")?
        .as_str()
        .ok_or_else(|| bad_field("id"))?;
    let id: PackageId = raw_id.parse().map_err(|e| ExportError {
        message: format!("bad package id {raw_id:?}: {e}"),
    })?;
    let mut mentions = Vec::new();
    for pair in require(entry, "mentions")?
        .as_array()
        .ok_or_else(|| bad_field("mentions"))?
    {
        let items = pair.as_array().ok_or_else(|| bad_field("mentions"))?;
        let (Some(source), Some(at)) = (items.first(), items.get(1)) else {
            return Err(bad_field("mentions"));
        };
        let source: SourceId = source
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_field("mentions"))?;
        let at = read_time(at).ok_or_else(|| bad_field("mentions"))?;
        mentions.push((source, at));
    }
    let signature = match require(entry, "sha256")? {
        jsonio::Value::Null => None,
        value => Some(parse_sha256(
            value.as_str().ok_or_else(|| bad_field("sha256"))?,
        )?),
    };
    let archive = match entry.get("archive") {
        None | Some(jsonio::Value::Null) => None,
        Some(value) => Some(read_archive(value)?),
    };
    if let (Some(signature), Some(archive)) = (signature, &archive) {
        let recomputed = registry_sim::campaign::artifact_signature(
            &id,
            &archive.description,
            &archive.dependencies,
            &archive.code,
        );
        if recomputed != signature {
            return Err(ExportError {
                message: format!("signature mismatch for {id}"),
            });
        }
    }
    let meta = match require(entry, "meta")? {
        jsonio::Value::Null => None,
        value => Some(RegistryMeta {
            released: read_time(require(value, "released")?)
                .ok_or_else(|| bad_field("meta.released"))?,
            removed: match require(value, "removed")? {
                jsonio::Value::Null => None,
                at => Some(read_time(at).ok_or_else(|| bad_field("meta.removed"))?),
            },
            downloads: require(value, "downloads")?
                .as_u64()
                .ok_or_else(|| bad_field("meta.downloads"))?,
        }),
    };
    Ok(CollectedPackage {
        id,
        mentions,
        archive,
        signature,
        recovered_from_mirror: require(entry, "recovered_from_mirror")?
            .as_bool()
            .ok_or_else(|| bad_field("recovered_from_mirror"))?,
        mirror_recoverable: require(entry, "mirror_recoverable")?
            .as_bool()
            .ok_or_else(|| bad_field("mirror_recoverable"))?,
        meta,
    })
}

/// Reads one report entry of a manifest.
fn read_report(entry: &jsonio::Value) -> Result<CollectedReport, ExportError> {
    let mut ids = Vec::new();
    for raw in require(entry, "packages")?
        .as_array()
        .ok_or_else(|| bad_field("report packages"))?
    {
        let raw = raw.as_str().ok_or_else(|| bad_field("report packages"))?;
        ids.push(raw.parse().map_err(|e| ExportError {
            message: format!("bad report package id {raw:?}: {e}"),
        })?);
    }
    Ok(CollectedReport {
        website: require(entry, "website")?
            .as_str()
            .ok_or_else(|| bad_field("website"))?
            .to_string(),
        category: require(entry, "category")?
            .as_str()
            .and_then(parse_category)
            .ok_or_else(|| bad_field("category"))?,
        published: match require(entry, "published")? {
            jsonio::Value::Null => None,
            at => Some(read_time(at).ok_or_else(|| bad_field("published"))?),
        },
        title: require(entry, "title")?
            .as_str()
            .ok_or_else(|| bad_field("title"))?
            .to_string(),
        packages: ids,
        actor: match require(entry, "actor")? {
            jsonio::Value::Null => None,
            value => Some(
                value
                    .as_str()
                    .ok_or_else(|| bad_field("actor"))?
                    .to_string(),
            ),
        },
    })
}

/// Reads a corpus manifest already parsed into a [`jsonio::Value`] —
/// the embeddable form of [`import_json`].
///
/// # Errors
///
/// Returns [`ExportError`] on unknown format versions, unparseable
/// identities or signature mismatches.
pub fn dataset_from_value(root: &jsonio::Value) -> Result<CollectedDataset, ExportError> {
    let format_version = require(root, "format_version")?
        .as_u64()
        .ok_or_else(|| bad_field("format_version"))?;
    if format_version != 1 {
        return Err(ExportError {
            message: format!("unsupported format version {format_version}"),
        });
    }
    let collect_time =
        read_time(require(root, "collect_time")?).ok_or_else(|| bad_field("collect_time"))?;
    let website_count = require(root, "website_count")?
        .as_u64()
        .ok_or_else(|| bad_field("website_count"))? as usize;

    let packages = read_packages(root)?;
    let report_entries = require(root, "reports")?
        .as_array()
        .ok_or_else(|| bad_field("reports"))?;
    let mut reports = Vec::with_capacity(report_entries.len());
    for entry in report_entries {
        reports.push(read_report(entry)?);
    }
    let health = match root.get("health") {
        None | Some(jsonio::Value::Null) => None,
        Some(value) => Some(read_health(value)?),
    };
    Ok(CollectedDataset {
        packages,
        reports,
        website_count,
        collect_time,
        health,
    })
}

/// Builds the write-ahead-journal document of one collection window.
/// Deltas are always serialized at full fidelity: the journal must be
/// lossless or replay could not reproduce the uninterrupted corpus.
pub fn delta_value(delta: &CorpusDelta) -> jsonio::Value {
    jsonio::object! {
        "format_version": 1u32,
        "window": delta.window as u64,
        "start": time_value(delta.start),
        "end": time_value(delta.end),
        "website_count": delta.website_count,
        "collect_time": time_value(delta.collect_time),
        "packages": delta
            .packages
            .iter()
            .map(|p| package_value(p, ExportFidelity::Full))
            .collect::<Vec<_>>(),
        "reports": delta.reports.iter().map(report_value).collect::<Vec<_>>(),
    }
}

/// Reads a journal document back into a [`CorpusDelta`].
///
/// # Errors
///
/// Returns [`ExportError`] on unknown format versions or any malformed
/// field, exactly like [`dataset_from_value`].
pub fn delta_from_value(root: &jsonio::Value) -> Result<CorpusDelta, ExportError> {
    let format_version = require(root, "format_version")?
        .as_u64()
        .ok_or_else(|| bad_field("format_version"))?;
    if format_version != 1 {
        return Err(ExportError {
            message: format!("unsupported delta format version {format_version}"),
        });
    }
    let packages = read_packages(root)?;
    let mut reports = Vec::new();
    for entry in require(root, "reports")?
        .as_array()
        .ok_or_else(|| bad_field("reports"))?
    {
        reports.push(read_report(entry)?);
    }
    Ok(CorpusDelta {
        window: require(root, "window")?
            .as_u64()
            .ok_or_else(|| bad_field("window"))? as usize,
        start: read_time(require(root, "start")?).ok_or_else(|| bad_field("start"))?,
        end: read_time(require(root, "end")?).ok_or_else(|| bad_field("end"))?,
        packages,
        reports,
        website_count: require(root, "website_count")?
            .as_u64()
            .ok_or_else(|| bad_field("website_count"))? as usize,
        collect_time: read_time(require(root, "collect_time")?)
            .ok_or_else(|| bad_field("collect_time"))?,
    })
}

/// Serializes one window delta as pretty-printed JSON (full fidelity).
pub fn export_delta_json(delta: &CorpusDelta) -> String {
    delta_value(delta).to_pretty()
}

/// Deserializes a delta previously written by [`export_delta_json`].
///
/// # Errors
///
/// Returns [`ExportError`] on malformed JSON or any malformed field.
pub fn import_delta_json(json: &str) -> Result<CorpusDelta, ExportError> {
    let root = jsonio::Value::parse(json).map_err(|e| ExportError {
        message: format!("malformed delta: {e}"),
    })?;
    delta_from_value(&root)
}

fn fetch_health_value(health: &FetchHealth) -> jsonio::Value {
    jsonio::object! {
        "attempts": health.attempts,
        "retries": health.retries,
        "recovered": health.recovered,
        "delivered": health.delivered,
        "dropped": health.dropped,
        "backoff_ms": health.backoff_ms,
    }
}

fn health_value(health: &CollectionHealth) -> jsonio::Value {
    let sources: Vec<jsonio::Value> = health
        .sources
        .iter()
        .map(|(source, h)| {
            let jsonio::Value::Object(mut members) = fetch_health_value(h) else {
                unreachable!("object! builds an object");
            };
            members.insert(0, ("source".to_string(), source.slug().into()));
            jsonio::Value::Object(members)
        })
        .collect();
    jsonio::object! {
        "sources": sources,
        "mirror": fetch_health_value(&health.mirror),
        "report_corpus": fetch_health_value(&health.report_corpus),
    }
}

fn read_fetch_health(value: &jsonio::Value) -> Result<FetchHealth, ExportError> {
    let field = |key: &str| -> Result<u64, ExportError> {
        require(value, key)?
            .as_u64()
            .ok_or_else(|| bad_field("health counter"))
    };
    Ok(FetchHealth {
        attempts: field("attempts")?,
        retries: field("retries")?,
        recovered: field("recovered")?,
        delivered: field("delivered")?,
        dropped: field("dropped")?,
        backoff_ms: field("backoff_ms")?,
    })
}

fn read_health(value: &jsonio::Value) -> Result<CollectionHealth, ExportError> {
    let mut health = CollectionHealth::new();
    for row in require(value, "sources")?
        .as_array()
        .ok_or_else(|| bad_field("health.sources"))?
    {
        let source: SourceId = require(row, "source")?
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_field("health.sources.source"))?;
        *health.source_mut(source) = read_fetch_health(row)?;
    }
    health.mirror = read_fetch_health(require(value, "mirror")?)?;
    health.report_corpus = read_fetch_health(require(value, "report_corpus")?)?;
    Ok(health)
}

fn require<'v>(value: &'v jsonio::Value, key: &str) -> Result<&'v jsonio::Value, ExportError> {
    value.get(key).ok_or_else(|| ExportError {
        message: format!("malformed manifest: missing field {key:?}"),
    })
}

fn bad_field(name: &str) -> ExportError {
    ExportError {
        message: format!("malformed manifest: invalid field {name:?}"),
    }
}

fn read_time(value: &jsonio::Value) -> Option<SimTime> {
    value.as_u64().map(SimTime::from_minutes)
}

fn read_archive(value: &jsonio::Value) -> Result<Archive, ExportError> {
    let mut dependencies = Vec::new();
    for dep in require(value, "dependencies")?
        .as_array()
        .ok_or_else(|| bad_field("archive.dependencies"))?
    {
        let raw = dep
            .as_str()
            .ok_or_else(|| bad_field("archive.dependencies"))?;
        dependencies.push(raw.parse().map_err(|_| bad_field("archive.dependencies"))?);
    }
    Ok(Archive {
        description: require(value, "description")?
            .as_str()
            .ok_or_else(|| bad_field("archive.description"))?
            .to_string(),
        code: require(value, "code")?
            .as_str()
            .ok_or_else(|| bad_field("archive.code"))?
            .to_string(),
        dependencies,
    })
}

fn parse_sha256(hex: &str) -> Result<Sha256, ExportError> {
    if hex.len() != 64 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(ExportError {
            message: format!("bad sha256 {hex:?}"),
        });
    }
    let mut bytes = [0u8; 32];
    for (i, byte) in bytes.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16).map_err(|_| ExportError {
            message: format!("bad sha256 {hex:?}"),
        })?;
    }
    Ok(Sha256::from_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect;
    use registry_sim::{World, WorldConfig};

    fn corpus() -> CollectedDataset {
        collect(&World::generate(WorldConfig::small(101)))
    }

    #[test]
    fn full_export_round_trips() {
        let original = corpus();
        let json = export_json(&original, ExportFidelity::Full).unwrap();
        let imported = import_json(&json).unwrap();
        assert_eq!(imported.packages.len(), original.packages.len());
        assert_eq!(imported.reports.len(), original.reports.len());
        assert_eq!(imported.collect_time, original.collect_time);
        for (a, b) in original.packages.iter().zip(&imported.packages) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.signature, b.signature);
            assert_eq!(a.mentions, b.mentions);
            assert_eq!(a.archive, b.archive);
        }
    }

    #[test]
    fn manifest_export_withholds_archives_but_keeps_signatures() {
        let original = corpus();
        let json = export_json(&original, ExportFidelity::ManifestOnly).unwrap();
        let imported = import_json(&json).unwrap();
        assert!(imported.packages.iter().all(|p| p.archive.is_none()));
        let with_sig = imported
            .packages
            .iter()
            .filter(|p| p.signature.is_some())
            .count();
        let orig_sig = original
            .packages
            .iter()
            .filter(|p| p.signature.is_some())
            .count();
        assert_eq!(with_sig, orig_sig, "signatures are the published part");
    }

    #[test]
    fn tampered_archives_are_rejected() {
        let original = corpus();
        let json = export_json(&original, ExportFidelity::Full).unwrap();
        // Corrupt the first inline code field.
        let tampered = json.replacen("\"code\": \"", "\"code\": \"#tampered\\n", 1);
        assert_ne!(json, tampered, "test must actually tamper");
        let err = import_json(&tampered).unwrap_err();
        assert!(err.to_string().contains("signature mismatch"), "{err}");
    }

    #[test]
    fn garbage_and_wrong_versions_are_rejected() {
        assert!(import_json("{").is_err());
        assert!(import_json("{\"format_version\": 99}").is_err());
        let bad_id = r#"{"format_version":1,"collect_time":0,"website_count":0,
            "packages":[{"id":"not-an-id","mentions":[],"sha256":null,
            "recovered_from_mirror":false,"mirror_recoverable":false,"meta":null}],
            "reports":[]}"#;
        assert!(import_json(bad_id).is_err());
    }

    #[test]
    fn repeated_package_ids_are_rejected() {
        let mut repeated = corpus();
        let copy = repeated
            .packages
            .iter()
            .find(|p| p.archive.is_some())
            .expect("corpus has an available package")
            .clone();
        let expected = format!("package {} appears twice", copy.id);
        repeated.packages.push(copy);
        for fidelity in [ExportFidelity::Full, ExportFidelity::ManifestOnly] {
            let json = export_json(&repeated, fidelity).unwrap();
            let err = import_json(&json).unwrap_err().to_string();
            assert!(err.contains(&expected), "{err}");
        }
        // The checkpoint journal's window documents share the reader.
        let delta = CorpusDelta {
            window: 0,
            start: SimTime::from_minutes(0),
            end: repeated.collect_time,
            packages: repeated.packages,
            reports: Vec::new(),
            website_count: 0,
            collect_time: repeated.collect_time,
        };
        let err = import_delta_json(&export_delta_json(&delta)).unwrap_err();
        assert!(err.to_string().contains(&expected), "{err}");
    }

    #[test]
    fn health_round_trips_and_legacy_manifests_have_none() {
        let world = World::generate(WorldConfig::small(101));
        // Legacy corpus: no health key in the manifest at all.
        let legacy = collect(&world);
        let json = export_json(&legacy, ExportFidelity::Full).unwrap();
        assert!(!json.contains("\"health\""));
        assert!(import_json(&json).unwrap().health.is_none());
        // Resilient corpus: health survives the round trip exactly.
        let faulty = crate::dataset::collect_with(
            &world,
            &crate::dataset::CollectOptions {
                faults: oss_types::FaultConfig::mixed(0.4),
                ..Default::default()
            },
        );
        let json = export_json(&faulty, ExportFidelity::ManifestOnly).unwrap();
        assert!(json.contains("\"health\""));
        let imported = import_json(&json).unwrap();
        assert_eq!(imported.health, faulty.health);
        assert!(imported.health.unwrap().total().dropped > 0);
    }

    #[test]
    fn reexport_is_byte_exact_including_health() {
        // export → import → export must reproduce the original document
        // byte for byte: every field (including the optional "health"
        // manifest key) survives in the same order, so re-exported
        // corpora diff cleanly against their source. (ISSUE 8 satellite.)
        let world = World::generate(WorldConfig::small(101));
        let clean = collect(&world);
        let faulty = crate::dataset::collect_with(
            &world,
            &crate::dataset::CollectOptions {
                faults: oss_types::FaultConfig::mixed(0.4),
                ..Default::default()
            },
        );
        assert!(
            faulty.health.is_some(),
            "fixture must exercise the health key"
        );
        for dataset in [&clean, &faulty] {
            for fidelity in [ExportFidelity::Full, ExportFidelity::ManifestOnly] {
                let first = export_json(dataset, fidelity).unwrap();
                let reexported = export_json(&import_json(&first).unwrap(), fidelity).unwrap();
                assert_eq!(
                    first,
                    reexported,
                    "re-export diverged (fidelity {fidelity:?}, health {})",
                    dataset.health.is_some()
                );
            }
        }
    }

    #[test]
    fn delta_journal_round_trips_exactly() {
        let world = World::generate(WorldConfig::small(101));
        let dataset = collect(&world);
        let plan = registry_sim::WindowPlan::disclosure_quantiles(&world, 3);
        for delta in crate::windows::partition_windows(&dataset, &plan) {
            let json = export_delta_json(&delta);
            let back = import_delta_json(&json).unwrap();
            assert_eq!(back.window, delta.window);
            assert_eq!(back.start, delta.start);
            assert_eq!(back.end, delta.end);
            assert_eq!(back.website_count, delta.website_count);
            assert_eq!(back.collect_time, delta.collect_time);
            assert_eq!(back.packages, delta.packages, "journal must be lossless");
            assert_eq!(back.reports, delta.reports);
            // Re-export is byte-exact, like the corpus manifest.
            assert_eq!(export_delta_json(&back), json);
        }
    }

    #[test]
    fn delta_import_rejects_garbage_and_wrong_versions() {
        assert!(import_delta_json("{").is_err());
        assert!(import_delta_json("{\"format_version\": 9}").is_err());
        assert!(import_delta_json(
            r#"{"format_version":1,"window":0,"start":0,"end":1,
                "website_count":0,"collect_time":1,"packages":"nope","reports":[]}"#
        )
        .is_err());
    }

    #[test]
    fn sha256_parsing() {
        let d = Sha256::digest(b"x");
        assert_eq!(parse_sha256(&d.to_string()).unwrap(), d);
        assert!(parse_sha256("abcd").is_err());
        assert!(parse_sha256(&"g".repeat(64)).is_err());
    }
}
