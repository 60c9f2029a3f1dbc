//! Source adapters: how each of the ten online sources publishes, and how
//! the collector reads each format back.
//!
//! Three publication styles (paper §II):
//!
//! * **dataset dumps** (Maloss, Mal-PyPI, DataDog) — a JSON index plus
//!   archives; packages are directly available;
//! * **report pages** (Snyk.io, Phylum, …) — HTML advisories naming
//!   `name@version` but shipping no artifact;
//! * **SNS feeds** (the blog/Twitter aggregate) — short text lines.
//!
//! The adapters *render* the world's mentions into those formats and then
//! *parse them back*, so the collection pipeline exercises a real
//! extract-transform path rather than reading simulator structs.

use crate::{extract, html};
use oss_types::{PackageId, SimTime, SourceId};
use registry_sim::World;

/// An artifact recovered with full contents (from a dump or a mirror).
#[derive(Debug, Clone, PartialEq)]
pub struct Archive {
    /// Metadata description.
    pub description: String,
    /// Declared dependencies.
    pub dependencies: Vec<oss_types::PackageName>,
    /// Canonical source code.
    pub code: String,
}

/// One mention as the collector sees it after parsing a source's feed.
#[derive(Debug, Clone, PartialEq)]
pub struct RawMention {
    /// The source that named the package.
    pub source: SourceId,
    /// Parsed identity.
    pub id: PackageId,
    /// Disclosure instant (page byline / dump entry date).
    pub disclosed: SimTime,
    /// Full archive when the source ships one (dumps only).
    pub archive: Option<Archive>,
}

#[derive(Debug)]
struct DumpEntry {
    id: String,
    disclosed: String,
    description: String,
    dependencies: Vec<String>,
    code: String,
}

impl DumpEntry {
    fn to_json(&self) -> jsonio::Value {
        jsonio::object! {
            "id": self.id.as_str(),
            "disclosed": self.disclosed.as_str(),
            "description": self.description.as_str(),
            "dependencies": self.dependencies.clone(),
            "code": self.code.as_str(),
        }
    }

    fn from_json(value: &jsonio::Value) -> Option<DumpEntry> {
        let string = |key: &str| value.get(key)?.as_str().map(str::to_string);
        let dependencies = value
            .get("dependencies")?
            .as_array()?
            .iter()
            .map(|d| d.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()?;
        Some(DumpEntry {
            id: string("id")?,
            disclosed: string("disclosed")?,
            description: string("description")?,
            dependencies,
            code: string("code")?,
        })
    }
}

/// Renders one source's feed as raw documents: `(format, body)` pairs.
/// Dumps produce a single JSON body; report sources produce one HTML page
/// per mention (plus occasional decoy pages the keyword filter must
/// drop); SNS produces one text body.
pub fn render_feed(world: &World, source: SourceId) -> Vec<(FeedFormat, String)> {
    let mentions: Vec<&registry_sim::Mention> = world
        .mentions
        .iter()
        .filter(|m| m.source == source)
        .collect();
    match source.publication_style() {
        oss_types::source::PublicationStyle::DatasetDump => {
            let entries: Vec<DumpEntry> = mentions
                .iter()
                .map(|m| {
                    let p = world.package(m.package);
                    DumpEntry {
                        id: p.id.to_string(),
                        disclosed: format_date(m.disclosed),
                        description: p.description.clone(),
                        dependencies: p.dependencies.iter().map(|d| d.to_string()).collect(),
                        code: p.source_text.clone(),
                    }
                })
                .collect();
            let body =
                jsonio::Value::Array(entries.iter().map(DumpEntry::to_json).collect()).to_compact();
            vec![(FeedFormat::JsonDump, body)]
        }
        oss_types::source::PublicationStyle::ReportPages => {
            let mut pages = Vec::new();
            for (i, m) in mentions.iter().enumerate() {
                let p = world.package(m.package);
                pages.push((
                    FeedFormat::HtmlPage,
                    format!(
                        "<html><head><title>Malicious package advisory #{i}</title></head>\
                         <body><p class=\"byline\">{} — {}</p>\
                         <p>We identified a malicious package.</p>\
                         <ul><li><code>{}</code></li></ul></body></html>",
                        source.display_name(),
                        format_date(m.disclosed),
                        p.id
                    ),
                ));
                // Roughly every 25th page in a crawl is unrelated noise.
                if i % 25 == 7 {
                    pages.push((
                        FeedFormat::HtmlPage,
                        "<html><head><title>Quarterly business update</title></head>\
                         <body><p>We grew 40% and hired a mascot.</p></body></html>"
                            .to_string(),
                    ));
                }
            }
            pages
        }
        oss_types::source::PublicationStyle::SnsFeed => {
            let mut body = String::new();
            for m in &mentions {
                let p = world.package(m.package);
                body.push_str(&format!(
                    "[{}] heads up: malware package {} spotted in the wild\n",
                    format_date(m.disclosed),
                    p.id
                ));
            }
            // Feed noise.
            body.push_str("[2023-01-01] happy new year from the feed!\n");
            vec![(FeedFormat::SnsText, body)]
        }
    }
}

/// Raw document format of a feed item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedFormat {
    /// JSON dump index with inline archives.
    JsonDump,
    /// HTML advisory page.
    HtmlPage,
    /// Plain-text SNS feed.
    SnsText,
}

/// Parses one source's rendered feed back into mentions.
pub fn parse_feed(source: SourceId, documents: &[(FeedFormat, String)]) -> Vec<RawMention> {
    let mut out = Vec::new();
    for (format, body) in documents {
        match format {
            FeedFormat::JsonDump => {
                let Ok(parsed) = jsonio::Value::parse(body) else {
                    continue; // corrupt dump: skip, don't die
                };
                let Some(items) = parsed.as_array() else {
                    continue;
                };
                for entry in items.iter().filter_map(DumpEntry::from_json) {
                    let Ok(id) = entry.id.parse::<PackageId>() else {
                        continue;
                    };
                    let Ok(disclosed) = entry.disclosed.parse::<SimTime>() else {
                        continue;
                    };
                    let dependencies = entry
                        .dependencies
                        .iter()
                        .filter_map(|d| d.parse().ok())
                        .collect();
                    out.push(RawMention {
                        source,
                        id,
                        disclosed,
                        archive: Some(Archive {
                            description: entry.description,
                            dependencies,
                            code: entry.code,
                        }),
                    });
                }
            }
            FeedFormat::HtmlPage => {
                let events = html::parse_events(body);
                if !extract::keyword_filter(&events) {
                    continue;
                }
                let ids = extract::extract_package_ids(&events);
                let disclosed = extract::byline_date(&events).unwrap_or(SimTime::EPOCH);
                for id in ids {
                    out.push(RawMention {
                        source,
                        id,
                        disclosed,
                        archive: None,
                    });
                }
            }
            FeedFormat::SnsText => {
                for line in body.lines() {
                    let lower = line.to_ascii_lowercase();
                    if !(lower.contains("malware") || lower.contains("malicious")) {
                        continue;
                    }
                    let Some(id) = line
                        .split_whitespace()
                        .find_map(|tok| tok.parse::<PackageId>().ok())
                    else {
                        continue;
                    };
                    let disclosed = extract::find_date(line).unwrap_or(SimTime::EPOCH);
                    out.push(RawMention {
                        source,
                        id,
                        disclosed,
                        archive: None,
                    });
                }
            }
        }
    }
    out
}

fn format_date(t: SimTime) -> String {
    let (y, m, d) = t.to_ymd();
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry_sim::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::small(3))
    }

    #[test]
    fn dump_feed_round_trips_with_archives() {
        let w = world();
        let docs = render_feed(&w, SourceId::DataDog);
        assert_eq!(docs.len(), 1);
        let mentions = parse_feed(SourceId::DataDog, &docs);
        let expected = w
            .mentions
            .iter()
            .filter(|m| m.source == SourceId::DataDog)
            .count();
        assert_eq!(mentions.len(), expected);
        assert!(mentions.iter().all(|m| m.archive.is_some()));
        // Archive code matches the world's ground truth.
        let sample = &mentions[0];
        let truth = w
            .mentions
            .iter()
            .find(|m| w.package(m.package).id == sample.id)
            .map(|m| w.package(m.package))
            .unwrap();
        assert_eq!(sample.archive.as_ref().unwrap().code, truth.source_text);
    }

    #[test]
    fn report_feed_round_trips_without_archives() {
        let w = world();
        let docs = render_feed(&w, SourceId::Phylum);
        let mentions = parse_feed(SourceId::Phylum, &docs);
        let expected = w
            .mentions
            .iter()
            .filter(|m| m.source == SourceId::Phylum)
            .count();
        assert_eq!(mentions.len(), expected, "decoys must not add mentions");
        assert!(mentions.iter().all(|m| m.archive.is_none()));
        assert!(mentions.iter().all(|m| m.disclosed > SimTime::EPOCH));
    }

    #[test]
    fn sns_feed_round_trips() {
        let w = world();
        let docs = render_feed(&w, SourceId::IndividualBlogs);
        let mentions = parse_feed(SourceId::IndividualBlogs, &docs);
        let expected = w
            .mentions
            .iter()
            .filter(|m| m.source == SourceId::IndividualBlogs)
            .count();
        assert_eq!(mentions.len(), expected, "noise lines must be dropped");
    }

    #[test]
    fn corrupt_dump_is_skipped_not_fatal() {
        let docs = vec![(FeedFormat::JsonDump, "{not json".to_string())];
        assert!(parse_feed(SourceId::DataDog, &docs).is_empty());
    }

    #[test]
    fn mangled_html_page_is_skipped_not_fatal() {
        let docs = vec![(
            FeedFormat::HtmlPage,
            "<html><title>malicious <<< <code>garbage".to_string(),
        )];
        let mentions = parse_feed(SourceId::Phylum, &docs);
        assert!(mentions.is_empty());
    }
}
