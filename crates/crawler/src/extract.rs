//! Mention extraction from crawled pages.
//!
//! The paper's pipeline filters crawled pages by keyword ("malicious",
//! "malware"), then pulls package names and versions out of the report
//! content (§II-B). Here the same happens over the simulator's rendered
//! pages: keyword filter → `<code>` spans → `ecosystem/name@version`.
//! Each page is tokenized once ([`html::parse_events`]); every query
//! reads that event list.

use crate::html::{self, Event};
use oss_types::{PackageId, SimTime};
use std::borrow::Cow;

/// Keywords a page must contain to be treated as a security report.
pub const KEYWORDS: [&str; 4] = ["malicious", "malware", "supply chain", "backdoor"];

/// Whether a tokenized page passes the keyword filter: some keyword, in
/// any ASCII case, in its visible text or in its titles joined by
/// spaces.
pub fn keyword_filter(events: &[Event<'_>]) -> bool {
    // The visible text holds every text run, so a keyword inside one run
    // passes the page without building that text.
    let in_one_run = events
        .iter()
        .any(|event| matches!(event, Event::Text(text) if has_keyword(text)));
    in_one_run || has_keyword(&html::visible_text(events)) || {
        let titles: Vec<Cow<'_, str>> = html::tag_texts(events, "title").collect();
        has_keyword(&titles.join(" "))
    }
}

fn has_keyword(text: &str) -> bool {
    KEYWORDS.iter().any(|keyword| {
        text.as_bytes()
            .windows(keyword.len())
            .any(|window| window.eq_ignore_ascii_case(keyword.as_bytes()))
    })
}

/// A report parsed from a crawled page.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedReport {
    /// Page title.
    pub title: String,
    /// Publication date string from the byline, if present (`YYYY-MM-DD`).
    pub published: Option<SimTime>,
    /// Package identities named by the page.
    pub packages: Vec<PackageId>,
    /// Actor handle if the page names one in a `<b>` span.
    pub actor: Option<String>,
}

/// Parses one report page. Returns `None` when the page fails the
/// keyword filter or names no packages (an irrelevant page).
pub fn parse_report_page(page: &str) -> Option<ParsedReport> {
    let events = html::parse_events(page);
    if !keyword_filter(&events) {
        return None;
    }
    let packages = extract_package_ids(&events);
    if packages.is_empty() {
        return None;
    }
    let first = |tag| html::tag_texts(&events, tag).next().map(Cow::into_owned);
    Some(ParsedReport {
        title: first("title").unwrap_or_default(),
        published: byline_date(&events),
        packages,
        actor: first("b"),
    })
}

/// Extracts every parseable `ecosystem/name@version` identity from the
/// page's `<code>` spans, preserving order and dropping duplicates.
pub fn extract_package_ids(events: &[Event<'_>]) -> Vec<PackageId> {
    let mut out: Vec<PackageId> = Vec::new();
    for span in html::tag_texts(events, "code") {
        if let Ok(id) = span.trim().parse::<PackageId>() {
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
    out
}

/// The first date in the page's `<p>` spans: the byline's.
pub(crate) fn byline_date(events: &[Event<'_>]) -> Option<SimTime> {
    html::tag_texts(events, "p").find_map(|p| find_date(&p))
}

/// The first `YYYY-MM-DD` substring of `text` that parses as a date.
/// Bylines may contain multi-byte punctuation, so a candidate starts and
/// ends on char boundaries.
pub(crate) fn find_date(text: &str) -> Option<SimTime> {
    let bytes = text.as_bytes();
    (0..bytes.len().saturating_sub(9))
        .filter(|&start| {
            bytes[start + 4] == b'-'
                && bytes[start + 7] == b'-'
                && text.is_char_boundary(start)
                && text.is_char_boundary(start + 10)
        })
        .find_map(|start| text[start..start + 10].parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"<html><head><title>Malicious packages flood npm</title></head>
<body><p class="byline">vendor — 2023-08-12 00:00</p>
<p>The actor <b>actor-0007</b> published these.</p>
<ul>
<li><code>npm/etc-crypto@1.0.0</code> <span class="ioc">sha256:abcd</span></li>
<li><code>npm/cloud-layout@1.0.0</code></li>
<li><code>not a package id</code></li>
</ul></body></html>"#;

    fn passes(page: &str) -> bool {
        keyword_filter(&html::parse_events(page))
    }

    #[test]
    fn full_page_parses() {
        let report = parse_report_page(PAGE).expect("valid report");
        assert_eq!(report.title, "Malicious packages flood npm");
        assert_eq!(report.packages.len(), 2);
        assert_eq!(report.packages[0].to_string(), "npm/etc-crypto@1.0.0");
        assert_eq!(report.actor.as_deref(), Some("actor-0007"));
        assert_eq!(
            report.published,
            Some(oss_types::SimTime::from_ymd(2023, 8, 12))
        );
    }

    #[test]
    fn keyword_filter_drops_irrelevant_pages() {
        let benign = "<html><title>Release notes v2.1</title><body>\
                      <code>npm/lodash@4.0.0</code> improvements</body></html>";
        assert!(!passes(benign));
        assert_eq!(parse_report_page(benign), None);
    }

    #[test]
    fn keyword_in_body_is_enough() {
        let page = "<html><title>weekly digest</title><body>\
                    we found malware in <code>pypi/evil@1.0.0</code></body></html>";
        assert!(passes(page));
        let report = parse_report_page(page).unwrap();
        assert_eq!(report.packages.len(), 1);
    }

    #[test]
    fn keywords_split_across_runs_follow_the_joined_texts() {
        // The visible text joins runs with a space; a title joins none.
        assert!(passes("<p>Supply</p><p>Chain</p>"));
        assert!(!passes("<p>Supply</p><!-- --><p>Chain</p>"));
        assert!(passes("<title>mal<b>ware</b></title>"));
        assert!(!passes("<p>mal<b>ware</b></p>"));
    }

    #[test]
    fn report_without_packages_is_dropped() {
        let page = "<html><title>malware trends 2023</title>\
                    <body>no specific packages here</body></html>";
        assert_eq!(parse_report_page(page), None);
    }

    #[test]
    fn malformed_ids_are_skipped_duplicates_deduped() {
        let page = "<html><title>malicious roundup</title><body>\
                    <code>npm/a@1.0.0</code><code>npm/a@1.0.0</code>\
                    <code>@broken</code><code>npm/UPPER@1.0.0</code></body></html>";
        let ids = extract_package_ids(&html::parse_events(page));
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn date_extraction_handles_prefixes() {
        assert_eq!(
            find_date("vendor corp — 2022-11-03 08:15"),
            Some(oss_types::SimTime::from_ymd(2022, 11, 3))
        );
        assert_eq!(find_date("no date here"), None);
        assert_eq!(find_date("bad 2022-13-99 date"), None);
        assert_eq!(find_date("—2022-11-0—"), None);
    }
}
