//! The multi-pass page parser that the one-pass readers replaced, kept
//! as their reference: a tokenizer that builds a `String` for every
//! event, and queries that each tokenize the page again. The property
//! test below holds the one-pass answers equal to these on taggy soup.

use crate::extract::{self, find_date, ParsedReport, KEYWORDS};
use crate::html;
use crate::sources::{parse_feed, FeedFormat, RawMention};
use oss_types::{PackageId, SimTime, SourceId};
use proptest::prelude::*;
use std::borrow::Cow;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Open(String),
    Close(String),
    Text(String),
}

fn parse_events(html: &str) -> Vec<Event> {
    let mut events = Vec::new();
    let bytes = html.as_bytes();
    let mut i = 0usize;
    let mut text_start = 0usize;

    let flush_text = |events: &mut Vec<Event>, from: usize, to: usize| {
        if from < to {
            let text = decode_entities(&html[from..to]);
            if !text.trim().is_empty() {
                events.push(Event::Text(text));
            }
        }
    };

    while i < bytes.len() {
        if bytes[i] == b'<' {
            match html[i + 1..].find('>') {
                Some(rel) => {
                    let end = i + 1 + rel;
                    let inner = &html[i + 1..end];
                    if let Some(event) = classify_tag(inner) {
                        flush_text(&mut events, text_start, i);
                        events.push(event);
                        i = end + 1;
                        text_start = i;
                        continue;
                    }
                    i += 1;
                }
                None => {
                    i = bytes.len();
                }
            }
        } else {
            i += 1;
        }
    }
    flush_text(&mut events, text_start, html.len());
    events
}

fn classify_tag(inner: &str) -> Option<Event> {
    let inner = inner.trim();
    if inner.is_empty() {
        return None;
    }
    if let Some(name) = inner.strip_prefix('/') {
        let name = name.trim().to_ascii_lowercase();
        if is_tag_name(&name) {
            return Some(Event::Close(name));
        }
        return None;
    }
    if inner.starts_with('!') {
        return Some(Event::Text(String::new()));
    }
    let name: String = inner
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    if is_tag_name(&name) {
        Some(Event::Open(name))
    } else {
        None
    }
}

fn is_tag_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 12
        && name.chars().all(|c| c.is_ascii_alphanumeric())
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
}

fn decode_entities(text: &str) -> String {
    text.replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
}

fn tag_texts(html: &str, tag: &str) -> Vec<String> {
    let tag = tag.to_ascii_lowercase();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for event in parse_events(html) {
        match event {
            Event::Open(name) if name == tag => {
                depth += 1;
            }
            Event::Close(name) if name == tag && depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(std::mem::take(&mut current));
                }
            }
            Event::Text(text) if depth > 0 => {
                current.push_str(&text);
            }
            _ => {}
        }
    }
    if depth > 0 && !current.is_empty() {
        out.push(current);
    }
    out
}

fn visible_text(html: &str) -> String {
    let mut out = String::new();
    for event in parse_events(html) {
        if let Event::Text(text) = event {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(text.trim());
        }
    }
    out
}

fn keyword_filter(html_page: &str) -> bool {
    let text = visible_text(html_page).to_ascii_lowercase();
    let title = tag_texts(html_page, "title").join(" ").to_ascii_lowercase();
    KEYWORDS
        .iter()
        .any(|k| text.contains(k) || title.contains(k))
}

fn extract_package_ids(page: &str) -> Vec<PackageId> {
    let mut out: Vec<PackageId> = Vec::new();
    for span in tag_texts(page, "code") {
        if let Ok(id) = span.trim().parse::<PackageId>() {
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
    out
}

fn parse_report_page(page: &str) -> Option<ParsedReport> {
    if !keyword_filter(page) {
        return None;
    }
    let packages = extract_package_ids(page);
    if packages.is_empty() {
        return None;
    }
    let title = tag_texts(page, "title")
        .into_iter()
        .next()
        .unwrap_or_default();
    let actor = tag_texts(page, "b").into_iter().next();
    let published = tag_texts(page, "p").iter().find_map(|p| find_date(p));
    Some(ParsedReport {
        title,
        published,
        packages,
        actor,
    })
}

/// `parse_feed`'s HTML branch on one page.
fn parse_feed_page(source: SourceId, body: &str) -> Vec<RawMention> {
    if !keyword_filter(body) {
        return Vec::new();
    }
    let disclosed = tag_texts(body, "p")
        .iter()
        .find_map(|p| find_date(p))
        .unwrap_or(SimTime::EPOCH);
    extract_package_ids(body)
        .into_iter()
        .map(|id| RawMention {
            source,
            id,
            disclosed,
            archive: None,
        })
        .collect()
}

fn owned(event: &html::Event<'_>) -> Event {
    match event {
        html::Event::Open(name) => Event::Open(name.to_string()),
        html::Event::Close(name) => Event::Close(name.to_string()),
        html::Event::Text(text) => Event::Text(text.to_string()),
    }
}

/// Markup, entities, keywords, package ids and dates, in any order: the
/// crawler fuzz suite's alphabet and the pieces each query reads, loose
/// and as whole spans.
fn soup() -> impl Strategy<Value = String> {
    let span = prop_oneof![
        "<code>npm/[a-z]{1,3}@1\\.0\\.[0-9]</code>".prop_map(|s| s),
        "<code> pypi/[a-z]{1,2}@2\\.0\\.0 </code>".prop_map(|s| s),
        "<p>vendor — 20[12][0-9]-[01][0-9]-[0-3][0-9] 00:00</p>".prop_map(|s| s),
        "<b>actor-[0-9]{2}</b>".prop_map(|s| s),
        "<title>[a-zA-Z ]{0,8}</title>".prop_map(|s| s),
    ];
    let atom = prop_oneof![
        Just("<".to_string()),
        Just(">".to_string()),
        Just("</".to_string()),
        Just("<!".to_string()),
        Just(" ".to_string()),
        "[a-z@/.]{0,8}".prop_map(|s| s),
        Just("&amp;".to_string()),
        Just("&lt;".to_string()),
        Just("&amp;lt;".to_string()),
        Just("&gt;&quot;".to_string()),
        Just("<!-- -->".to_string()),
        Just("<code>".to_string()),
        Just("</code>".to_string()),
        Just("<CODE>".to_string()),
        Just("</Code >".to_string()),
        Just("<title>".to_string()),
        Just("</title>".to_string()),
        Just("<TITLE>".to_string()),
        Just("<b>".to_string()),
        Just("</b>".to_string()),
        Just("<p class=\"byline\">".to_string()),
        Just("</p>".to_string()),
        Just("<P>".to_string()),
        Just("Malicious".to_string()),
        Just("malware".to_string()),
        Just("Supply".to_string()),
        Just("chain".to_string()),
        Just("npm/left-pad@1.0.0".to_string()),
        Just("pypi/evil@2.1.0".to_string()),
        "20[12][0-9]-[01][0-9]-[0-3][0-9]".prop_map(|s| s),
        Just("—".to_string()),
    ];
    let part = prop_oneof![span, atom];
    proptest::collection::vec(part, 0..48).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_pass_reads_equal_the_multi_pass_reference(page in soup()) {
        let events = html::parse_events(&page);
        prop_assert_eq!(events.iter().map(owned).collect::<Vec<_>>(), parse_events(&page));
        prop_assert_eq!(html::visible_text(&events), visible_text(&page));
        for tag in ["code", "title", "b", "p"] {
            let texts: Vec<String> = html::tag_texts(&events, tag).map(Cow::into_owned).collect();
            prop_assert_eq!(texts, tag_texts(&page, tag));
        }
        prop_assert_eq!(extract::keyword_filter(&events), keyword_filter(&page));
        prop_assert_eq!(extract::extract_package_ids(&events), extract_package_ids(&page));
        prop_assert_eq!(extract::parse_report_page(&page), parse_report_page(&page));
        let docs = [(FeedFormat::HtmlPage, page.clone())];
        prop_assert_eq!(
            parse_feed(SourceId::Phylum, &docs),
            parse_feed_page(SourceId::Phylum, &page)
        );
    }
}
