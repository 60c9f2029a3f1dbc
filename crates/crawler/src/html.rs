//! A small, forgiving HTML parser — the reproduction's BeautifulSoup.
//!
//! The paper's crawler feeds vendor-blog pages through BeautifulSoup and
//! pulls package names out of the markup (§II-B). Real-world pages are
//! messy, so this parser never fails: unclosed tags, stray `<`, and
//! unknown entities all degrade to text.
//!
//! A page is tokenized once, by [`parse_events`], into events that
//! borrow the page; every query ([`tag_texts`], [`visible_text`] and the
//! extractors in [`crate::extract`]) reads that one list.

use std::borrow::Cow;

/// One parse event. Tag names and text borrow the page, except a tag
/// name holding an upper-case letter and a text run holding `&`, which
/// are owned once lower-cased or entity-decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<tag …>`; the tag name is lowercased, attributes are discarded.
    Open(Cow<'a, str>),
    /// `</tag>`.
    Close(Cow<'a, str>),
    /// Text content between tags, entity-decoded.
    Text(Cow<'a, str>),
}

/// Tokenizes an HTML document into events. Never fails: malformed markup
/// becomes text.
pub fn parse_events(html: &str) -> Vec<Event<'_>> {
    // Each `<` starts at most one tag and ends at most one text run;
    // one more text run may close the page.
    let mut events = Vec::with_capacity(2 * html.bytes().filter(|&b| b == b'<').count() + 1);
    let mut i = 0usize;
    let mut text_start = 0usize;

    while let Some(rel) = html[i..].find('<') {
        i += rel;
        // Find the closing '>'.
        let Some(rel) = html[i + 1..].find('>') else {
            // Dangling '<' with no '>': everything left is text.
            break;
        };
        let end = i + 1 + rel;
        match classify_tag(&html[i + 1..end]) {
            Some(event) => {
                flush_text(&mut events, &html[text_start..i]);
                events.push(event);
                i = end + 1;
                text_start = i;
            }
            // Not a recognizable tag: treat '<' as text.
            None => i += 1,
        }
    }
    flush_text(&mut events, &html[text_start..]);
    events
}

fn flush_text<'a>(events: &mut Vec<Event<'a>>, raw: &'a str) {
    let text = decode_entities(raw);
    if !text.trim().is_empty() {
        events.push(Event::Text(text));
    }
}

fn classify_tag(inner: &str) -> Option<Event<'_>> {
    let inner = inner.trim();
    if inner.is_empty() {
        return None;
    }
    if let Some(name) = inner.strip_prefix('/') {
        return tag_name(name.trim()).map(Event::Close);
    }
    if inner.starts_with('!') {
        // Comment or doctype: swallow silently.
        return Some(Event::Text(Cow::Borrowed("")));
    }
    // Tag name runs until whitespace or '/'.
    let len = inner.bytes().take_while(u8::is_ascii_alphanumeric).count();
    tag_name(&inner[..len]).map(Event::Open)
}

/// `name` lower-cased, if it is a tag name.
fn tag_name(name: &str) -> Option<Cow<'_, str>> {
    let valid = !name.is_empty()
        && name.len() <= 12
        && name.bytes().all(|b| b.is_ascii_alphanumeric())
        && name.as_bytes()[0].is_ascii_alphabetic();
    if !valid {
        None
    } else if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Some(Cow::Owned(name.to_ascii_lowercase()))
    } else {
        Some(Cow::Borrowed(name))
    }
}

/// Decodes the four entities, one after the other as chained `replace`
/// calls, so `&amp;lt;` becomes `<`: a one-pass decoder would stop at
/// `&lt;` and change the text.
fn decode_entities(text: &str) -> Cow<'_, str> {
    if !text.contains('&') {
        return Cow::Borrowed(text);
    }
    Cow::Owned(
        text.replace("&amp;", "&")
            .replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", "\""),
    )
}

/// The text content of every `<tag>…</tag>` region of `events`, in
/// document order, lazily; `tag` is lower case. Nested same-name tags
/// are treated as flat regions, and an unclosed region at the end still
/// yields what it holds. A region of one text run borrows it.
pub fn tag_texts<'e>(
    events: &'e [Event<'e>],
    tag: &'e str,
) -> impl Iterator<Item = Cow<'e, str>> + 'e {
    let mut events = events.iter();
    let mut depth = 0usize;
    let mut current: Option<Cow<'e, str>> = None;
    std::iter::from_fn(move || {
        for event in events.by_ref() {
            match event {
                Event::Open(name) if name == tag => depth += 1,
                Event::Close(name) if name == tag && depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(current.take().unwrap_or_default());
                    }
                }
                Event::Text(text) if depth > 0 => match &mut current {
                    None => current = Some(Cow::Borrowed(text.as_ref())),
                    Some(current) => current.to_mut().push_str(text),
                },
                _ => {}
            }
        }
        depth = 0;
        current.take().filter(|text| !text.is_empty())
    })
}

/// The document's full visible text: every text run trimmed, joined by
/// single spaces.
pub fn visible_text(events: &[Event<'_>]) -> String {
    let mut out = String::new();
    for event in events {
        if let Event::Text(text) = event {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(text.trim());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(html: &str, tag: &str) -> Vec<String> {
        tag_texts(&parse_events(html), tag)
            .map(Cow::into_owned)
            .collect()
    }

    fn visible(html: &str) -> String {
        visible_text(&parse_events(html))
    }

    #[test]
    fn simple_document_round_trip() {
        let events = parse_events("<html><body><p>hello</p></body></html>");
        assert_eq!(
            events,
            vec![
                Event::Open("html".into()),
                Event::Open("body".into()),
                Event::Open("p".into()),
                Event::Text("hello".into()),
                Event::Close("p".into()),
                Event::Close("body".into()),
                Event::Close("html".into()),
            ]
        );
    }

    #[test]
    fn attributes_are_ignored() {
        let events = parse_events(r#"<p class="byline" data-x="1">by us</p>"#);
        assert_eq!(events[0], Event::Open("p".into()));
    }

    #[test]
    fn only_upper_case_names_and_entity_text_are_owned() {
        let events = parse_events("<P>a &amp;lt; b</P><p>plain</p>");
        let owned: Vec<bool> = events
            .iter()
            .map(|event| match event {
                Event::Open(s) | Event::Close(s) | Event::Text(s) => matches!(s, Cow::Owned(_)),
            })
            .collect();
        assert_eq!(owned, [true, true, true, false, false, false]);
        assert_eq!(events[0], Event::Open("p".into()));
        assert_eq!(events[1], Event::Text("a < b".into()));
    }

    #[test]
    fn tag_texts_extracts_code_spans() {
        let html = "<ul><li><code>pypi/a@1.0.0</code></li><li><code>npm/b@2.0.0</code></li></ul>";
        assert_eq!(texts(html, "code"), vec!["pypi/a@1.0.0", "npm/b@2.0.0"]);
    }

    #[test]
    fn entities_are_decoded() {
        let html = "<p>a &amp; b &lt;c&gt;</p>";
        assert_eq!(visible(html), "a & b <c>");
    }

    #[test]
    fn mangled_html_degrades_gracefully() {
        // Unclosed tag, dangling '<', stray '>' — no panic, text survives.
        let html = "<p>start <b>bold text\nloose < angle and > bracket";
        let text = visible(html);
        assert!(text.contains("start"));
        assert!(text.contains("bold text"));
        let _ = texts(html, "b"); // must not panic
    }

    #[test]
    fn unclosed_code_region_still_yields_text() {
        let html = "<code>pypi/x@1.0.0";
        assert_eq!(texts(html, "code"), vec!["pypi/x@1.0.0"]);
    }

    #[test]
    fn comments_and_doctype_are_swallowed() {
        let html = "<!DOCTYPE html><!-- hidden --><p>shown</p>";
        assert_eq!(visible(html).trim(), "shown");
    }

    #[test]
    fn numeric_or_garbage_tags_are_text() {
        let html = "x <123> y <!> z";
        let text = visible(html);
        assert!(text.contains('x') && text.contains('y'));
    }

    #[test]
    fn empty_input() {
        assert!(parse_events("").is_empty());
        assert!(texts("", "code").is_empty());
        assert_eq!(visible(""), "");
    }

    #[test]
    fn nested_same_tag_flattens() {
        let html = "<div>a<div>b</div>c</div>";
        let texts = texts(html, "div");
        assert_eq!(texts.len(), 1);
        assert_eq!(texts[0], "abc");
    }
}
