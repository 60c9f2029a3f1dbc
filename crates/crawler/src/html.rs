//! A small, forgiving HTML parser — the reproduction's BeautifulSoup.
//!
//! The paper's crawler feeds vendor-blog pages through BeautifulSoup and
//! pulls package names out of the markup (§II-B). Real-world pages are
//! messy, so this parser never fails: unclosed tags, stray `<`, and
//! unknown entities all degrade to text.

/// One parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<tag …>`; the tag name is lowercased, attributes are discarded.
    Open(String),
    /// `</tag>`.
    Close(String),
    /// Text content between tags, entity-decoded.
    Text(String),
}

/// Tokenizes an HTML document into events. Never fails: malformed markup
/// becomes text.
pub fn parse_events(html: &str) -> Vec<Event> {
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
            // Find the closing '>'.
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
                    // Not a recognizable tag: treat '<' as text.
                    i += 1;
                }
                None => {
                    // Dangling '<' with no '>': everything left is text.
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
        // Comment or doctype: swallow silently.
        return Some(Event::Text(String::new()));
    }
    // Tag name runs until whitespace or '/'.
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

/// Returns the text content of every `<tag>…</tag>` region, in document
/// order. Nested same-name tags are treated as flat regions.
pub fn tag_texts(html: &str, tag: &str) -> Vec<String> {
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
    // Unclosed region at EOF still yields what it accumulated.
    if depth > 0 && !current.is_empty() {
        out.push(current);
    }
    out
}

/// The document's full visible text, for keyword filtering.
pub fn visible_text(html: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tag_texts_extracts_code_spans() {
        let html = "<ul><li><code>pypi/a@1.0.0</code></li><li><code>npm/b@2.0.0</code></li></ul>";
        assert_eq!(tag_texts(html, "code"), vec!["pypi/a@1.0.0", "npm/b@2.0.0"]);
    }

    #[test]
    fn entities_are_decoded() {
        let html = "<p>a &amp; b &lt;c&gt;</p>";
        assert_eq!(visible_text(html), "a & b <c>");
    }

    #[test]
    fn mangled_html_degrades_gracefully() {
        // Unclosed tag, dangling '<', stray '>' — no panic, text survives.
        let html = "<p>start <b>bold text\nloose < angle and > bracket";
        let text = visible_text(html);
        assert!(text.contains("start"));
        assert!(text.contains("bold text"));
        let _ = tag_texts(html, "b"); // must not panic
    }

    #[test]
    fn unclosed_code_region_still_yields_text() {
        let html = "<code>pypi/x@1.0.0";
        assert_eq!(tag_texts(html, "code"), vec!["pypi/x@1.0.0"]);
    }

    #[test]
    fn comments_and_doctype_are_swallowed() {
        let html = "<!DOCTYPE html><!-- hidden --><p>shown</p>";
        assert_eq!(visible_text(html).trim(), "shown");
    }

    #[test]
    fn numeric_or_garbage_tags_are_text() {
        let html = "x <123> y <!> z";
        let text = visible_text(html);
        assert!(text.contains('x') && text.contains('y'));
    }

    #[test]
    fn empty_input() {
        assert!(parse_events("").is_empty());
        assert!(tag_texts("", "code").is_empty());
        assert_eq!(visible_text(""), "");
    }

    #[test]
    fn nested_same_tag_flattens() {
        let html = "<div>a<div>b</div>c</div>";
        let texts = tag_texts(html, "div");
        assert_eq!(texts.len(), 1);
        assert_eq!(texts[0], "abc");
    }
}
