//! Fuzz-style property tests: every parser in the collection pipeline
//! must survive arbitrary byte soup — crawlers eat the worst the web
//! serves.

use crawler::sources::{parse_feed, FeedFormat};
use crawler::{extract, html, ExportFidelity};
use oss_types::SourceId;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One real exported manifest per fidelity, plus one journal delta —
/// generated once, mangled many times.
fn exported_documents() -> &'static [String; 3] {
    static DOCS: OnceLock<[String; 3]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let world = registry_sim::World::generate(registry_sim::WorldConfig::small(23));
        let dataset = crawler::collect(&world);
        let plan = registry_sim::WindowPlan::disclosure_quantiles(&world, 2);
        let deltas = crawler::partition_windows(&dataset, &plan);
        [
            crawler::export_json(&dataset, ExportFidelity::Full).unwrap(),
            crawler::export_json(&dataset, ExportFidelity::ManifestOnly).unwrap(),
            crawler::export_delta_json(&deltas[0]),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn html_parser_never_panics(input in ".*") {
        let events = html::parse_events(&input);
        let _ = html::visible_text(&events);
        let _ = html::tag_texts(&events, "code").count();
    }

    #[test]
    fn html_parser_never_panics_on_taggy_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<".to_string()),
                Just(">".to_string()),
                Just("</".to_string()),
                Just("<code>".to_string()),
                Just("</code>".to_string()),
                Just("<!".to_string()),
                "[a-z@/.]{0,8}".prop_map(|s| s),
            ],
            0..40,
        )
    ) {
        let input: String = parts.concat();
        let events = html::parse_events(&input);
        // Text events never contain unreconstructed tag markup.
        for event in &events {
            if let html::Event::Text(t) = event {
                prop_assert!(!t.contains("</code>"));
            }
        }
        let _ = extract::parse_report_page(&input);
    }

    #[test]
    fn extractor_never_panics_and_ids_are_valid(input in ".*") {
        for id in extract::extract_package_ids(&html::parse_events(&input)) {
            // Whatever came out must round-trip as a real identity.
            let reparsed: Result<oss_types::PackageId, _> = id.to_string().parse();
            prop_assert!(reparsed.is_ok());
        }
    }

    #[test]
    fn feed_parsers_never_panic(input in ".*", which in 0usize..3) {
        let format = [FeedFormat::JsonDump, FeedFormat::HtmlPage, FeedFormat::SnsText][which];
        let docs = vec![(format, input)];
        let _ = parse_feed(SourceId::Phylum, &docs);
    }

    #[test]
    fn import_json_never_panics(input in ".*") {
        let _ = crawler::import_json(&input);
    }

    /// Truncating a real exported manifest (or journal delta) at any
    /// byte boundary never panics the importer — the crash-recovery
    /// ladder depends on torn files surfacing as typed errors.
    #[test]
    fn truncated_exports_never_panic(which in 0usize..3, cut_frac in 0.0f64..1.0) {
        let doc = &exported_documents()[which];
        let mut cut = (doc.len() as f64 * cut_frac) as usize;
        while !doc.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &doc[..cut];
        if which < 2 {
            let _ = crawler::import_json(truncated);
        } else {
            let _ = crawler::import_delta_json(truncated);
        }
    }

    /// Bit-flipping one byte of a real exported manifest never panics
    /// the importer, whatever the flip does to the UTF-8.
    #[test]
    fn mutated_exports_never_panic(which in 0usize..3, pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let doc = &exported_documents()[which];
        let mut bytes = doc.clone().into_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let text = String::from_utf8_lossy(&bytes);
        if which < 2 {
            let _ = crawler::import_json(&text);
        } else {
            let _ = crawler::import_delta_json(&text);
        }
    }
}
