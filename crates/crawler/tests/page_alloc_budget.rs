//! Allocation ceiling for parsing crawled pages.
//!
//! Each page is tokenized once into events that borrow it, and every
//! query reads that one event list, so a page allocates for its event
//! list and for what it yields (identities, dates, titles), about four
//! calls a page. A `String` per event, as the tokenizer this replaced
//! built, more than doubles the count and fails this test on every run;
//! allocation counts do not depend on timing. Tokenizing again for each
//! query costs one more call per query with borrowed events, which stays
//! under this ceiling.

use crawler::extract::parse_report_page;
use crawler::sources::{parse_feed, render_feed, FeedFormat};
use oss_types::source::PublicationStyle;
use oss_types::SourceId;
use registry_sim::{World, WorldConfig};

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// Allocation calls measured for parsing [`feed_pages`] and
/// [`report_pages`] when this ceiling was set. The parser this replaced,
/// which tokenized a page once per query into a `String` per event, made
/// 239,744 on the same pages; with `oss_types`' date, version and
/// ecosystem parses still collecting scratch, the one-pass parser made
/// 6,922.
const MEASURED: u64 = 4_006;

/// Twice the measured count.
const CEILING: u64 = 2 * MEASURED;

/// Each advisory source's feed pages, decoys included, in a crawl of
/// `WorldConfig::small(77)`.
fn feed_pages(world: &World) -> Vec<(SourceId, (FeedFormat, String))> {
    SourceId::ALL
        .iter()
        .filter(|source| source.publication_style() == PublicationStyle::ReportPages)
        .flat_map(|&source| {
            render_feed(world, source)
                .into_iter()
                .map(move |document| (source, document))
        })
        .collect()
}

/// Each report page of the same crawl.
fn report_pages(world: &World) -> Vec<String> {
    world
        .reports
        .iter()
        .map(|report| {
            registry_sim::report::render_html(report, &world.websites[report.website], |idx| {
                let p = world.package(idx);
                (p.id.clone(), p.signature.short())
            })
        })
        .collect()
}

#[test]
fn parsing_pages_stays_under_its_allocation_ceiling() {
    let world = World::generate(WorldConfig::small(77));
    let (feeds, reports) = (feed_pages(&world), report_pages(&world));

    obs::alloc::enable_tracking();
    let (_, before) = obs::alloc::thread_totals();
    let mut mentions = 0usize;
    for (source, document) in &feeds {
        mentions += parse_feed(*source, std::slice::from_ref(document)).len();
    }
    let parsed = reports
        .iter()
        .filter(|page| parse_report_page(page).is_some())
        .count();
    let (_, after) = obs::alloc::thread_totals();
    obs::alloc::disable_tracking();

    assert!(mentions > 0 && parsed == reports.len(), "the pages parse");
    let allocs = after - before;
    assert!(
        allocs <= CEILING,
        "{allocs} allocation calls parsing {} feed and {} report pages, ceiling {CEILING}",
        feeds.len(),
        reports.len()
    );
}
