//! Security-analysis reports and the websites that publish them.
//!
//! Reports are the only place the *context* of an attack campaign is
//! recorded (paper §IV-D): who released the packages, which packages
//! belong together, when. MALGRAPH's co-existing edge is built from them.
//! The simulator renders each report as an HTML page in the style of the
//! vendor blogs the paper crawled; the `crawler` crate parses those pages
//! back — the reproduction's BeautifulSoup path.

use crate::package::{CampaignIdx, PkgIdx};
use oss_types::{PackageId, SimTime};

/// Website category (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReportCategory {
    /// Technical-community sites (forums, project blogs).
    TechnicalCommunity,
    /// Commercial security organizations.
    Commercial,
    /// News outlets.
    News,
    /// Individual researchers.
    Individual,
    /// Official registry/vendor advisories.
    Official,
    /// Everything else.
    Other,
}

impl ReportCategory {
    /// All categories in Table III order.
    pub const ALL: [ReportCategory; 6] = [
        ReportCategory::TechnicalCommunity,
        ReportCategory::Commercial,
        ReportCategory::News,
        ReportCategory::Individual,
        ReportCategory::Official,
        ReportCategory::Other,
    ];

    /// Display name as printed in Table III.
    pub fn display_name(self) -> &'static str {
        match self {
            ReportCategory::TechnicalCommunity => "Technical Community",
            ReportCategory::Commercial => "Commercial org.",
            ReportCategory::News => "News",
            ReportCategory::Individual => "Individual",
            ReportCategory::Official => "Official",
            ReportCategory::Other => "Other",
        }
    }
}

impl std::fmt::Display for ReportCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// A website that publishes security reports.
#[derive(Debug, Clone)]
pub struct Website {
    /// Site name, e.g. `commercial-org-03.example`.
    pub name: String,
    /// Table III category.
    pub category: ReportCategory,
}

/// One security-analysis report.
#[derive(Debug, Clone)]
pub struct SecurityReport {
    /// Report id, unique in the world.
    pub id: u32,
    /// Index into the world's website list.
    pub website: usize,
    /// Publication instant.
    pub published: SimTime,
    /// Title line.
    pub title: String,
    /// Packages named by the report.
    pub packages: Vec<PkgIdx>,
    /// Actor handle if the analysts disclosed one.
    pub actor_handle: Option<String>,
    /// Ground truth: campaign the report describes (never read by the
    /// collection pipeline).
    pub campaign: Option<CampaignIdx>,
}

/// Renders a report as an HTML page in vendor-blog style. `resolve` maps
/// a package index to its registry identity and artifact hash prefix.
pub fn render_html(
    report: &SecurityReport,
    website: &Website,
    mut resolve: impl FnMut(PkgIdx) -> (PackageId, String),
) -> String {
    let mut out = String::new();
    out.push_str("<html><head><title>");
    out.push_str(&escape(&report.title));
    out.push_str("</title></head><body>\n");
    out.push_str(&format!(
        "<h1>{}</h1>\n<p class=\"byline\">{} — {}</p>\n",
        escape(&report.title),
        escape(&website.name),
        report.published
    ));
    out.push_str("<p>Our team identified malicious packages in the wild. ");
    if let Some(actor) = &report.actor_handle {
        out.push_str(&format!(
            "The packages were published by the actor <b>{}</b>. ",
            escape(actor)
        ));
    }
    out.push_str("Indicators of compromise follow.</p>\n<ul>\n");
    for &pkg in &report.packages {
        let (id, hash) = resolve(pkg);
        out.push_str(&format!(
            "<li><code>{id}</code> <span class=\"ioc\">sha256:{hash}</span></li>\n"
        ));
    }
    out.push_str("</ul>\n<p>We notified the registry and the packages were removed.</p>\n");
    out.push_str("</body></html>\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> (SecurityReport, Website) {
        (
            SecurityReport {
                id: 1,
                website: 0,
                published: SimTime::from_ymd(2023, 1, 17),
                title: "Malicious 'Lolip0p' packages install info-stealing malware".into(),
                packages: vec![PkgIdx(0), PkgIdx(1)],
                actor_handle: Some("Lolip0p".into()),
                campaign: None,
            },
            Website {
                name: "news-site-00.example".into(),
                category: ReportCategory::News,
            },
        )
    }

    #[test]
    fn html_contains_all_package_mentions() {
        let (report, site) = sample_report();
        let html = render_html(&report, &site, |pkg| {
            let id: PackageId = if pkg == PkgIdx(0) {
                "pypi/colorslib@1.0.0".parse().unwrap()
            } else {
                "pypi/httpslib@1.0.0".parse().unwrap()
            };
            (id, "deadbeef".into())
        });
        assert!(html.contains("<code>pypi/colorslib@1.0.0</code>"));
        assert!(html.contains("<code>pypi/httpslib@1.0.0</code>"));
        assert!(html.contains("sha256:deadbeef"));
        assert!(html.contains("<b>Lolip0p</b>"));
        assert!(html.contains("2023-01-17"));
    }

    #[test]
    fn html_escapes_title() {
        let (mut report, site) = sample_report();
        report.title = "packages <script> & more".into();
        report.packages.clear();
        report.actor_handle = None;
        let html = render_html(&report, &site, |_| unreachable!());
        assert!(html.contains("packages &lt;script&gt; &amp; more"));
        assert!(!html.contains("<script>"));
    }

    #[test]
    fn categories_have_unique_display_names() {
        let mut names: Vec<_> = ReportCategory::ALL
            .iter()
            .map(|c| c.display_name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
