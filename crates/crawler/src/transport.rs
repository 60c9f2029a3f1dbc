//! The unreliable-transport layer: every simulated fetch — feed
//! documents, mirror lookups, report pages — passes through a seeded
//! fault plan before the collector sees it.
//!
//! Real crawls (paper §II; *Backstabber's Knife Collection*; Guo et
//! al.'s PyPI study) are dominated by partial failure: removed pages,
//! truncated archives, transient errors. This module reproduces those
//! modes deterministically. Each fetch attempt draws one uniform value
//! from [`registry_sim::fault::FaultPlan`], keyed by `(channel,
//! document, attempt)` — never by shared RNG state — so the same
//! `(seed, fault config)` injects identical faults at any worker-thread
//! count. Transient failures are retried on the bounded
//! [`RetryPolicy`] backoff schedule; permanent failures (and retry
//! exhaustion) drop the document instead of panicking the pipeline.
//!
//! All waits are *simulated* (the world has no wall clock), which is
//! why the per-source wall-time figures in [`CollectionHealth`] are
//! reproducible bit for bit.

use oss_types::fetch::{clamp_rate, FaultConfig, FetchError, RetryPolicy};
use oss_types::SourceId;
use registry_sim::fault::{channel_id, FaultPlan};

/// Channel label of one source's feed stream.
fn feed_channel(source: SourceId) -> u64 {
    channel_id(&format!("feed/{}", source.slug()))
}

/// Channel label of the mirror-lookup stream.
fn mirror_channel() -> u64 {
    channel_id("mirror")
}

/// Channel label of the report-corpus crawl stream.
fn report_channel() -> u64 {
    channel_id("report-corpus")
}

/// What happened to one document across all its fetch attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Whether the document was ultimately delivered.
    pub delivered: bool,
    /// Total attempts made (1 + retries actually taken).
    pub attempts: u32,
    /// Retries taken (attempts beyond the first).
    pub retries: u32,
    /// Simulated backoff wait accumulated across retries, in ms.
    pub backoff_ms: u64,
    /// The final error when the document was dropped.
    pub error: Option<FetchError>,
}

impl FetchOutcome {
    /// Whether delivery needed at least one retry.
    pub fn recovered_after_retry(&self) -> bool {
        self.delivered && self.retries > 0
    }
}

/// The seeded unreliable transport one collection run fetches through.
#[derive(Debug, Clone, Copy)]
pub struct Transport {
    plan: FaultPlan,
    faults: FaultConfig,
    retry: RetryPolicy,
}

impl Transport {
    /// A transport over `plan` with the given fault rates and retry
    /// schedule.
    pub fn new(plan: FaultPlan, faults: FaultConfig, retry: RetryPolicy) -> Transport {
        Transport {
            plan,
            faults,
            retry,
        }
    }

    /// A transport that never fails (the legacy `collect` fast path).
    pub fn reliable(plan: FaultPlan) -> Transport {
        Transport::new(plan, FaultConfig::NONE, RetryPolicy::NONE)
    }

    /// The configured fault rates.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// The configured retry schedule.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Fetches document `index` of `source`'s feed.
    pub fn fetch_feed_document(&self, source: SourceId, index: usize) -> FetchOutcome {
        self.fetch(feed_channel(source), index as u64)
    }

    /// Performs the mirror lookup for `document` (a stable hash of the
    /// package identity, so the outcome is independent of lookup order).
    pub fn fetch_mirror_lookup(&self, document: u64) -> FetchOutcome {
        self.fetch(mirror_channel(), document)
    }

    /// Fetches one report-corpus page.
    pub fn fetch_report_page(&self, report_id: u64) -> FetchOutcome {
        self.fetch(report_channel(), report_id)
    }

    /// Runs the full attempt/retry loop for one document on `channel`.
    pub fn fetch(&self, channel: u64, document: u64) -> FetchOutcome {
        let outcome = self.fetch_inner(channel, document);
        if obs::enabled() && outcome.backoff_ms > 0 {
            obs::histogram_record("transport.backoff_ms", outcome.backoff_ms);
        }
        outcome
    }

    fn fetch_inner(&self, channel: u64, document: u64) -> FetchOutcome {
        let mut outcome = FetchOutcome {
            delivered: false,
            attempts: 0,
            retries: 0,
            backoff_ms: 0,
            error: None,
        };
        // Fast path: a fault-free transport never rolls at all.
        if self.faults.is_fault_free() {
            outcome.delivered = true;
            outcome.attempts = 1;
            return outcome;
        }
        let mut attempt = 0u32;
        loop {
            outcome.attempts += 1;
            match self.fault_at(channel, document, attempt) {
                None => {
                    outcome.delivered = true;
                    outcome.error = None;
                    return outcome;
                }
                Some(error) => {
                    outcome.error = Some(error);
                    if error.is_transient() && attempt < self.retry.max_retries {
                        outcome.backoff_ms = outcome
                            .backoff_ms
                            .saturating_add(self.retry.backoff_ms(attempt));
                        outcome.retries += 1;
                        attempt += 1;
                    } else {
                        return outcome; // permanent, or retries exhausted
                    }
                }
            }
        }
    }

    /// The fault injected at one `(channel, document, attempt)` cell, if
    /// any: a single uniform draw walked through the cumulative
    /// per-category rates in [`FetchError::ALL`] order.
    fn fault_at(&self, channel: u64, document: u64, attempt: u32) -> Option<FetchError> {
        let draw = self.plan.unit(channel, document, attempt);
        let mut cumulative = 0.0;
        for error in FetchError::ALL {
            cumulative += clamp_rate(self.faults.rate_of(error));
            if draw < cumulative {
                return Some(error);
            }
        }
        None
    }
}

/// Fetch telemetry of one channel (a source feed, the mirror lookups,
/// or the report-corpus crawl).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchHealth {
    /// Fetch attempts, including retries.
    pub attempts: u64,
    /// Retries taken.
    pub retries: u64,
    /// Documents delivered only after at least one retry.
    pub recovered: u64,
    /// Documents delivered (first try or after retries).
    pub delivered: u64,
    /// Documents permanently lost (404 or retries exhausted).
    pub dropped: u64,
    /// Simulated wall time spent waiting in backoff, in ms.
    pub backoff_ms: u64,
}

impl FetchHealth {
    /// Folds one document's outcome into the counters.
    pub fn record(&mut self, outcome: &FetchOutcome) {
        self.attempts += u64::from(outcome.attempts);
        self.retries += u64::from(outcome.retries);
        self.backoff_ms = self.backoff_ms.saturating_add(outcome.backoff_ms);
        if outcome.delivered {
            self.delivered += 1;
            if outcome.recovered_after_retry() {
                self.recovered += 1;
            }
        } else {
            self.dropped += 1;
        }
    }

    /// Adds another channel's counters into this one.
    pub fn merge(&mut self, other: &FetchHealth) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.backoff_ms = self.backoff_ms.saturating_add(other.backoff_ms);
    }

    /// Documents this channel tried to fetch.
    pub fn documents(&self) -> u64 {
        self.delivered + self.dropped
    }

    /// Whether the channel saw no faults at all.
    pub fn is_clean(&self) -> bool {
        self.retries == 0 && self.dropped == 0
    }
}

/// Per-source health telemetry of one collection run — the operational
/// answer to "how hostile was the crawl, and what did we lose?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionHealth {
    /// One row per online source, in [`SourceId::ALL`] order.
    pub sources: Vec<(SourceId, FetchHealth)>,
    /// The mirror-lookup channel.
    pub mirror: FetchHealth,
    /// The report-corpus crawl channel.
    pub report_corpus: FetchHealth,
}

impl CollectionHealth {
    /// A zeroed report covering every source.
    pub fn new() -> CollectionHealth {
        CollectionHealth {
            sources: SourceId::ALL
                .iter()
                .map(|&s| (s, FetchHealth::default()))
                .collect(),
            mirror: FetchHealth::default(),
            report_corpus: FetchHealth::default(),
        }
    }

    /// The health row of one source.
    pub fn source(&self, source: SourceId) -> &FetchHealth {
        &self
            .sources
            .iter()
            .find(|(s, _)| *s == source)
            .expect("every source has a row")
            .1
    }

    /// Mutable health row of one source.
    pub fn source_mut(&mut self, source: SourceId) -> &mut FetchHealth {
        &mut self
            .sources
            .iter_mut()
            .find(|(s, _)| *s == source)
            .expect("every source has a row")
            .1
    }

    /// Grand total over all channels.
    pub fn total(&self) -> FetchHealth {
        let mut total = FetchHealth::default();
        for (_, health) in &self.sources {
            total.merge(health);
        }
        total.merge(&self.mirror);
        total.merge(&self.report_corpus);
        total
    }

    /// Whether the whole run saw no faults (a legacy-equivalent corpus).
    pub fn is_fault_free(&self) -> bool {
        self.total().is_clean()
    }

    /// Folds the run's telemetry into the obs metrics registry, one
    /// counter family per quantity with a `{channel=…}` label per
    /// channel plus unlabeled grand totals. The JSON `"health"` key on
    /// exported corpora is unaffected — this is the metrics-registry
    /// view of the same numbers.
    pub fn absorb_into_obs(&self) {
        if !obs::enabled() {
            return;
        }
        let absorb = |label: &str, health: &FetchHealth| {
            obs::counter_add(
                &format!("crawler.attempts{{channel={label}}}"),
                health.attempts,
            );
            obs::counter_add(
                &format!("crawler.retries{{channel={label}}}"),
                health.retries,
            );
            obs::counter_add(
                &format!("crawler.recovered{{channel={label}}}"),
                health.recovered,
            );
            obs::counter_add(
                &format!("crawler.delivered{{channel={label}}}"),
                health.delivered,
            );
            obs::counter_add(
                &format!("crawler.dropped{{channel={label}}}"),
                health.dropped,
            );
        };
        for (source, health) in &self.sources {
            absorb(&format!("feed/{}", source.slug()), health);
        }
        absorb("mirror", &self.mirror);
        absorb("report-corpus", &self.report_corpus);
        let total = self.total();
        obs::counter_add("crawler.attempts", total.attempts);
        obs::counter_add("crawler.retries", total.retries);
        obs::counter_add("crawler.recovered", total.recovered);
        obs::counter_add("crawler.delivered", total.delivered);
        obs::counter_add("crawler.dropped", total.dropped);
        obs::counter_add("crawler.backoff_ms", total.backoff_ms);
    }
}

impl Default for CollectionHealth {
    fn default() -> Self {
        CollectionHealth::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(1234)
    }

    #[test]
    fn reliable_transport_always_delivers_in_one_attempt() {
        let t = Transport::reliable(plan());
        for doc in 0..200 {
            let o = t.fetch(7, doc);
            assert!(o.delivered);
            assert_eq!(o.attempts, 1);
            assert_eq!(o.retries, 0);
            assert_eq!(o.backoff_ms, 0);
        }
    }

    #[test]
    fn total_blackout_drops_everything_without_panicking() {
        let t = Transport::new(
            plan(),
            FaultConfig::transient(1.0),
            RetryPolicy::with_retries(2),
        );
        for doc in 0..50 {
            let o = t.fetch(7, doc);
            assert!(!o.delivered);
            assert_eq!(o.attempts, 3, "1 try + 2 retries");
            assert_eq!(o.error, Some(FetchError::Transient));
        }
    }

    #[test]
    fn permanent_404s_are_never_retried() {
        let cfg = FaultConfig {
            not_found_rate: 1.0,
            ..FaultConfig::NONE
        };
        let t = Transport::new(plan(), cfg, RetryPolicy::with_retries(5));
        let o = t.fetch(3, 9);
        assert!(!o.delivered);
        assert_eq!(o.attempts, 1);
        assert_eq!(o.error, Some(FetchError::NotFound));
    }

    #[test]
    fn transient_faults_mostly_recover_with_retries() {
        let t = Transport::new(plan(), FaultConfig::transient(0.3), RetryPolicy::STANDARD);
        let mut health = FetchHealth::default();
        const DOCS: u64 = 2_000;
        for doc in 0..DOCS {
            health.record(&t.fetch(11, doc));
        }
        assert_eq!(health.documents(), DOCS);
        // P(drop) = 0.3⁴ ≈ 0.8%; recovery must clear 95% comfortably.
        assert!(
            health.delivered * 100 >= DOCS * 97,
            "only {}/{} delivered",
            health.delivered,
            DOCS
        );
        assert!(health.recovered > 0, "some documents needed retries");
        assert!(health.retries >= health.recovered);
        // Accounting identity: every attempt is a first try or a retry.
        assert_eq!(health.attempts, health.documents() + health.retries);
        assert!(health.backoff_ms > 0);
    }

    #[test]
    fn outcomes_are_deterministic_per_document_key() {
        let t = Transport::new(plan(), FaultConfig::mixed(0.5), RetryPolicy::STANDARD);
        for doc in 0..100 {
            assert_eq!(t.fetch(5, doc), t.fetch(5, doc));
        }
        let other = Transport::new(
            FaultPlan::new(4321),
            FaultConfig::mixed(0.5),
            RetryPolicy::STANDARD,
        );
        assert!(
            (0..100).any(|doc| t.fetch(5, doc) != other.fetch(5, doc)),
            "different plans must differ somewhere"
        );
    }

    #[test]
    fn absurd_rates_are_clamped_not_fatal() {
        let cfg = FaultConfig {
            transient_rate: f64::INFINITY,
            timeout_rate: f64::NAN,
            truncated_rate: -2.0,
            corrupted_rate: 0.0,
            not_found_rate: 0.0,
        };
        let t = Transport::new(plan(), cfg, RetryPolicy::NONE);
        let o = t.fetch(1, 1);
        assert!(!o.delivered, "rate ∞ clamps to certainty");
        assert_eq!(o.error, Some(FetchError::Transient));
    }

    #[test]
    fn health_report_totals_reconcile() {
        let t = Transport::new(plan(), FaultConfig::mixed(0.4), RetryPolicy::STANDARD);
        let mut report = CollectionHealth::new();
        for source in SourceId::ALL {
            for doc in 0..50 {
                let o = t.fetch_feed_document(source, doc);
                report.source_mut(source).record(&o);
            }
        }
        for doc in 0..30 {
            report.mirror.record(&t.fetch_mirror_lookup(doc));
            report.report_corpus.record(&t.fetch_report_page(doc));
        }
        let total = report.total();
        assert_eq!(total.documents(), 10 * 50 + 30 + 30);
        assert_eq!(total.attempts, total.documents() + total.retries);
        assert!(!report.is_fault_free());
        let per_source_docs: u64 = report.sources.iter().map(|(_, h)| h.documents()).sum();
        assert_eq!(per_source_docs, 500);
    }
}
