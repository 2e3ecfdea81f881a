//! End-of-run summary report: merged span/counter/histogram tables with
//! a stderr renderer and a JSON form.

use crate::json::{obj, Json};
use crate::{HdrHist, SpanStat};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One span's merged totals.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name as passed to [`crate::span!`].
    pub name: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall time inside the span, nanoseconds.
    pub total_ns: u64,
    /// Total minus time spent in child spans, nanoseconds.
    pub self_ns: u64,
}

/// One histogram's merged summary ([`crate::record`]; each quantile is
/// its [`HdrHist`] bucket's upper bound, within ~3.1% of the true value).
#[derive(Debug, Clone)]
pub struct HistRow {
    /// Histogram name as passed to [`crate::record`].
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Merged snapshot of all collector shards. Produced by
/// [`crate::snapshot`] and [`crate::finish`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Span rows, hottest (largest self time) first.
    pub spans: Vec<SpanRow>,
    /// Counter rows, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram rows, sorted by name.
    pub hists: Vec<HistRow>,
    /// Nanoseconds since the collector epoch when the snapshot was taken.
    pub wall_ns: u64,
}

impl Report {
    pub(crate) fn build(
        spans: HashMap<&'static str, SpanStat>,
        counters: HashMap<&'static str, u64>,
        hists: HashMap<&'static str, HdrHist>,
        wall_ns: u64,
    ) -> Report {
        let mut spans: Vec<SpanRow> = spans
            .into_iter()
            .map(|(name, s)| SpanRow {
                name: name.to_string(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.self_ns,
            })
            .collect();
        spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));

        let mut counters: Vec<(String, u64)> = counters
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));

        let mut hists: Vec<HistRow> = hists
            .into_iter()
            .map(|(name, h)| HistRow {
                name: name.to_string(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                p50: h.p50(),
                p90: h.p90(),
                p99: h.p99(),
                p999: h.p999(),
            })
            .collect();
        hists.sort_by(|a, b| a.name.cmp(&b.name));

        Report {
            spans,
            counters,
            hists,
            wall_ns,
        }
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Looks up a counter's total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a span row by name.
    pub fn span(&self, name: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Looks up a histogram row by name.
    pub fn hist(&self, name: &str) -> Option<&HistRow> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders the human-readable summary (the stderr report): the top-N
    /// hot spans by self time, then every counter and histogram.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== obs report ({:.3} s wall) ==",
            self.wall_ns as f64 / 1e9
        );
        if self.is_empty() {
            let _ = writeln!(out, "   (nothing recorded)");
            return out;
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "   {:<28} {:>10} {:>12} {:>12}",
                "span", "count", "total ms", "self ms"
            );
            for s in self.spans.iter().take(top) {
                let _ = writeln!(
                    out,
                    "   {:<28} {:>10} {:>12.3} {:>12.3}",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6
                );
            }
            if self.spans.len() > top {
                let _ = writeln!(out, "   ... {} more spans", self.spans.len() - top);
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "   {:<40} {:>14}", "counter", "total");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "   {k:<40} {v:>14}");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "   {:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "p50", "p90", "p99", "p999", "max"
            );
            for h in &self.hists {
                let _ = writeln!(
                    out,
                    "   {:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.name, h.count, h.p50, h.p90, h.p99, h.p999, h.max
                );
            }
        }
        out
    }

    /// The whole report as one JSON object (embedded into `bench_dse`'s
    /// output and the sink's final summary line).
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            obj(vec![
                ("name", Json::from(s.name.as_str())),
                ("count", Json::from(s.count)),
                ("total_ns", Json::from(s.total_ns)),
                ("self_ns", Json::from(s.self_ns)),
            ])
        });
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)));
        let hists = self.hists.iter().map(|h| {
            obj(vec![
                ("name", Json::from(h.name.as_str())),
                ("count", Json::from(h.count)),
                ("sum", Json::from(h.sum)),
                ("min", Json::from(h.min)),
                ("p50", Json::from(h.p50)),
                ("p90", Json::from(h.p90)),
                ("p99", Json::from(h.p99)),
                ("p999", Json::from(h.p999)),
                ("max", Json::from(h.max)),
            ])
        });
        obj(vec![
            ("wall_ns", Json::from(self.wall_ns)),
            ("spans", Json::Arr(spans.collect())),
            ("counters", Json::Obj(counters.collect())),
            ("hists", Json::Arr(hists.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut spans = HashMap::new();
        spans.insert(
            "hot",
            SpanStat {
                count: 4,
                total_ns: 4_000,
                self_ns: 3_000,
            },
        );
        spans.insert(
            "cold",
            SpanStat {
                count: 1,
                total_ns: 500,
                self_ns: 500,
            },
        );
        let mut counters = HashMap::new();
        counters.insert("cache.hits", 9u64);
        let mut hists = HashMap::new();
        let mut h = HdrHist::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        hists.insert("lat", h);
        let mut q = HdrHist::new();
        for v in 1..=1000u64 {
            q.record(v);
        }
        hists.insert("tail", q);
        Report::build(spans, counters, hists, 1_000_000)
    }

    #[test]
    fn spans_sorted_hottest_first() {
        let r = sample();
        assert_eq!(r.spans[0].name, "hot");
        assert_eq!(r.spans[1].name, "cold");
        assert_eq!(r.counter("cache.hits"), Some(9));
        assert_eq!(r.counter("nope"), None);
        let h = r.hist("lat").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!(!r.is_empty());
    }

    #[test]
    fn hist_quantile_estimates_bracket_and_order() {
        let r = sample();
        let h = r.hist("lat").unwrap();
        // Values below 32 sit in exact buckets; the tail is clamped to
        // the largest value, and the quantiles are monotone.
        assert_eq!(h.p50, 2);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.p999);
        assert_eq!(h.p999, h.max);
        assert_eq!(h.sum, 106);
    }

    #[test]
    fn hdr_rows_carry_tight_quantiles() {
        let r = sample();
        let q = r.hist("tail").unwrap();
        assert_eq!(q.count, 1000);
        assert!(q.p50 >= 500 && q.p50 <= 516, "p50 within 1/32: {}", q.p50);
        assert!(q.p99 >= 990 && q.p99 <= 1000 + 1000 / 32);
        assert!(q.p999 <= q.max);
        assert!(r.hist("absent").is_none());
    }

    #[test]
    fn render_truncates_to_top_n() {
        let r = sample();
        let top1 = r.render(1);
        assert!(top1.contains("hot"));
        assert!(top1.contains("... 1 more spans"));
        assert!(top1.contains("cache.hits"));
        assert!(top1.contains("histogram"));
        assert!(top1.contains("p999"));
        assert!(top1.contains("tail"));
        let full = r.render(10);
        assert!(full.contains("cold"));
        assert!(!full.contains("more spans"));
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let r = sample();
        let j = r.to_json().render();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"hot\""));
        assert!(j.contains("\"cache.hits\":9"));
        assert!(j.contains("\"wall_ns\":1000000"));
        let hists = r.to_json().get("hists").cloned().expect("hists array");
        let rows = match hists {
            Json::Arr(rows) => rows,
            other => panic!("hists is not an array: {other:?}"),
        };
        let names: Vec<_> = rows.iter().filter_map(|h| h.get("name")?.as_str()).collect();
        assert_eq!(names, ["lat", "tail"]);
        assert!(j.contains("\"p999\":"));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let r = Report::build(HashMap::new(), HashMap::new(), HashMap::new(), 0);
        assert!(r.is_empty());
        assert!(r.render(5).contains("nothing recorded"));
        assert!(r.to_json().render().contains("\"spans\":[]"));
        assert!(r.to_json().render().contains("\"hists\":[]"));
    }
}
