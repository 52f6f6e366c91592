//! Metric naming, families, and exposition.
//!
//! A [`Registry`] is a table of scrape entries over one state type `S`:
//! each entry names a series (metric name, help, label set) and says how
//! to read it from an `&S` — a counter or gauge value, or a histogram the
//! state owns. The registry stores no values: the state keeps its own
//! atomics, and [`Registry::snapshot`] evaluates every entry against it
//! once. Entries sharing a name form one *family*.

use std::fmt::Write as _;

use crate::metrics::Histogram;

/// What a metric family measures; fixed at first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// How an entry reads its series from the state.
enum Read<S> {
    Scalar(Box<dyn Fn(&S) -> u64 + Send + Sync>),
    Histogram(Box<dyn for<'a> Fn(&'a S) -> &'a Histogram + Send + Sync>),
}

struct Series<S> {
    labels: Vec<(String, String)>,
    read: Read<S>,
}

struct Family<S> {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series<S>>,
}

/// A table of named scrape entries over a state `S`.
///
/// Registration misuse — an invalid name, re-registering a name with a
/// different kind, or a duplicate (name, label-set) pair — panics:
/// these are programmer errors that should fail loudly in tests, not
/// corrupt exposition silently in production.
pub struct Registry<S> {
    families: Vec<Family<S>>,
}

impl<S> Default for Registry<S> {
    fn default() -> Self {
        Registry {
            families: Vec::new(),
        }
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

impl<S> Registry<S> {
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        read: Read<S>,
    ) {
        assert!(
            valid_name(name),
            "invalid metric name {name:?} (want [a-z_][a-z0-9_]*)"
        );
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?} on metric {name:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(fam) = self.families.iter_mut().find(|f| f.name == name) {
            assert_eq!(
                fam.kind, kind,
                "metric {name:?} re-registered with a different kind"
            );
            assert!(
                !fam.series.iter().any(|s| s.labels == labels),
                "duplicate series for metric {name:?} labels {labels:?}"
            );
            fam.series.push(Series { labels, read });
        } else {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                series: vec![Series { labels, read }],
            });
        }
    }

    /// A counter read at scrape time. `read` must be monotone for the
    /// exposition to be honest; the registry does not enforce it.
    pub fn counter_fn(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn(&S) -> u64 + Send + Sync + 'static,
    ) {
        let read = Read::Scalar(Box::new(read));
        self.register(name, help, labels, MetricKind::Counter, read);
    }

    /// A gauge read at scrape time.
    pub fn gauge_fn(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn(&S) -> u64 + Send + Sync + 'static,
    ) {
        let read = Read::Scalar(Box::new(read));
        self.register(name, help, labels, MetricKind::Gauge, read);
    }

    /// A histogram the state owns, read at scrape time.
    pub fn histogram_fn(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl for<'a> Fn(&'a S) -> &'a Histogram + Send + Sync + 'static,
    ) {
        let read = Read::Histogram(Box::new(read));
        self.register(name, help, labels, MetricKind::Histogram, read);
    }

    /// Reads every entry from `state`. Families are sorted by name so
    /// renderings are deterministic regardless of registration order;
    /// series keep registration order within a family.
    pub fn snapshot(&self, state: &S) -> Snapshot {
        let mut out: Vec<FamilySnapshot> = self
            .families
            .iter()
            .map(|fam| FamilySnapshot {
                name: fam.name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                series: fam
                    .series
                    .iter()
                    .map(|s| SeriesSnapshot {
                        labels: s.labels.clone(),
                        value: match &s.read {
                            Read::Scalar(read) => SeriesValue::Scalar(read(state)),
                            Read::Histogram(read) => {
                                let h = read(state);
                                let mut acc = 0u64;
                                let cumulative = h
                                    .bucket_counts()
                                    .iter()
                                    .map(|c| {
                                        acc += c;
                                        acc
                                    })
                                    .collect();
                                // Deriving count from the buckets (not
                                // the count atomic) makes conservation
                                // exact even mid-record: the +Inf
                                // cumulative always equals _count.
                                SeriesValue::Hist {
                                    bounds: h.buckets().bounds().to_vec(),
                                    cumulative,
                                    sum: h.sum(),
                                    count: acc,
                                }
                            }
                        },
                    })
                    .collect(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { families: out }
    }
}

/// One resolved series value.
pub enum SeriesValue {
    Scalar(u64),
    Hist {
        /// Finite bucket upper bounds.
        bounds: Vec<u64>,
        /// Cumulative counts per finite bound plus a final `+Inf`
        /// entry; `cumulative.len() == bounds.len() + 1`.
        cumulative: Vec<u64>,
        sum: u64,
        count: u64,
    },
}

pub struct SeriesSnapshot {
    pub labels: Vec<(String, String)>,
    pub value: SeriesValue,
}

pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub series: Vec<SeriesSnapshot>,
}

/// A point-in-time capture of a [`Registry`], renderable as Prometheus
/// text or JSON.
pub struct Snapshot {
    pub families: Vec<FamilySnapshot>,
}

fn escape_prom(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_prom(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_prom(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Prometheus text exposition format, version 0.0.4: `# HELP` /
    /// `# TYPE` headers, one sample per line, histograms expanded into
    /// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            if !fam.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", fam.name, escape_prom(&fam.help));
            }
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
            for s in &fam.series {
                match &s.value {
                    SeriesValue::Scalar(v) => {
                        let _ = writeln!(out, "{}{} {}", fam.name, prom_labels(&s.labels, None), v);
                    }
                    SeriesValue::Hist {
                        bounds,
                        cumulative,
                        sum,
                        count,
                    } => {
                        for (i, b) in bounds.iter().enumerate() {
                            let le = b.to_string();
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                fam.name,
                                prom_labels(&s.labels, Some(("le", &le))),
                                cumulative[i]
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            fam.name,
                            prom_labels(&s.labels, Some(("le", "+Inf"))),
                            count
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            fam.name,
                            prom_labels(&s.labels, None),
                            sum
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            fam.name,
                            prom_labels(&s.labels, None),
                            count
                        );
                    }
                }
            }
        }
        out
    }

    /// JSON rendering of the same data, shaped for `raw-trace`'s
    /// in-tree parser. Histogram buckets are `[le, cumulative]` pairs
    /// over the finite bounds; the `+Inf` cumulative equals `count`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"families\":[");
        for (fi, fam) in self.families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\",\"series\":[",
                escape_json(&fam.name),
                fam.kind.as_str(),
                escape_json(&fam.help)
            );
            for (si, s) in fam.series.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in s.labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
                }
                out.push('}');
                match &s.value {
                    SeriesValue::Scalar(v) => {
                        let _ = write!(out, ",\"value\":{v}");
                    }
                    SeriesValue::Hist {
                        bounds,
                        cumulative,
                        sum,
                        count,
                    } => {
                        let _ = write!(out, ",\"count\":{count},\"sum\":{sum},\"buckets\":[");
                        for (bi, b) in bounds.iter().enumerate() {
                            if bi > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "[{},{}]", b, cumulative[bi]);
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Buckets;

    #[test]
    fn scalar_rendering_and_ordering() {
        let mut reg = Registry::new();
        reg.counter_fn(
            "zeta_total",
            "last registered, first name-sorted? no",
            &[],
            |s: &[u64; 3]| s[1],
        );
        reg.counter_fn("alpha_total", "a counter", &[("kind", "x")], |s| s[0]);
        reg.gauge_fn("middle_gauge", "a gauge", &[], |s| s[2]);
        let text = reg.snapshot(&[3, 7, 42]).render_prometheus();
        let alpha = text.find("alpha_total").unwrap();
        let middle = text.find("middle_gauge").unwrap();
        let zeta = text.find("zeta_total").unwrap();
        assert!(alpha < middle && middle < zeta, "families sorted by name");
        assert!(text.contains("# TYPE alpha_total counter"));
        assert!(text.contains("alpha_total{kind=\"x\"} 3"));
        assert!(text.contains("# TYPE middle_gauge gauge"));
        assert!(text.contains("middle_gauge 42"));
        assert!(text.contains("zeta_total 7"));
    }

    #[test]
    fn histogram_rendering_is_cumulative_and_conserved() {
        let mut reg = Registry::new();
        reg.histogram_fn("lat_us", "latency", &[], |h: &Histogram| h);
        let h = Histogram::new(Buckets::from_bounds(vec![1, 10, 100]));
        for v in [1, 1, 5, 50, 5000] {
            h.record(v);
        }
        let text = reg.snapshot(&h).render_prometheus();
        assert!(text.contains("lat_us_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"10\"} 3"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 4"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_us_sum 5057"));
        assert!(text.contains("lat_us_count 5"));
    }

    #[test]
    fn scrape_fns_are_evaluated_per_snapshot() {
        let mut reg = Registry::new();
        reg.gauge_fn("derived", "scrape-time", &[], |s: &u64| *s);
        assert!(reg.snapshot(&5).render_prometheus().contains("derived 5"));
        assert!(reg.snapshot(&9).render_prometheus().contains("derived 9"));
    }

    #[test]
    fn json_rendering_has_expected_shape() {
        let mut reg = Registry::new();
        reg.counter_fn("req_total", "requests", &[("kind", "compile")], |_| 2);
        reg.histogram_fn("lat_us", "latency", &[], |h: &Histogram| h);
        let h = Histogram::new(Buckets::from_bounds(vec![10, 100]));
        h.record(7);
        h.record(70_000);
        let json = reg.snapshot(&h).render_json();
        assert!(json.contains("\"name\":\"lat_us\""));
        assert!(json.contains("\"count\":2,\"sum\":70007,\"buckets\":[[10,1],[100,1]]"));
        assert!(json.contains("\"labels\":{\"kind\":\"compile\"},\"value\":2"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = Registry::new();
        reg.counter_fn("esc_total", "", &[("who", "a\"b\\c\nd")], |_: &()| 1);
        let text = reg.snapshot(&()).render_prometheus();
        assert!(text.contains("esc_total{who=\"a\\\"b\\\\c\\nd\"} 1"));
        let json = reg.snapshot(&()).render_json();
        assert!(json.contains("\"who\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let mut reg = Registry::new();
        reg.counter_fn("same_name", "", &[], |_: &()| 0);
        reg.gauge_fn("same_name", "", &[("a", "b")], |_| 0);
    }

    #[test]
    #[should_panic(expected = "duplicate series")]
    fn duplicate_series_panic() {
        let mut reg = Registry::new();
        reg.counter_fn("dup_total", "", &[("a", "b")], |_: &()| 0);
        reg.counter_fn("dup_total", "", &[("a", "b")], |_| 0);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        Registry::new().counter_fn("9starts-with-digit", "", &[], |_: &()| 0);
    }
}
