//! Metric naming, families, and exposition.
//!
//! A [`Registry`] is a table of scrape entries over one state type `S`:
//! each entry names a series (metric name, help, label set) and says how
//! to read it from an `&S` — a counter or gauge value, or a histogram the
//! state owns — or a column of a counter table the state lists at scrape
//! time, one row per label value. The registry stores no values: the state
//! keeps its own atomics, and [`Registry::snapshot`] reads every entry and
//! table from it once. Entries sharing a name form one *family*.

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
    /// Column `.1` of table `.0`: one series per row, under the table's key.
    Column(usize, usize),
}

/// A counter table's rows as `(label value, one count per column)`.
type TableRead<S> = Box<dyn Fn(&S) -> Vec<(String, Vec<u64>)> + Send + Sync>;

struct Series<S> {
    labels: Labels,
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
    tables: Vec<(String, TableRead<S>)>,
}

impl<S> Default for Registry<S> {
    fn default() -> Self {
        Registry {
            families: Vec::new(),
            tables: Vec::new(),
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
            // A table column's one entry stands for all its family's series.
            let column = |r: &Read<S>| matches!(r, Read::Column(..));
            let clash = |s: &Series<S>| s.labels == labels || column(&s.read);
            assert!(
                !column(&read) && !fam.series.iter().any(clash),
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

    /// Counter families, one per name, each the column of one table that
    /// `read` lists once per snapshot (so the families agree row by row): a
    /// row `(value, counts)` is one series per family, labelled
    /// `key="value"`. Values may come from outside the program.
    pub fn counter_table_fn(
        &mut self,
        names: impl IntoIterator<Item = String>,
        help: &str,
        key: &str,
        read: impl Fn(&S) -> Vec<(String, Vec<u64>)> + Send + Sync + 'static,
    ) {
        assert!(valid_name(key), "invalid label name {key:?}");
        for (column, name) in names.into_iter().enumerate() {
            let read = Read::Column(self.tables.len(), column);
            self.register(&name, help, &[], MetricKind::Counter, read);
        }
        self.tables.push((key.to_string(), Box::new(read)));
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
    /// series keep registration order within a family (a table column's,
    /// the order its table lists its rows in).
    pub fn snapshot(&self, state: &S) -> Snapshot {
        let rows: Vec<_> = self.tables.iter().map(|(_, read)| read(state)).collect();
        let read = |fam: &Family<S>| {
            let mut series = Vec::with_capacity(fam.series.len());
            for s in &fam.series {
                let value = match &s.read {
                    Read::Scalar(read) => SeriesValue::Scalar(read(state)),
                    Read::Histogram(read) => SeriesValue::Hist(read(state).snapshot()),
                    &Read::Column(table, column) => {
                        series.extend(rows[table].iter().map(|(v, n)| SeriesSnapshot {
                            labels: vec![(self.tables[table].0.clone(), v.clone())],
                            value: SeriesValue::Scalar(n[column]),
                        }));
                        continue;
                    }
                };
                let labels = s.labels.clone();
                series.push(SeriesSnapshot { labels, value });
            }
            FamilySnapshot {
                name: fam.name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                series,
            }
        };
        let mut families: Vec<FamilySnapshot> = self.families.iter().map(read).collect();
        families.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { families }
    }
}

/// One resolved series value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeriesValue {
    Scalar(u64),
    Hist(HistSnapshot),
}

impl SeriesValue {
    /// A counter's or gauge's value; 0 for a histogram.
    fn scalar(&self) -> u64 {
        match self {
            SeriesValue::Scalar(v) => *v,
            SeriesValue::Hist(_) => 0,
        }
    }
}

/// A histogram series at one scrape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Cumulative counts per finite bound plus a final `+Inf` entry;
    /// `cumulative.len() == bounds.len() + 1`.
    pub cumulative: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistSnapshot {
    /// Nearest-rank quantile, `q` in `[0, 1]`, ranked against the count
    /// (overflow included): the upper bound of the ranked sample's bucket,
    /// the last finite bound for an overflow sample, 0 with no samples. It
    /// is the crate's one quantile: `top` and `serve --stats` both read it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let at = self.cumulative.partition_point(|&c| c < rank);
        self.bounds
            .get(at)
            .or(self.bounds.last())
            .copied()
            .unwrap_or(0)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    pub labels: Labels,
    pub value: SeriesValue,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub series: Vec<SeriesSnapshot>,
}

impl FamilySnapshot {
    /// The family's sample lines as the exposition lays them out, each a
    /// `(name, labels, value)`: one per scalar series, and per histogram
    /// series a cumulative `_bucket` per finite bound, a `+Inf` bucket equal
    /// to the count (each with its `le` label last), then `_sum` and
    /// `_count`.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for s in &self.series {
            let SeriesValue::Hist(h) = &s.value else {
                out.push((self.name.clone(), s.labels.clone(), s.value.scalar()));
                continue;
            };
            let les = h.bounds.iter().map(u64::to_string).chain(["+Inf".into()]);
            let counts = h.cumulative[..h.bounds.len()].iter().chain([&h.count]);
            for (le, &c) in les.zip(counts) {
                let labels = s.labels.iter().cloned().chain([("le".into(), le)]);
                out.push((format!("{}_bucket", self.name), labels.collect(), c));
            }
            out.push((format!("{}_sum", self.name), s.labels.clone(), h.sum));
            out.push((format!("{}_count", self.name), s.labels.clone(), h.count));
        }
        out
    }
}

/// A point-in-time capture of a [`Registry`]. Its one rendering is
/// Prometheus text, and [`Snapshot::parse_prometheus`] reads that text back
/// into an equal snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub families: Vec<FamilySnapshot>,
}

/// A series' label pairs, in registration order.
pub type Labels = Vec<(String, String)>;

/// One sample line: name (with any `_bucket`/`_sum`/`_count` suffix),
/// labels and value.
pub type Sample = (String, Labels, u64);

/// Escapes `\`, `"` and newline, the three characters the exposition
/// format escapes in label values and help text.
fn escape_prom(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The inverse of [`escape_prom`]; `None` for text it never writes (a
/// dangling or unknown escape, or a bare `"`).
fn unescape_prom(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(match (c, c == '\\') {
            (_, true) => match chars.next()? {
                'n' => '\n',
                c @ ('\\' | '"') => c,
                _ => return None,
            },
            (c, false) => c,
        });
    }
    (escape_prom(&out) == s).then_some(out)
}

/// A label set as the exposition spells it, `{k="v",…}` with values
/// escaped, or nothing when empty.
pub fn prom_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_prom(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// One sample line, `name{k="v",…} value`, split into its parts.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (series, value) = line.rsplit_once(' ').ok_or("a sample needs a value")?;
    let value = value
        .parse()
        .map_err(|_| format!("value {value:?} is not a u64"))?;
    let (name, mut body) = series.split_once('{').unwrap_or((series, "}"));
    let mut labels = Vec::new();
    while let Some((key, after)) = body.split_once("=\"") {
        if !valid_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        // The value ends at the first quote no backslash escapes.
        let mut escaped = false;
        let (end, _) = after
            .char_indices()
            .find(|&(_, c)| {
                let closes = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                closes
            })
            .ok_or("an unterminated label value")?;
        let value = unescape_prom(&after[..end]).ok_or("a bad escape in a label value")?;
        labels.push((key.to_string(), value));
        body = after[end + 1..]
            .strip_prefix(',')
            .unwrap_or(&after[end + 1..]);
    }
    Ok((name.to_string(), labels, value))
}

impl Snapshot {
    /// Finds family `name`.
    fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The series of family `name` with exactly `labels`, in registration
    /// order.
    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        let same = |s: &&SeriesSnapshot| {
            let pairs = s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            pairs.eq(labels.iter().copied())
        };
        Some(&self.family(name)?.series.iter().find(same)?.value)
    }

    /// The value of counter or gauge `name{labels}`; 0 when absent.
    pub fn scalar(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.get(name, labels).map_or(0, SeriesValue::scalar)
    }

    /// Histogram `name{labels}`, when there is one.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistSnapshot> {
        match self.get(name, labels)? {
            SeriesValue::Hist(h) => Some(h),
            SeriesValue::Scalar(_) => None,
        }
    }

    /// The sum over every series of counter or gauge family `name`.
    pub fn scalar_sum(&self, name: &str) -> u64 {
        let series = self.family(name).map_or(&[][..], |f| &f.series);
        series.iter().map(|s| s.value.scalar()).sum()
    }

    /// The number of series in family `name`; 0 when absent.
    pub fn series_count(&self, name: &str) -> usize {
        self.family(name).map_or(0, |f| f.series.len())
    }

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
            for (name, labels, value) in fam.samples() {
                let _ = writeln!(out, "{name}{} {value}", prom_labels(&labels));
            }
        }
        out
    }

    /// Reads a [`Snapshot::render_prometheus`] text back:
    /// `parse_prometheus(&s.render_prometheus()) == Ok(s)` for every
    /// snapshot a [`Registry`] takes. A histogram's `_bucket`/`_sum`/`_count`
    /// lines fold back into one [`HistSnapshot`].
    ///
    /// # Errors
    ///
    /// `"metrics line N: <reason>"` for a line the renderer would not write
    /// (a bad escape, a value that is not a `u64`, an unknown kind, a sample
    /// outside a family or spelled otherwise than rendered), and
    /// `"metrics family F is not a rendering"` when a family's samples are
    /// not what [`FamilySnapshot::samples`] lays out for the series they
    /// fold into: out of order, mislabelled, or a `+Inf` bucket other than
    /// the `_count`.
    pub fn parse_prometheus(text: &str) -> Result<Snapshot, String> {
        let mut families: Vec<(String, String, MetricKind, Vec<Sample>)> = Vec::new();
        let mut help: Option<(&str, String)> = None;
        for (n, line) in text.split_terminator('\n').enumerate() {
            let at = |reason: &str| format!("metrics line {}: {reason}", n + 1);
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, text) = rest
                    .split_once(' ')
                    .ok_or_else(|| at("# HELP needs a text"))?;
                help = Some((name, unescape_prom(text).ok_or_else(|| at("a bad escape"))?));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| at("# TYPE needs a kind"))?;
                let kind = match kind {
                    "counter" => MetricKind::Counter,
                    "gauge" => MetricKind::Gauge,
                    "histogram" => MetricKind::Histogram,
                    _ => return Err(at(&format!("unknown metric kind {kind:?}"))),
                };
                let help = match help.take() {
                    Some((named, help)) if named == name => help,
                    Some((named, _)) => return Err(at(&format!("# HELP {named} before it"))),
                    None => String::new(),
                };
                families.push((name.to_string(), help, kind, Vec::new()));
            } else {
                let samples = match families.last_mut() {
                    Some((.., samples)) if help.is_none() => samples,
                    _ => return Err(at("a sample outside a family")),
                };
                let (name, labels, value) = parse_sample(line).map_err(|e| at(&e))?;
                if format!("{name}{} {value}", prom_labels(&labels)) != line {
                    return Err(at("a sample spelled otherwise than rendered"));
                }
                samples.push((name, labels, value));
            }
        }
        if help.is_some() {
            return Err("metrics text ends after a # HELP".into());
        }
        let families = families.into_iter().map(|(name, help, kind, samples)| {
            FamilySnapshot {
                name,
                help,
                kind,
                series: Vec::new(),
            }
            .fold(&samples)
        });
        Ok(Snapshot {
            families: families.collect::<Result<_, _>>()?,
        })
    }
}

impl FamilySnapshot {
    /// Folds sample lines into this (series-less) family's series: each is
    /// one scalar, or a histogram's run of `_bucket` lines then `_sum` and
    /// `_count`. The fold is exact only if the series lay the same lines
    /// back out.
    fn fold(mut self, samples: &[Sample]) -> Result<FamilySnapshot, String> {
        let not_a_rendering = || format!("metrics family {} is not a rendering", self.name);
        let mut rest = samples;
        while let Some((_, labels, value)) = rest.first() {
            let (labels, value) = if self.kind != MetricKind::Histogram {
                rest = &rest[1..];
                (labels, SeriesValue::Scalar(*value))
            } else {
                let n = rest.iter().take_while(|s| s.0.ends_with("_bucket")).count();
                let (buckets, tail) = rest.split_at(n);
                let [(_, labels, sum), (_, _, count), tail @ ..] = tail else {
                    return Err(not_a_rendering());
                };
                let les = buckets[..n.saturating_sub(1)].iter();
                let bounds = les.map(|(_, l, _)| l.last()?.1.parse().ok());
                let bounds = bounds.collect::<Option<_>>().ok_or_else(not_a_rendering)?;
                let cumulative = buckets.iter().map(|&(.., c)| c).collect();
                let (sum, count) = (*sum, *count);
                rest = tail;
                (
                    labels,
                    SeriesValue::Hist(HistSnapshot {
                        bounds,
                        cumulative,
                        sum,
                        count,
                    }),
                )
            };
            self.series.push(SeriesSnapshot {
                labels: labels.clone(),
                value,
            });
        }
        if self.samples() != samples {
            return Err(not_a_rendering());
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Buckets;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Counters and gauges with and without labels, `"`, `\` and a newline
    /// in a label value and a help text, and two histograms over the state.
    fn sample_registry() -> Registry<[Histogram; 2]> {
        let mut reg: Registry<[Histogram; 2]> = Registry::new();
        reg.counter_fn("zeta_total", "registered first", &[], |_| u64::MAX);
        reg.counter_fn("req_total", "by kind", &[("kind", "a")], |_| 7);
        reg.counter_fn("req_total", "by kind", &[("kind", "b")], |_| 2);
        reg.gauge_fn("pair", "", &[("x", "1"), ("y", "")], |_| 2);
        let help = "help with \\ and \"quotes\"\nand a line";
        reg.counter_fn("esc_total", help, &[("who", "a\"b\\c\nd")], |_| 1);
        reg.histogram_fn("lat_us", "latency", &[], |h| &h[0]);
        reg.histogram_fn("phase_us", "", &[("phase", "a")], |h| &h[1]);
        reg
    }

    fn sample_state() -> [Histogram; 2] {
        let state = [vec![1, 10, 100], vec![5]].map(|b| Histogram::new(Buckets::from_bounds(b)));
        for v in [1, 1, 5, 50, 5000] {
            state[0].record(v);
        }
        state
    }

    #[test]
    fn rendering_is_sorted_escaped_and_cumulative() {
        let text = sample_registry()
            .snapshot(&sample_state())
            .render_prometheus();
        let want = r#"# HELP esc_total help with \\ and \"quotes\"\nand a line
# TYPE esc_total counter
esc_total{who="a\"b\\c\nd"} 1
# HELP lat_us latency
# TYPE lat_us histogram
lat_us_bucket{le="1"} 2
lat_us_bucket{le="10"} 3
lat_us_bucket{le="100"} 4
lat_us_bucket{le="+Inf"} 5
lat_us_sum 5057
lat_us_count 5
# TYPE pair gauge
pair{x="1",y=""} 2
# TYPE phase_us histogram
phase_us_bucket{phase="a",le="5"} 0
phase_us_bucket{phase="a",le="+Inf"} 0
phase_us_sum{phase="a"} 0
phase_us_count{phase="a"} 0
# HELP req_total by kind
# TYPE req_total counter
req_total{kind="a"} 7
req_total{kind="b"} 2
# HELP zeta_total registered first
# TYPE zeta_total counter
zeta_total 18446744073709551615
"#;
        assert_eq!(text, want);
    }

    /// Entries read at every snapshot; a table, once for all its columns.
    #[test]
    fn scrape_fns_are_evaluated_per_snapshot() {
        let mut reg = Registry::new();
        reg.gauge_fn("derived", "", &[], |s: &AtomicU64| s.load(Relaxed));
        let bump = |s: &AtomicU64| vec![("v".to_string(), vec![s.fetch_add(1, Relaxed); 2])];
        reg.counter_table_fn(["a_total", "b_total"].map(String::from), "", "k", bump);
        let state = AtomicU64::new(5);
        for n in [5, 6] {
            let scrape = reg.snapshot(&state);
            let [a, b] = ["a_total", "b_total"].map(|f| scrape.scalar(f, &[("k", "v")]));
            assert_eq!([a, b, scrape.scalar("derived", &[])], [n, n, n + 1]);
        }
    }

    /// A two-column table's rows over label values from outside the
    /// program: every character the exposition escapes or its syntax uses,
    /// the empty string, non-ASCII text, a whole sample line, and a 64-byte
    /// name (the compile daemon's client-name bound).
    fn outside_rows() -> Vec<(String, Vec<u64>)> {
        let escaped = ["\"", "\\", "\n", "}", ",", "=", " ", "#", "", "ünï 名"];
        let mut values = Vec::from(escaped.map(String::from));
        values.push("a\"b}\n c".into());
        values.push("x{k=\"v\",j=\"w\"} 7 # \\\"".into());
        values.push("n".repeat(64));
        values.into_iter().map(|v| (v, vec![1, 2])).collect()
    }

    /// `parse_prometheus(render_prometheus(s)) == s` on the sample registry
    /// plus a counter table of [`outside_rows`], before and after a
    /// histogram takes an overflow sample.
    #[test]
    fn parse_inverts_render() {
        let (mut reg, state) = (sample_registry(), sample_state());
        let names = ["client_total", "client_hits_total"].map(String::from);
        reg.counter_table_fn(names, "by client", "client", |_| outside_rows());
        for _ in 0..2 {
            let snapshot = reg.snapshot(&state);
            let text = snapshot.render_prometheus();
            let back = Snapshot::parse_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(back, snapshot, "{text}");
            state[1].record(6);
        }
        // Overflow samples rank against the +Inf total.
        let scraped = reg.snapshot(&state);
        let lat = scraped.hist("lat_us", &[]).unwrap();
        let quantiles = [0.0, 0.25, 0.5, 0.6, 0.9, 0.99, 1.0].map(|q| lat.quantile(q));
        assert_eq!(quantiles, [1, 1, 10, 10, 100, 100, 100]);
        assert_eq!(scraped.scalar("req_total", &[("kind", "a")]), 7);
        assert_eq!(scraped.scalar_sum("req_total"), 9);
    }

    #[test]
    #[should_panic(expected = "duplicate series")]
    fn a_table_column_is_one_entry() {
        let mut reg = Registry::new();
        let names = ["by_client_total".to_string()];
        reg.counter_table_fn(names, "", "client", |_: &()| Vec::new());
        reg.counter_fn("by_client_total", "", &[("client", "a")], |_| 0);
    }

    #[test]
    fn parse_rejects_what_render_never_writes() {
        let bad = |text: &str| Snapshot::parse_prometheus(text).unwrap_err();
        assert!(bad("x 1\n").contains("line 1: a sample outside a family"));
        assert!(bad("# TYPE x summary\n").contains("unknown metric kind"));
        assert!(bad("# TYPE x counter\nx{a=\"b} 1\n").contains("line 2: an unterminated"));
        assert!(bad("# TYPE x counter\nx{a=\"\\t\"} 1\n").contains("bad escape"));
        assert!(bad("# TYPE x counter\nx -1\n").contains("not a u64"));
        for sample in ["x{a=\"b\"c=\"d\"} 1", "x{a=\"b\",} 1", "x{} 1"] {
            let text = format!("# TYPE x counter\n{sample}\n");
            assert!(bad(&text).contains("spelled otherwise"), "{sample}");
        }
        assert!(bad("# HELP x h\n# TYPE y gauge\n").contains("# HELP x before it"));
        assert!(bad("# HELP x h\n").contains("ends after a # HELP"));
        let hist = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n";
        for text in [
            "# TYPE x counter\ny 1\n".to_string(),
            format!("{hist}h_sum 3\nh_count 1\n"),
            format!("{hist}h_sum{{a=\"b\"}} 3\nh_count 2\n"),
            format!("{hist}h_count 2\nh_sum 3\n"),
            format!("{hist}h_sum 3\n"),
            "# TYPE h histogram\nh_bucket{le=\"x\"} 1\nh_sum 3\nh_count 1\n".into(),
        ] {
            assert!(bad(&text).contains("is not a rendering"), "{text}");
        }
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
