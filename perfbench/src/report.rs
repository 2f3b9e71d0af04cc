//! Metric names, summary statistics and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics of an untraced run (`--trace 0`), with units.
/// Some figures are printed only in the detail line. The error rate: a
/// passing run's is 0, which no relative bound can hold, so it is
/// carried by the result's `attempted` and `failed` counts. And the
/// write latencies: fsync stalls on a shared host swing them by more
/// than any bound the benchmark may set (see `README.md`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("read_qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("disk_bytes_per_xml_byte", "ratio"),
    ("server_rss_mb", "MB"),
    ("reopen_s", "s"),
];

/// Per-layer metrics of a traced run (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("xpath.parse_us", "us"),
    ("core.compile_us", "us"),
    ("core.optimize_us", "us"),
    ("core.rules_applied", "count"),
    ("core.qerror_p50", "ratio"),
    ("core.qerror_max", "ratio"),
    ("core.execute_us", "us"),
    ("core.rows", "count"),
    ("core.fused_chains", "count"),
    ("core.par_morsels", "count"),
    ("mass.pool.hits", "count"),
    ("mass.pool.misses", "count"),
    ("mass.pool.hit_ratio", "ratio"),
    ("mass.pool.pins_saved", "count"),
    ("mass.decode.v1", "count"),
    ("mass.decode.v2", "count"),
    ("mass.pages", "count"),
    ("mass.tuples_per_page", "count"),
    ("mass.load_ms", "ms"),
    ("core.insert_us", "us"),
    ("core.delete_us", "us"),
    ("mass.wal.fsyncs_per_write", "count"),
    ("mass.wal.records_per_write", "count"),
    ("mass.checkpoint_ms", "ms"),
    ("server.render_us", "us"),
    ("server.wire_us", "us"),
    ("server.plan_cache_hit_ratio", "ratio"),
    ("server.busy_rejections", "count"),
    ("server.timeouts", "count"),
    ("core.writer_wait_us", "us"),
    ("trace.read_qps", "1/s"),
    ("trace.gap_pct", "%"),
];

/// Nearest-rank percentile `p` (0–100) of `values`, sorted in place;
/// 0 when empty.
pub(crate) fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Milliseconds of each duration.
pub(crate) fn millis(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Median of `values` (0 when empty).
pub(crate) fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Most time slots a run is cut into.
const MAX_SLOTS: usize = 10;

/// The values of `points` grouped into `slots` equal time slots of
/// `span` (anything later lands in the last slot).
fn by_slot(points: &[(Duration, f64)], span: Duration, slots: usize) -> Vec<Vec<f64>> {
    let slot = span.as_secs_f64() / slots as f64;
    let mut groups = vec![Vec::new(); slots];
    for (at, value) in points {
        groups[((at.as_secs_f64() / slot) as usize).min(slots - 1)].push(*value);
    }
    groups
}

/// The `p`th percentile of the values in `points`, each stamped with
/// its time within `span`, taken per time slot; returns the median over
/// the slots and the per-slot values. The host's speed drifts in
/// bursts of a few seconds; a burst that covers fewer than half the
/// slots barely moves the median. `span` is cut into as many slots (at
/// most [`MAX_SLOTS`]) as leave each about ten values beyond the
/// percentile and a hundred values in all, so the per-slot percentiles
/// rest on enough samples and on the whole read mix: a slot of a few
/// dozen scans holds an uneven share of each scan type, and its median
/// follows that share.
pub(crate) fn slotted_percentile(
    points: &[(Duration, f64)],
    span: Duration,
    p: f64,
) -> (f64, Vec<f64>) {
    let n = points.len() as f64;
    let slots = ((n * (1.0 - p / 100.0) / 10.0).min(n / 100.0) as usize).clamp(1, MAX_SLOTS);
    let mut per_slot: Vec<f64> = by_slot(points, span, slots)
        .iter_mut()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(g, p))
        .collect();
    let out = per_slot.clone();
    (median(&mut per_slot), out)
}

/// Events per second over `span`: the median over time slots of each
/// slot's rate (an empty slot counts as 0). `span` is cut into as many
/// slots (at most [`MAX_SLOTS`]) as leave about a hundred events in
/// each, so a rate is not rounded to a few events per slot.
pub(crate) fn slotted_rate(events: &[(Duration, f64)], span: Duration) -> f64 {
    let slots = (events.len() / 100).clamp(1, MAX_SLOTS);
    let slot_secs = span.as_secs_f64() / slots as f64;
    let mut rates: Vec<f64> = by_slot(events, span, slots)
        .iter()
        .map(|g| g.len() as f64 / slot_secs)
        .collect();
    median(&mut rates)
}

/// A JSON object under construction. Non-finite numbers, which JSON
/// cannot carry, are written as `null`.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&quote(key));
        self.body.push(':');
    }

    /// Adds a number.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.body.push_str(&quote(value));
        self
    }

    /// Adds a list of strings.
    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut Self {
        self.key(key);
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        let _ = write!(self.body, "[{}]", items.join(","));
        self
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, value: &JsonObject) -> &mut Self {
        self.key(key);
        self.body.push_str(&value.render());
        self
    }

    /// The object's text.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn slot_statistics_ignore_a_short_burst() {
        // 10 s with 1,000 values a second; the last 2 s are ten times
        // slower and half as frequent.
        let points: Vec<(Duration, f64)> = (0..9_000)
            .map(|i| {
                if i < 8_000 {
                    (Duration::from_millis(i), 1.0)
                } else {
                    (Duration::from_millis(8_000 + (i - 8_000) * 2), 10.0)
                }
            })
            .collect();
        let span = Duration::from_secs(10);
        let (p50, slots) = slotted_percentile(&points, span, 50.0);
        assert_eq!((p50, slots.len()), (1.0, MAX_SLOTS));
        assert_eq!(slotted_rate(&points, span), 1_000.0);
        // Too few values beyond the 95th percentile for more than one slot.
        let few = &points[..150];
        assert_eq!(slotted_percentile(few, span, 95.0).1.len(), 1);
    }

    #[test]
    fn json_escapes_and_nulls() {
        let mut o = JsonObject::default();
        o.str("q", "a\"b").num("x", f64::INFINITY).int("n", 3);
        assert_eq!(o.render(), r#"{"q":"a\"b","x":null,"n":3}"#);
    }
}
