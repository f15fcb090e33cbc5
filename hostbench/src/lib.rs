//! Host-time benchmark of the cvm simulator.
//!
//! Three workloads run through the workspace crates' public functions:
//! `sor`, `water-nsq-64` and `serve-ladder` (see `README.md` in this
//! directory for why each was chosen). An untraced run times them end to
//! end and checks every output; a traced run splits host time across the
//! simulator's layers from outside. The binary in `src/main.rs` is the
//! command; this library holds the pieces its tests reach too.

#![forbid(unsafe_code)]

use cvm_sim::Log2Hist;

pub mod hostclock;
pub mod traced;
pub mod units;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile of `h`, interpolated linearly inside the bucket
/// that holds its rank (the bucket clamped to the observed minimum and
/// maximum); 0 when empty. `Log2Hist::percentile` answers with the
/// bucket's upper bound instead, so its value jumps by 2x when the rank
/// crosses a bucket edge; this estimate moves smoothly with the data.
pub fn interpolated_percentile(h: &Log2Hist, p: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * h.count() as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (lo, hi, count) in h.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= rank {
            let lo = lo.max(h.min()) as f64;
            let hi = hi.min(h.max()) as f64;
            return lo + (rank - seen) / count * (hi - lo);
        }
        seen += count;
    }
    h.max() as f64
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit. Non-finite values are
/// written as 0 so the line always parses.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interpolated_percentile_tracks_the_data_inside_a_bucket() {
        let mut h = Log2Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Bucket bounds: p50 is the [256, 511] bucket's upper bound.
        assert_eq!(h.p50(), 511);
        let p50 = interpolated_percentile(&h, 50.0);
        assert!((p50 - 500.0).abs() < 2.0, "{p50}");
        let p99 = interpolated_percentile(&h, 99.0);
        assert!((p99 - 990.0).abs() < 2.0, "{p99}");
        assert_eq!(interpolated_percentile(&h, 100.0), 1000.0);
        assert_eq!(interpolated_percentile(&Log2Hist::new(), 99.0), 0.0);
    }

    #[test]
    fn result_line_parses_as_json() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("msgs", 800.0, "count"),
            ],
        );
        let v = cvm_sim::JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("value"))
                .and_then(cvm_sim::JsonValue::as_f64),
            Some(1.25)
        );
    }
}
