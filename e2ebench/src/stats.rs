//! Raw-sample statistics and the metric records the benchmark prints.
//!
//! Percentiles are read from the sorted raw samples (nearest rank), never
//! from histogram buckets, and every timing carries its sample count and
//! how many samples lie beyond the reported percentile.

use std::fmt::Write as _;

/// Raw per-operation samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        self.values[rank - 1]
    }

    /// Samples strictly beyond the nearest-rank percentile `q`.
    pub fn beyond(&mut self, q: f64) -> usize {
        if self.values.is_empty() {
            return 0;
        }
        let rank = ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        self.values.len() - rank
    }
}

/// Samples of a measured phase split into equal time windows. A
/// transient burst of host noise moves a window or two, not the median
/// over windows, which is what the end-to-end metrics report.
#[derive(Debug)]
pub struct Windows {
    span: f64,
    bins: Vec<Samples>,
}

impl Windows {
    pub const COUNT: usize = 10;

    /// Windows over a phase of `span` seconds.
    pub fn new(span: f64) -> Self {
        Windows {
            span,
            bins: vec![Samples::default(); Self::COUNT],
        }
    }

    /// Adds a sample taken `at` seconds into the phase.
    pub fn push(&mut self, at: f64, v: f64) {
        let i = (at / self.span * Self::COUNT as f64) as usize;
        self.bins[i.min(Self::COUNT - 1)].push(v);
    }

    /// Records the median over windows of each window's percentile `q`;
    /// `beyond` is the fewest samples beyond it in any window.
    pub fn put_quantile(&mut self, set: &mut MetricSet, name: &str, unit: &'static str, q: f64) {
        let per_window: Vec<f64> = self.bins.iter_mut().map(|b| b.quantile(q)).collect();
        let beyond = self.bins.iter_mut().map(|b| b.beyond(q)).min().unwrap_or(0);
        set.0.push(Metric {
            name: name.to_string(),
            unit,
            value: median(&per_window),
            samples: self.bins.iter().map(|b| b.len() as u64).sum(),
            beyond: Some(beyond as u64),
        });
    }

    /// Records the median over windows of `weight` × samples per second.
    pub fn put_rate(&self, set: &mut MetricSet, name: &str, unit: &'static str, weight: f64) {
        let width = self.span / Self::COUNT as f64;
        let per_window: Vec<f64> = self
            .bins
            .iter()
            .map(|b| b.len() as f64 * weight / width)
            .collect();
        let samples = self.bins.iter().map(|b| b.len() as u64).sum::<u64>();
        set.put(name, unit, median(&per_window), samples * weight as u64);
    }
}

/// The median of a small list (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.quantile(0.5)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (operations, rounds, cycles or calls).
    pub samples: u64,
    /// For a percentile: samples beyond it.
    pub beyond: Option<u64>,
}

/// A list of metrics in print order.
#[derive(Debug, Default)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            beyond: None,
        });
    }

    /// Records percentile `q` of `samples` under `name`.
    pub fn put_quantile(&mut self, name: &str, unit: &'static str, s: &mut Samples, q: f64) {
        let value = s.quantile(q);
        let beyond = s.beyond(q) as u64;
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: s.len() as u64,
            beyond: Some(beyond),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable lines, one per metric.
    pub fn render(&self, prefix: &str) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = write!(
                out,
                "{prefix} {:<28} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
            if let Some(b) = m.beyond {
                let _ = write!(out, " beyond={b}");
                if b < 10 {
                    out.push_str(" (fewer than 10 samples beyond)");
                }
            }
            out.push('\n');
        }
        out
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the names given, in
    /// that order. Every name must be present.
    pub fn contract_json(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .0
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// Every metric with its sample counts, as a JSON array.
    pub fn full_json(&self) -> String {
        let mut out = String::from("[");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"samples\": {}",
                m.name,
                m.unit,
                json_number(m.value),
                m.samples
            );
            if let Some(b) = m.beyond {
                let _ = write!(out, ", \"beyond\": {b}");
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// A finite JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal (ASCII escapes only).
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// SplitMix64: the benchmark's seed-derived input stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic input derived from `(seed, stream, index)`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)) ^ index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.quantile(0.5), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.beyond(0.99), 10);
    }
}
