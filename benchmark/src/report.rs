//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`, printed last on standard output.

use std::fmt::Write;

/// End-to-end metrics in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("reduce_s", "s"),
    ("rom_sim_s", "s"),
    ("full_sim_s", "s"),
    ("rom_speedup", "ratio"),
    ("max_rel_error", "ratio"),
    ("rom_order", "count"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// A JSON number, or `null` for a value that could not be measured.
fn number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:?}"),
        _ => "null".to_string(),
    }
}

/// Renders the result object for `metrics` (`(name, unit, value)`).
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, Option<f64>)],
) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_flat_json() {
        let line = result_line(true, 3, 0, &[("a_s", "s", Some(1.5)), ("b", "count", None)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }
}
