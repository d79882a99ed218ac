//! Plain-text table rendering for experiment reports.
//!
//! Every experiment in `vulnman-bench` prints its results through
//! this module so outputs are uniform and diff-able.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use vulnman_core::report::Table;
/// let mut t = Table::new(vec!["model", "F1"]);
/// t.row(vec!["token-lr".into(), "0.91".into()]);
/// let s = t.render();
/// assert!(s.contains("token-lr"));
/// assert!(s.contains("F1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: Vec<&str>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table { headers: headers.into_iter().map(String::from).collect(), rows: Vec::new() }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<width$}", width = widths[i]);
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }

    /// Prints the table to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Formats a float with 3 decimal places (experiment convention).
pub fn fmt3(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.3}")
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a dollar amount.
pub fn usd(x: f64) -> String {
    if x < 0.0 {
        format!("-${:.0}", -x)
    } else {
        format!("${x:.0}")
    }
}

/// Renders a [`DegradationSummary`] as a two-column table, for chaos-mode
/// experiment output (empty ledger → empty table, so fault-free runs print
/// nothing extra).
///
/// [`DegradationSummary`]: crate::workflow::DegradationSummary
pub fn degradation_table(deg: &crate::workflow::DegradationSummary) -> Table {
    let mut t = Table::new(vec!["degradation", "value"]);
    let injected = deg.transient + deg.timeout + deg.corrupt + deg.crash;
    if injected == 0 && !deg.is_degraded() {
        return t;
    }
    for (label, value) in [
        ("faults injected", injected),
        ("  transient", deg.transient),
        ("  timeout", deg.timeout),
        ("  corrupt", deg.corrupt),
        ("  crash", deg.crash),
        ("retries", deg.retries),
        ("recovered", deg.recovered),
        ("exhausted", deg.exhausted),
        ("assessments lost", deg.assessments_lost),
        ("ml failures", deg.ml_failures),
        ("degraded samples", deg.degraded_samples as u64),
    ] {
        t.row(vec![label.into(), value.to_string()]);
    }
    let quarantined =
        if deg.quarantined.is_empty() { "none".into() } else { deg.quarantined.join(", ") };
    t.row(vec!["quarantined".into(), quarantined]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // The value column starts at the same offset on data rows.
        let off1 = lines[2].find('1').unwrap();
        let off2 = lines[3].find('2').unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains('x'));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt3(0.12345), "0.123");
        assert_eq!(fmt3(f64::INFINITY), "inf");
        assert_eq!(pct(0.255), "25.5%");
        assert_eq!(usd(1234.7), "$1235");
        assert_eq!(usd(-50.0), "-$50");
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = Table::new(vec![]);
    }

    #[test]
    fn degradation_table_is_empty_for_clean_runs_and_full_for_degraded() {
        let clean = crate::workflow::DegradationSummary::default();
        assert!(degradation_table(&clean).is_empty());
        let degraded = crate::workflow::DegradationSummary {
            transient: 3,
            retries: 4,
            recovered: 2,
            exhausted: 1,
            assessments_lost: 1,
            degraded_samples: 1,
            quarantined: vec!["rule-suite".into()],
            ..Default::default()
        };
        let rendered = degradation_table(&degraded).render();
        assert!(rendered.contains("faults injected"));
        assert!(rendered.contains("rule-suite"));
    }
}
