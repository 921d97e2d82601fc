//! Plain-text table rendering for the experiment binaries.

use std::fmt::Write as _;

/// A simple left-padded ASCII table.
///
/// # Examples
///
/// ```
/// use mbta::report::Table;
///
/// let mut t = Table::new(vec!["model", "ratio"]);
/// t.row(vec!["fTC".into(), "1.95".into()]);
/// t.row(vec!["ILP-PTAC".into(), "1.49".into()]);
/// let s = t.render();
/// assert!(s.contains("ILP-PTAC"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<impl Into<String>>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
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

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let rule = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        let line = |out: &mut String, cells: &[String]| {
            for i in 0..cols {
                let _ = write!(out, "| {:w$} ", cells[i], w = widths[i]);
            }
            out.push_str("|\n");
        };
        rule(&mut out);
        line(&mut out, &self.headers);
        rule(&mut out);
        for row in &self.rows {
            line(&mut out, row);
        }
        rule(&mut out);
        out
    }
}

/// Formats a ratio like the paper's Figure 4 annotations (e.g. "1.49").
pub fn ratio(value: f64) -> String {
    format!("{value:.2}")
}

/// The reproducibility footer appended under the Figure 4 / Table 6
/// tables: how the numbers above were obtained — which rung of the
/// ILP-PTAC ladder settled each bound, campaign retries and the
/// engine's memo-cache hit rate. Every input is a deterministic
/// telemetry counter, so the footer itself is byte-identical across
/// worker counts and timing kernels.
pub fn reproducibility_footer(telemetry: &crate::Telemetry) -> String {
    let solves = telemetry.det_counter("ilp.solves");
    let relaxed = telemetry.det_counter("ilp.lp_relax");
    let fallbacks = telemetry.det_counter("ilp.fallback_ftc");
    let retried = telemetry.det_counter("campaign.retried");
    let hits = telemetry.det_counter("exec.cache_hits");
    let misses = telemetry.det_counter("exec.cache_misses");
    let pct = if hits + misses == 0 {
        0.0
    } else {
        100.0 * hits as f64 / (hits + misses) as f64
    };
    format!(
        "reproducibility: ilp-ptac {solves} solves ({relaxed} lp-relax, {fallbacks} \
         fallback=ftc), retries {retried}, cache hits {hits}/{} ({pct:.0}%)\n",
        hits + misses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Frame + header + frame + row + frame.
        assert_eq!(lines.len(), 5);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "{s}");
        assert!(s.contains("long-header"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1.4932), "1.49");
        assert_eq!(ratio(2.0), "2.00");
    }

    #[test]
    fn emptiness() {
        let t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn reproducibility_footer_reads_telemetry_counters() {
        let t = crate::Telemetry::new("test");
        t.record_solve("solve:a", 10, contention::BoundSource::Ilp);
        t.record_solve("solve:b", 20, contention::BoundSource::LpRelax);
        let footer = reproducibility_footer(&t);
        assert!(
            footer.contains("ilp-ptac 2 solves (1 lp-relax, 0 fallback=ftc)"),
            "{footer}"
        );
        assert!(footer.contains("retries 0"), "{footer}");
        // An empty recorder renders zeros, not NaNs.
        let empty = reproducibility_footer(&crate::Telemetry::new("empty"));
        assert!(empty.contains("ilp-ptac 0 solves"), "{empty}");
        assert!(empty.contains("cache hits 0/0 (0%)"), "{empty}");
    }
}
