//! The paper's evaluation, reproduced: [`paper`] holds one function per
//! experiment (§5.1, Figs 2–5, Table 3, the ablations and the serving A/B),
//! each returning typed rows, and the `reproduce` binary prints them next
//! to the paper's reported numbers. This root holds the printing helpers
//! they share.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Write as _;

use rustwren_core::stats::ConcurrencyPoint;

pub mod paper;

/// The options every experiment takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Run a reduced-scale variant.
    pub smoke: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for BenchArgs {
    /// Full scale at seed 42, the scale and seed the paper tables quote.
    fn default() -> BenchArgs {
        BenchArgs {
            smoke: false,
            seed: 42,
        }
    }
}

impl BenchArgs {
    /// Scales an experiment size down in smoke mode.
    pub fn scaled(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// A plain-text table printer with aligned columns.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:w$} ", c, w = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.header);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
            if i == widths.len() - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders a concurrency-over-time series as an ASCII area chart
/// (the paper's Figs 2–3 black line).
pub fn ascii_series(series: &[ConcurrencyPoint], width: usize, height: usize) -> String {
    if series.is_empty() {
        return "(no activity)\n".to_owned();
    }
    let t_max = series.last().map(|&(t, _)| t).unwrap_or(1.0).max(1e-9);
    let c_max = series.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    // Sample the step function at `width` positions.
    let mut samples = vec![0usize; width];
    for (i, s) in samples.iter_mut().enumerate() {
        let t = t_max * i as f64 / (width.saturating_sub(1).max(1)) as f64;
        let mut level = 0;
        for &(pt, c) in series {
            if pt <= t {
                level = c;
            } else {
                break;
            }
        }
        *s = level;
    }
    let mut out = String::new();
    for row in (1..=height).rev() {
        let threshold = c_max as f64 * row as f64 / height as f64;
        let _ = write!(
            out,
            "{:>6} |",
            if row == height {
                c_max.to_string()
            } else {
                String::new()
            }
        );
        for &s in &samples {
            out.push(if s as f64 >= threshold { '#' } else { ' ' });
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{:>6} +{}", 0, "-".repeat(width));
    let _ = writeln!(out, "{:>6}  0{:>w$.0}s", "", t_max, w = width - 1);
    out
}

/// Formats seconds compactly for tables.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else {
        format!("{s:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Chunk", "Speedup"]);
        t.row(&["64MB".into(), "10.95x".into()]);
        t.row(&["2MB".into(), "135.79x".into()]);
        let r = t.render();
        assert!(r.contains("| Chunk | Speedup "));
        assert!(r.lines().count() >= 4);
        let widths: Vec<usize> = r.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{r}"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn ascii_series_shape() {
        let series = vec![(0.0, 0), (1.0, 10), (5.0, 0)];
        let chart = ascii_series(&series, 40, 5);
        assert!(chart.contains('#'));
        assert_eq!(chart.lines().count(), 7);
    }

    #[test]
    fn ascii_series_empty() {
        assert_eq!(ascii_series(&[], 10, 3), "(no activity)\n");
    }

    #[test]
    fn fmt_secs_precision() {
        assert_eq!(fmt_secs(8.25), "8.2s");
        assert_eq!(fmt_secs(5160.0), "5160s");
    }
}
