//! Plain-text and CSV rendering of experiment result tables.
//!
//! Every figure in the paper is reported by the harness as a table whose rows
//! are the x-axis (number of concurrent users) and whose columns are the
//! series (number of slaves). This module renders those tables for the
//! terminal and as CSV for external plotting.

use std::fmt::Write as _;
use std::io;

/// A rectangular results table: a header row plus data rows of equal arity.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: Vec<String>) -> Self {
        Self {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Append a data row.
    ///
    /// # Panics
    /// Panics when the row arity does not match the header (harness bug).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(row);
    }

    /// Convenience: append a row of floats rendered with `prec` decimals;
    /// `None` cells render as `-`.
    pub fn push_float_row(&mut self, label: impl Into<String>, cells: &[Option<f64>], prec: usize) {
        let mut row = vec![label.into()];
        for c in cells {
            row.push(match c {
                Some(v) => format!("{v:.prec$}"),
                None => "-".to_string(),
            });
        }
        self.push_row(row);
    }

    /// Column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render as an aligned monospace table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:>width$}", width = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish: quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let line = |cells: &[String]| -> String {
            cells.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
        };
        let _ = writeln!(out, "{}", line(&self.header));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        out
    }
}

/// Write a table as CSV to any writer (typically a results file).
pub fn write_csv<W: io::Write>(table: &Table, w: &mut W) -> io::Result<()> {
    w.write_all(table.to_csv().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "throughput",
            vec!["users".into(), "1 slave".into(), "2 slaves".into()],
        );
        t.push_row(vec!["50".into(), "7.1".into(), "7.3".into()]);
        t.push_float_row("75", &[Some(9.5), None], 2);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("## throughput"));
        assert!(r.contains("users"));
        assert!(r.contains("9.50"));
        assert!(r.contains('-'), "separator line present");
    }

    #[test]
    fn csv_round_trip_simple() {
        let c = sample().to_csv();
        let mut lines = c.lines();
        assert_eq!(lines.next().unwrap(), "users,1 slave,2 slaves");
        assert_eq!(lines.next().unwrap(), "50,7.1,7.3");
        assert_eq!(lines.next().unwrap(), "75,9.50,-");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", vec!["a,b".into(), "c\"d".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
        let c = t.to_csv();
        assert!(c.starts_with("\"a,b\",\"c\"\"d\""));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn write_csv_to_vec() {
        let mut buf = Vec::new();
        write_csv(&sample(), &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("users"));
    }
}
