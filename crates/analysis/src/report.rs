//! Plain-text table and CSV emitters used by the figure runners.

use std::fmt::Write as _;

/// A simple column-aligned text table builder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().take(self.header.len()).cloned().collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
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

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a ratio as a speedup string like `2.8x`.
pub fn speedup(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage string like `59.2%`.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["palermo".into(), "2.8x".into()]);
        t.row(&["ring".into(), "1.1x".into()]);
        let text = t.to_text();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("palermo"));
        assert!(text.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn rows_are_padded_and_truncated() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row(&["1".into()]);
        t.row(&["1".into(), "2".into(), "3".into(), "4".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().nth(1).unwrap(), "1,,");
        assert_eq!(csv.lines().nth(2).unwrap(), "1,2,3");
    }

    #[test]
    fn formatters() {
        assert_eq!(speedup(2.789), "2.79x");
        assert_eq!(percent(0.592), "59.2%");
    }
}
