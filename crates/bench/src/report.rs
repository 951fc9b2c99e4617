//! Plain-text rendering for the harness output.

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Render a series of (hours, value) pairs as one `hours value ###` line
/// per bucket of `len / max_points` points (at least one), each bucket
/// averaged and its bar scaled to the series peak.
pub fn render_series(series: &[(f64, f64)], max_points: usize) -> String {
    let peak = series.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    let step = (series.len() / max_points).max(1);
    let mut out = String::new();
    for chunk in series.chunks(step) {
        let h = chunk[0].0;
        let v = chunk.iter().map(|&(_, v)| v).sum::<f64>() / chunk.len() as f64;
        let bar = if peak > 0.0 {
            (v / peak * 48.0).round() as usize
        } else {
            0
        };
        out.push_str(&format!("{h:5.1}h {v:8.2} {}\n", "#".repeat(bar)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["100", "2000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("100"));
        assert!(lines[0].ends_with("bb"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn series_rendering_samples() {
        let series: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, i as f64)).collect();
        let s = render_series(&series, 10);
        assert!(s.lines().count() <= 10);
        assert!(s.contains('#'));
    }
}
