//! Tabular experiment reports, printed in the paper's row format.

use std::fmt;

/// One experiment's regenerated table.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id (e.g. `"E2"`).
    pub id: &'static str,
    /// What paper item this regenerates.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Whether every checked row matched its prediction.
    pub all_match: bool,
}

impl Report {
    /// Start a report.
    pub fn new(id: &'static str, title: &str, headers: &[&str]) -> Report {
        Report {
            id,
            title: title.to_owned(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
            all_match: true,
        }
    }

    /// Append a row; `matches` flags whether it satisfied the prediction.
    pub fn push(&mut self, row: Vec<String>, matches: bool) {
        self.rows.push(row);
        self.all_match &= matches;
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map_or(0, String::len))
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                write!(f, " {cell:w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        writeln!(
            f,
            "verdict: {}",
            if self.all_match {
                "MATCHES PAPER"
            } else {
                "MISMATCH"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_formats_as_table() {
        let mut report = Report::new("E0", "demo", &["n", "value"]);
        report.push(vec!["1".into(), "10".into()], true);
        report.push(vec!["2".into(), "100".into()], true);
        let text = report.to_string();
        assert!(text.contains("E0"));
        assert!(text.contains("| n | value |"));
        assert!(text.contains("MATCHES PAPER"));
    }

    #[test]
    fn mismatch_propagates() {
        let mut report = Report::new("E0", "demo", &["x"]);
        report.push(vec!["ok".into()], true);
        report.push(vec!["bad".into()], false);
        assert!(!report.all_match);
        assert!(report.to_string().contains("MISMATCH"));
    }
}
