//! Experiment reports: measured vs ground truth vs paper.

use pm_obs::trace::json_string;
use pm_stats::Estimate;
use std::fmt;

/// One row of a report table.
#[derive(Clone, Debug)]
pub struct ReportRow {
    /// Statistic label.
    pub label: String,
    /// Our measured value (formatted, usually with a CI).
    pub measured: String,
    /// The simulator's configured/derived ground truth, if meaningful.
    pub truth: String,
    /// The paper's published value.
    pub paper: String,
}

impl ReportRow {
    /// Builds a row.
    pub fn new(
        label: impl Into<String>,
        measured: impl Into<String>,
        truth: impl Into<String>,
        paper: impl Into<String>,
    ) -> ReportRow {
        ReportRow {
            label: label.into(),
            measured: measured.into(),
            truth: truth.into(),
            paper: paper.into(),
        }
    }
}

/// A reproduced table or figure.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id ("T4", "F1", …).
    pub id: String,
    /// Title, matching the paper's caption.
    pub title: String,
    /// Notes (scale caveats, calibration notes).
    pub notes: Vec<String>,
    /// The rows.
    pub rows: Vec<ReportRow>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            notes: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, row: ReportRow) -> &mut Self {
        self.rows.push(row);
        self
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders a fixed-width text table.
    pub fn render_text(&self) -> String {
        let headers = ["statistic", "measured", "ground truth", "paper"];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            widths[0] = widths[0].max(row.label.len());
            widths[1] = widths[1].max(row.measured.len());
            widths[2] = widths[2].max(row.truth.len());
            widths[3] = widths[3].max(row.paper.len());
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let line = |cells: [&str; 4], widths: &[usize]| -> String {
            format!(
                "| {:<w0$} | {:<w1$} | {:<w2$} | {:<w3$} |\n",
                cells[0],
                cells[1],
                cells[2],
                cells[3],
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
            )
        };
        let sep: String = format!(
            "|{}|{}|{}|{}|\n",
            "-".repeat(widths[0] + 2),
            "-".repeat(widths[1] + 2),
            "-".repeat(widths[2] + 2),
            "-".repeat(widths[3] + 2)
        );
        out.push_str(&line(headers, &widths));
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&line(
                [&row.label, &row.measured, &row.truth, &row.paper],
                &widths,
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Renders the report as one JSON object (see [`reports_json`] for
    /// the multi-report document the binaries emit).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"id\": {}, \"title\": {}, \"rows\": [",
            json_string(&self.id),
            json_string(&self.title)
        ));
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"label\": {}, \"measured\": {}, \"truth\": {}, \"paper\": {}}}",
                json_string(&row.label),
                json_string(&row.measured),
                json_string(&row.truth),
                json_string(&row.paper)
            ));
        }
        out.push_str("], \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(note));
        }
        out.push_str("]}");
        out
    }

    /// Renders CSV (one line per row, with id and label).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("id,label,measured,truth,paper\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                self.id,
                csv_escape(&row.label),
                csv_escape(&row.measured),
                csv_escape(&row.truth),
                csv_escape(&row.paper)
            ));
        }
        out
    }
}

/// Quotes a CSV field when it contains a delimiter, quote, or line
/// break (RFC 4180) — without the line-break case a multi-line note
/// would silently shear the row in two.
pub fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders a set of reports as one JSON document — the export format
/// shared by the `experiments` and `campaign` binaries.
pub fn reports_json(reports: &[Report]) -> String {
    let mut out = String::from("{\"reports\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.render_json());
        if i + 1 < reports.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_text())
    }
}

// ----- formatting helpers shared by the experiment modules -----

/// Formats a large count in engineering style (e.g. `2.03e9`).
pub fn fmt_count(x: f64) -> String {
    if x.abs() >= 1e6 {
        format!("{x:.3e}")
    } else {
        format!("{x:.0}")
    }
}

/// Formats an estimate with its CI.
pub fn fmt_estimate(e: &Estimate) -> String {
    format!(
        "{} [{}; {}]",
        fmt_count(e.value),
        fmt_count(e.ci.lo),
        fmt_count(e.ci.hi)
    )
}

/// Formats `num / denom` with `show`, or says that there is no ratio
/// to show ([`Estimate::ratio`]: the denominator's CI reaches 0, as it
/// does once the scale is small enough for noise to swamp it).
pub(crate) fn fmt_ratio(
    num: &Estimate,
    denom: &Estimate,
    show: impl FnOnce(&Estimate) -> String,
) -> String {
    match num.ratio(denom) {
        Some(ratio) => show(&ratio),
        None => "n/a (denominator CI reaches 0)".to_string(),
    }
}

/// Formats the ratio `num / denom` as a percentage with CI.
pub fn fmt_pct(num: &Estimate, denom: &Estimate) -> String {
    fmt_ratio(num, denom, |e| {
        format!(
            "{:.1}% [{:.1}; {:.1}]%",
            e.value * 100.0,
            e.ci.lo * 100.0,
            e.ci.hi * 100.0
        )
    })
}

/// Formats bytes as TiB.
pub fn fmt_tib(bytes: f64) -> String {
    format!("{:.1} TiB", bytes / (1u64 << 40) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_stats::Estimate;

    #[test]
    fn render_aligns_and_contains_rows() {
        let mut r = Report::new("T4", "Network-wide client usage");
        r.row(ReportRow::new(
            "Data (TiB)",
            "520 [505; 535]",
            "517",
            "517 [504; 530]",
        ));
        r.row(ReportRow::new(
            "Connections",
            "1.49e8",
            "1.48e8",
            "1.48e8 [1.43e8; 1.53e8]",
        ));
        r.note("scale 0.01");
        let text = r.render_text();
        assert!(text.contains("T4"));
        assert!(text.contains("Data (TiB)"));
        assert!(text.contains("note: scale 0.01"));
        // All data lines share the same width.
        let lens: Vec<usize> = text
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.len())
            .collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    fn csv_escaping() {
        let mut r = Report::new("X", "t");
        r.row(ReportRow::new("a,b", "va\"l", "t", "p"));
        let csv = r.render_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"va\"\"l\""));
    }

    #[test]
    fn csv_quotes_line_breaks() {
        // A field with an embedded newline must be quoted, or the row
        // shears in two and every downstream parser miscounts rows.
        let mut r = Report::new("X", "t");
        r.row(ReportRow::new("multi\nline", "v", "t", "p"));
        let csv = r.render_csv();
        assert!(csv.contains("\"multi\nline\""), "{csv}");
        // Exactly header + one logical record: every unquoted newline
        // terminates a record, and the quoted one does not.
        let records = csv.split('\n').filter(|l| l.starts_with('X')).count();
        assert_eq!(records, 1);
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("cr\rhere"), "\"cr\rhere\"");
    }

    #[test]
    fn json_rendering_escapes_and_aggregates() {
        let mut a = Report::new("T5", "quo\"te");
        a.row(ReportRow::new("IPs", "1 [0; 2]", "1", "313,213"));
        a.note("line\nbreak");
        let b = Report::new("F1", "plain");
        let doc = reports_json(&[a, b]);
        assert!(doc.contains("\"id\": \"T5\""));
        assert!(doc.contains("quo\\\"te"));
        assert!(doc.contains("line\\nbreak"));
        assert!(doc.contains("\"id\": \"F1\""));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                doc.matches(open).count(),
                doc.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        let mut c = Report::new("X1", "t");
        c.row(ReportRow::new(
            "tab\there",
            "back\\slash",
            "cr\r",
            "bell\u{7}é",
        ));
        assert_eq!(
            c.render_json(),
            "{\"id\": \"X1\", \"title\": \"t\", \"rows\": [{\"label\": \"tab\\there\", \
             \"measured\": \"back\\\\slash\", \"truth\": \"cr\\r\", \"paper\": \"bell\\u0007é\"}], \
             \"notes\": []}"
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_count(1234.0), "1234");
        assert_eq!(fmt_count(2.03e9), "2.030e9");
        assert_eq!(fmt_tib(517.0 * (1u64 << 40) as f64), "517.0 TiB");
        let num = Estimate::gaussian95(40.1, 0.1);
        assert!(fmt_pct(&num, &Estimate::exact(100.0)).starts_with("40.1%"));
        assert_eq!(
            fmt_pct(&num, &Estimate::gaussian95(100.0, 60.0)),
            "n/a (denominator CI reaches 0)"
        );
    }
}
