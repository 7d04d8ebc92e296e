//! Plain-text result tables mirroring the paper's figures.

use pr_obs::json::{JsonArr, JsonObj};
use std::fmt;

/// One experiment's results.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id as the `experiments` binary names it ("fig9", "table1", …).
    pub id: String,
    /// Human title (what the paper figure shows).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper comparison, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Appends a note shown under the table.
    pub(crate) fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Serializes to a JSON object through the workspace's shared
    /// encoder (`pr_obs::json`; the offline build has no serde). Field
    /// layout matches what `#[derive(Serialize)]` produced.
    pub(crate) fn to_json(&self) -> String {
        let mut rows = JsonArr::new();
        for r in &self.rows {
            let mut cells = JsonArr::new();
            for c in r {
                cells.push_str(c);
            }
            rows.push_raw(cells.finish());
        }
        JsonObj::new()
            .str("id", &self.id)
            .str("title", &self.title)
            .strings("headers", &self.headers)
            .raw("rows", &rows.finish())
            .strings("notes", &self.notes)
            .finish()
    }
}

/// Serializes a slice of tables as a versioned JSON document: one
/// `{"schema_version":N,"tables":[...]}` object, one table per line —
/// enough structure for downstream tooling and diffable output files.
pub fn tables_to_json(tables: &[Table]) -> String {
    let mut arr = JsonArr::new();
    for t in tables {
        arr.push_raw(t.to_json());
    }
    format!(
        "{{\n\"schema_version\": {},\n\"tables\": {}\n}}",
        pr_obs::SCHEMA_VERSION,
        arr.finish_pretty()
    )
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a ratio as the paper's percentage style ("112%").
pub(crate) fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Formats a float with a sensible precision.
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a block count in millions when large (paper: "3.1 mln").
pub(crate) fn blocks(x: u64) -> String {
    if x >= 1_000_000 {
        format!("{:.2} mln", x as f64 / 1e6)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("figX", "demo", &["tree", "I/Os"]);
        t.row(vec!["PR".into(), "123".into()]);
        t.row(vec!["TGS".into(), "4567".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("PR"));
        assert!(s.contains("4567"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(1.12), "112%");
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(blocks(1_234), "1234");
        assert_eq!(blocks(3_100_000), "3.10 mln");
    }

    #[test]
    fn serializes_to_json() {
        let mut t = Table::new("id", "title", &["a"]);
        t.row(vec!["1".into()]);
        let json = t.to_json();
        assert!(json.contains("\"id\":\"id\""));
        assert!(json.contains("\"rows\":[[\"1\"]]"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut t = Table::new("x", "quote \" backslash \\ newline \n", &["h"]);
        t.note("tab\there");
        let json = t.to_json();
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n"));
        assert!(json.contains("tab\\there"));
        let doc = tables_to_json(&[t.clone(), t]);
        assert!(doc.contains("\"schema_version\""));
        assert!(doc.contains("\"tables\": [\n"));
    }
}
