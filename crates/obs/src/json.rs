//! Minimal hand-rolled JSON encoding (the offline build has no serde).
//!
//! This is the single JSON encoder for the workspace: the exporters,
//! the CLI and `pr_bench::table` build output
//! through [`JsonObj`]/[`JsonArr`] instead of ad-hoc `format!` strings,
//! so escaping (RFC 8259) and number formatting live in exactly one
//! place.

/// Escapes and quotes a string per RFC 8259.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Incremental JSON object builder.
///
/// Methods chain (`&mut self -> &mut Self`) and `finish()` closes the
/// object. Values are emitted in insertion order.
#[derive(Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    fn key(&mut self, k: &str) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(&json_string(k));
        self.buf.push(':');
        self
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let s = json_string(v);
        self.key(k).buf.push_str(&s);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let s = v.to_string();
        self.key(k).buf.push_str(&s);
        self
    }

    /// Adds a float field (`null` when not finite, since JSON has no
    /// NaN/Inf).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        let s = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.key(k).buf.push_str(&s);
        self
    }

    /// Adds a float field rounded to `prec` decimal places.
    pub fn f64p(&mut self, k: &str, v: f64, prec: usize) -> &mut Self {
        let s = if v.is_finite() {
            format!("{v:.prec$}")
        } else {
            "null".to_string()
        };
        self.key(k).buf.push_str(&s);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        let s = if v { "true" } else { "false" };
        self.key(k).buf.push_str(s);
        self
    }

    /// Adds a pre-serialized JSON value verbatim (caller guarantees
    /// validity).
    pub fn raw(&mut self, k: &str, raw_json: &str) -> &mut Self {
        self.key(k).buf.push_str(raw_json);
        self
    }

    /// Adds an array of strings (each escaped).
    pub fn strings<S: AsRef<str>>(&mut self, k: &str, items: &[S]) -> &mut Self {
        let body: Vec<String> = items.iter().map(|s| json_string(s.as_ref())).collect();
        let arr = format!("[{}]", body.join(","));
        self.key(k).buf.push_str(&arr);
        self
    }

    /// Closes the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental JSON array builder.
#[derive(Default)]
pub struct JsonArr {
    items: Vec<String>,
}

impl JsonArr {
    /// An empty array.
    pub fn new() -> Self {
        JsonArr::default()
    }

    /// Appends a pre-serialized JSON value.
    pub fn push_raw(&mut self, raw_json: impl Into<String>) -> &mut Self {
        self.items.push(raw_json.into());
        self
    }

    /// Appends an escaped string.
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.items.push(json_string(s));
        self
    }

    /// Closes the array (compact form).
    pub fn finish(&self) -> String {
        format!("[{}]", self.items.join(","))
    }

    /// Closes the array with one element per line — enough structure
    /// for downstream tooling and diffable output files.
    pub fn finish_pretty(&self) -> String {
        if self.items.is_empty() {
            return "[]".to_string();
        }
        let body: Vec<String> = self.items.iter().map(|i| format!("  {i}")).collect();
        format!("[\n{}\n]", body.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_characters() {
        assert_eq!(
            json_string("quote \" backslash \\ newline \n tab \t"),
            "\"quote \\\" backslash \\\\ newline \\n tab \\t\""
        );
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn builds_nested_objects_and_arrays() {
        let mut inner = JsonObj::new();
        inner.u64("a", 1).bool("b", true);
        let mut arr = JsonArr::new();
        arr.push_raw(inner.finish()).push_str("x");
        let mut obj = JsonObj::new();
        obj.str("name", "t")
            .f64p("ratio", 1.005, 2)
            .raw("items", &arr.finish())
            .strings("tags", &["p", "q"]);
        assert_eq!(
            obj.finish(),
            r#"{"name":"t","ratio":1.00,"items":[{"a":1,"b":true},"x"],"tags":["p","q"]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObj::new();
        o.f64("nan", f64::NAN).f64p("inf", f64::INFINITY, 1);
        assert_eq!(o.finish(), r#"{"nan":null,"inf":null}"#);
    }

    #[test]
    fn pretty_array_is_one_item_per_line() {
        let mut a = JsonArr::new();
        a.push_raw("1").push_raw("2");
        assert_eq!(a.finish_pretty(), "[\n  1,\n  2\n]");
        assert_eq!(JsonArr::new().finish_pretty(), "[]");
    }
}
