//! The workspace's one JSON writer: an object builder, an array joiner and
//! string escaping.
//!
//! There is no serializer dependency, and what the repo emits — the serve
//! tier's `/metrics.json` dump — is objects of numbers, strings and
//! already-rendered children. So commas, quoting, escaping and what a
//! non-finite float becomes are decided here once instead of in every
//! `format!` string.

use std::fmt::Write as _;

/// One JSON object under construction; fields render in insertion order.
/// Nest by rendering the child first and adding it with [`raw`](Self::raw).
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    /// The fields so far, comma-separated, without the braces.
    fields: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, &v.to_string())
    }

    /// Adds a float field to six decimals (non-finite values become
    /// `null` — JSON has no `NaN`).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        if v.is_finite() {
            self.raw(key, &format!("{v:.6}"))
        } else {
            self.raw(key, "null")
        }
    }

    /// Adds a string field (escaped).
    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &format!("\"{}\"", json_escape(v)))
    }

    /// Adds a pre-rendered JSON value: a child [`render`](Self::render)ed
    /// first, a [`json_array`], or a literal such as `null`.
    pub fn raw(&mut self, key: &str, rendered_json: &str) -> &mut Self {
        if !self.fields.is_empty() {
            self.fields.push(',');
        }
        let _ = write!(self.fields, "\"{}\":{rendered_json}", json_escape(key));
        self
    }

    /// The object as JSON text.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields)
    }
}

/// Joins already-rendered JSON values into one array.
pub fn json_array(rendered_items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = rendered_items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Escapes `s` for embedding in a JSON string literal (no surrounding
/// quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_nests_escapes_and_nulls() {
        assert_eq!(JsonObject::new().render(), "{}");
        let mut child = JsonObject::new();
        child
            .int("n", 7)
            .num("nan", f64::NAN)
            .num("inf", f64::INFINITY);
        let mut root = JsonObject::new();
        root.text("a \"key\"", "line\nbreak")
            .num("rate", 1.5)
            .raw("child", &child.render())
            .raw("list", &json_array([child.render(), "2".to_string()]))
            .raw("empty", &json_array([]));
        assert_eq!(
            root.render(),
            "{\"a \\\"key\\\"\":\"line\\nbreak\",\"rate\":1.500000,\
             \"child\":{\"n\":7,\"nan\":null,\"inf\":null},\
             \"list\":[{\"n\":7,\"nan\":null,\"inf\":null},2],\"empty\":[]}"
        );
    }
}
