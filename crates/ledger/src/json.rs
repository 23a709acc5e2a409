//! A JSON writer just large enough for this benchmark's two documents
//! (the result object and the Chrome trace). The workspace's two JSON
//! codecs are consolidation targets of ROADMAP item 2, so the benchmark
//! that has to outlive that consolidation depends on neither.

use std::fmt::Write as _;

/// Quote and escape a string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits. JSON has no infinity or NaN; both are
/// written as the largest finite double so a consumer still sees "worse
/// than any limit".
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// `{"k": v, ...}` from already-rendered values.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = members
        .into_iter()
        .map(|(k, v)| format!("{}: {}", string(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = object([
            ("name", string("a\"b\\c\n")),
            ("value", number(1.25)),
            ("list", array([number(1.0), number(f64::INFINITY)])),
        ]);
        assert_eq!(
            doc,
            format!(
                "{{\"name\": \"a\\\"b\\\\c\\n\", \"value\": 1.25, \"list\": [1, {}]}}",
                f64::MAX
            )
        );
    }
}
