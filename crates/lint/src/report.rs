//! Human and JSON rendering of an [`Outcome`]. The library returns
//! strings; only the binary prints (the linter must pass its own L005).

use crate::runner::Outcome;
use crate::Rule;

/// Renders the human report.
pub fn human(outcome: &Outcome) -> String {
    let mut out = String::new();
    for v in &outcome.new_violations {
        out.push_str(&format!("{v}\n"));
    }
    for e in &outcome.errors {
        out.push_str(&format!("error: {e}\n"));
    }
    for i in &outcome.improvements {
        out.push_str(&format!("ratchet: {i}\n"));
    }
    for n in &outcome.notes {
        out.push_str(&format!("note: {n}\n"));
    }
    let totals: Vec<String> = Rule::ALL
        .iter()
        .map(|r| format!("{r}={}", outcome.counts.get(r).copied().unwrap_or(0)))
        .collect();
    out.push_str(&format!(
        "{} file(s) scanned; {} | baselined {} · suppressed {} · allowed {}\n",
        outcome.files_scanned,
        totals.join(" "),
        outcome.baselined,
        outcome.suppressed,
        outcome.allowed,
    ));
    out.push_str(if outcome.clean() {
        "lint: clean\n"
    } else {
        "lint: FAILED (new violations above the ratchet baseline)\n"
    });
    out
}

/// Renders the machine-readable JSON report.
pub fn json(outcome: &Outcome) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"tool\": {},\n", quote("rustwren-lint")));
    s.push_str(&format!("  \"clean\": {},\n", outcome.clean()));
    s.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));
    s.push_str(&format!("  \"baselined\": {},\n", outcome.baselined));
    s.push_str(&format!("  \"suppressed\": {},\n", outcome.suppressed));
    s.push_str(&format!("  \"allowed\": {},\n", outcome.allowed));

    s.push_str("  \"counts\": {");
    let counts: Vec<String> = Rule::ALL
        .iter()
        .map(|r| {
            format!(
                "{}: {}",
                quote(r.as_str()),
                outcome.counts.get(r).copied().unwrap_or(0)
            )
        })
        .collect();
    s.push_str(&counts.join(", "));
    s.push_str("},\n");

    s.push_str("  \"new_violations\": [");
    let items: Vec<String> = outcome
        .new_violations
        .iter()
        .map(|v| {
            format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                quote(v.rule.as_str()),
                quote(&v.file),
                v.line,
                quote(&v.message)
            )
        })
        .collect();
    s.push_str(&items.join(","));
    if !items.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");

    s.push_str("  \"errors\": [");
    let errs: Vec<String> = outcome.errors.iter().map(|e| quote(e)).collect();
    s.push_str(&errs.join(", "));
    s.push_str("],\n");

    s.push_str("  \"improvements\": [");
    let imps: Vec<String> = outcome.improvements.iter().map(|i| quote(i)).collect();
    s.push_str(&imps.join(", "));
    s.push_str("],\n");

    s.push_str("  \"notes\": [");
    let notes: Vec<String> = outcome.notes.iter().map(|n| quote(n)).collect();
    s.push_str(&notes.join(", "));
    s.push_str("]\n}\n");
    s
}

/// Escapes `text` as a JSON string literal.
pub fn quote(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 2);
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rule, Violation};

    #[test]
    fn json_escapes_and_includes_violations() {
        let mut outcome = Outcome::default();
        outcome.new_violations.push(Violation {
            rule: Rule::L004,
            file: "crates/core/src/job.rs".into(),
            line: 7,
            message: "has \"quotes\" and\nnewline".into(),
        });
        let j = json(&outcome);
        assert!(j.contains("\"rule\": \"L004\""));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"clean\": false"));
    }

    #[test]
    fn human_summarizes() {
        let outcome = Outcome::default();
        let h = human(&outcome);
        assert!(h.contains("lint: clean"));
        assert!(h.contains("L001=0"));
    }
}
