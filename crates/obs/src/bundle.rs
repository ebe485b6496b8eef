//! Schema validation for diagnosis-bundle JSON-lines files.
//!
//! A diagnosis bundle (built by re-checking a failing trace at the engine's
//! `Bundles` telemetry level, see the core crate and DESIGN.md §11) is a
//! JSON-lines file whose first line is a header of the form
//!
//! ```json
//! {"kind":"header","bundle":"pmtest-diagnosis","version":1,"model":"x86",
//!  "reason":"error","trace_id":7,"steps":2,"diags":1}
//! ```
//!
//! followed by `diag`, `step`, `epoch`, and `culprit` lines, and one
//! `window` line when the steps start mid-trace: the epoch and the persist
//! intervals still open before the first step. This module
//! checks the whole file against that schema — typed fields, known kinds,
//! line counts consistent with the header, and an escape round-trip on
//! every string — using the crate's own minimal JSON reader, so `obs-check`
//! can gate CI on bundles being machine-readable without serde.

use crate::json::{self, JsonValue};

/// Whether `text` looks like a diagnosis bundle: its first non-empty line
/// parses as an object with `"kind":"header"` and
/// `"bundle":"pmtest-diagnosis"`. Cheap enough to run on every `.jsonl`
/// candidate before deciding how to validate it.
#[must_use]
pub fn is_bundle(text: &str) -> bool {
    let Some(first) = text.lines().find(|l| !l.trim().is_empty()) else {
        return false;
    };
    let Ok(doc) = json::parse(first) else {
        return false;
    };
    doc.get("kind").and_then(JsonValue::as_str) == Some("header")
        && doc.get("bundle").and_then(JsonValue::as_str) == Some("pmtest-diagnosis")
}

fn want_str(doc: &JsonValue, key: &str) -> Result<String, String> {
    let s = doc
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("field {key:?} missing or not a string"))?;
    // Escape round-trip: what we re-serialize must parse back to itself.
    match json::parse(&json::escape(s)) {
        Ok(JsonValue::String(back)) if back == s => Ok(s.to_owned()),
        _ => Err(format!("field {key:?} does not survive an escape round-trip")),
    }
}

fn want_num(doc: &JsonValue, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("field {key:?} missing or not a number"))
}

fn want_bool(doc: &JsonValue, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("field {key:?} missing or not a boolean")),
    }
}

/// `null` or a two-element `[start, end]` number array.
fn want_opt_range(doc: &JsonValue, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(JsonValue::Null) => Ok(()),
        Some(JsonValue::Array(items))
            if items.len() == 2 && items.iter().all(|v| v.as_f64().is_some()) =>
        {
            Ok(())
        }
        _ => Err(format!("field {key:?} must be null or [start, end]")),
    }
}

/// `null` or a string.
fn want_opt_str(doc: &JsonValue, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(JsonValue::Null) => Ok(()),
        Some(JsonValue::String(_)) => {
            want_str(doc, key)?;
            Ok(())
        }
        _ => Err(format!("field {key:?} must be null or a string")),
    }
}

fn check_diag_line(doc: &JsonValue) -> Result<(), String> {
    want_bool(doc, "firing")?;
    let severity = want_str(doc, "severity")?;
    if severity != "FAIL" && severity != "WARN" {
        return Err(format!("severity {severity:?} is not FAIL or WARN"));
    }
    want_str(doc, "code")?;
    want_str(doc, "loc")?;
    want_opt_range(doc, "range")?;
    want_opt_str(doc, "culprit")?;
    want_str(doc, "message")?;
    Ok(())
}

fn check_step_line(doc: &JsonValue) -> Result<(), String> {
    want_num(doc, "index")?;
    want_str(doc, "op")?;
    want_str(doc, "loc")?;
    want_num(doc, "epoch")?;
    let Some(JsonValue::Array(intervals)) = doc.get("intervals") else {
        return Err("field \"intervals\" missing or not an array".to_owned());
    };
    for iv in intervals {
        want_range(iv, "range")?;
        want_num(iv, "begin")?;
        match iv.get("end") {
            Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
            _ => return Err("interval \"end\" must be null or a number".to_owned()),
        }
        want_opt_str(iv, "write_loc")?;
    }
    Ok(())
}

/// A two-element `[start, end]` number array.
fn want_range(doc: &JsonValue, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(JsonValue::Array(items))
            if items.len() == 2 && items.iter().all(|v| v.as_f64().is_some()) =>
        {
            Ok(())
        }
        _ => Err(format!("field {key:?} must be [start, end]")),
    }
}

fn check_window_line(doc: &JsonValue) -> Result<(), String> {
    want_num(doc, "epoch")?;
    let Some(JsonValue::Array(open)) = doc.get("open") else {
        return Err("field \"open\" missing or not an array".to_owned());
    };
    for iv in open {
        want_range(iv, "range")?;
        want_num(iv, "begin")?;
        want_opt_str(iv, "write_loc")?;
        want_bool(iv, "flushed")?;
    }
    Ok(())
}

fn check_epoch_line(doc: &JsonValue) -> Result<(), String> {
    want_num(doc, "epoch")?;
    want_num(doc, "at_index")?;
    let cause = want_str(doc, "cause")?;
    if !matches!(cause.as_str(), "fence" | "ofence" | "dfence") {
        return Err(format!("epoch cause {cause:?} is not a fence kind"));
    }
    Ok(())
}

fn check_culprit_line(doc: &JsonValue) -> Result<(), String> {
    want_str(doc, "loc")?;
    want_str(doc, "checker_loc")?;
    want_str(doc, "code")?;
    Ok(())
}

/// Validates a diagnosis-bundle JSON-lines document and returns the number
/// of lines checked.
///
/// # Errors
///
/// Returns a description (with the 1-based line number) of the first schema
/// violation: an unparseable line, a missing or mistyped field, an unknown
/// `kind`, a string that does not survive an escape round-trip, `step` /
/// `diag` line counts inconsistent with the header, or a `window` line that
/// is repeated or follows a step.
pub fn validate_bundle(text: &str) -> Result<usize, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).map(|(i, l)| {
        json::parse(l).map(|doc| (i + 1, doc)).map_err(|e| format!("line {}: {e}", i + 1))
    });

    let (_, header) = lines.next().ok_or("empty bundle")??;
    if header.get("kind").and_then(JsonValue::as_str) != Some("header") {
        return Err("line 1: first line is not a bundle header".to_owned());
    }
    if header.get("bundle").and_then(JsonValue::as_str) != Some("pmtest-diagnosis") {
        return Err("line 1: header \"bundle\" is not \"pmtest-diagnosis\"".to_owned());
    }
    let version = want_num(&header, "version").map_err(|e| format!("line 1: {e}"))?;
    if version != 1.0 {
        return Err(format!("line 1: unsupported bundle version {version}"));
    }
    want_str(&header, "model").map_err(|e| format!("line 1: {e}"))?;
    let reason = want_str(&header, "reason").map_err(|e| format!("line 1: {e}"))?;
    if reason != "error" && reason != "manual" {
        return Err(format!("line 1: reason {reason:?} is not error or manual"));
    }
    want_num(&header, "trace_id").map_err(|e| format!("line 1: {e}"))?;
    let want_steps = want_num(&header, "steps").map_err(|e| format!("line 1: {e}"))?;
    let want_diags = want_num(&header, "diags").map_err(|e| format!("line 1: {e}"))?;

    let mut checked = 1usize;
    let (mut steps, mut diags, mut window) = (0u64, 0u64, false);
    for item in lines {
        let (lineno, doc) = item?;
        let kind = doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {lineno}: missing \"kind\""))?
            .to_owned();
        let result = match kind.as_str() {
            "header" => Err("unexpected second header".to_owned()),
            "diag" => {
                diags += 1;
                check_diag_line(&doc)
            }
            "step" => {
                steps += 1;
                check_step_line(&doc)
            }
            "window" if window => Err("unexpected second window".to_owned()),
            "window" if steps > 0 => Err("window after a step".to_owned()),
            "window" => {
                window = true;
                check_window_line(&doc)
            }
            "epoch" => check_epoch_line(&doc),
            "culprit" => check_culprit_line(&doc),
            other => Err(format!("unknown line kind {other:?}")),
        };
        result.map_err(|e| format!("line {lineno}: {e}"))?;
        checked += 1;
    }
    if steps as f64 != want_steps {
        return Err(format!("header promises {want_steps} steps, found {steps}"));
    }
    if diags as f64 != want_diags {
        return Err(format!("header promises {want_diags} diags, found {diags}"));
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"kind\":\"header\",\"bundle\":\"pmtest-diagnosis\",\"version\":1,",
        "\"model\":\"x86\",\"reason\":\"error\",\"trace_id\":7,\"steps\":2,\"diags\":1}\n",
        "{\"kind\":\"diag\",\"firing\":true,\"severity\":\"FAIL\",\"code\":\"not_persisted\",",
        "\"loc\":\"app.rs:10\",\"range\":[0,8],\"culprit\":\"app.rs:3\",",
        "\"message\":\"interval still open\"}\n",
        "{\"kind\":\"step\",\"index\":0,\"op\":\"write 0 8\",\"loc\":\"app.rs:3\",\"epoch\":0,",
        "\"intervals\":[{\"range\":[0,8],\"begin\":0,\"end\":null,\"write_loc\":\"app.rs:3\"}]}\n",
        "{\"kind\":\"step\",\"index\":1,\"op\":\"fence\",\"loc\":\"app.rs:5\",\"epoch\":1,",
        "\"intervals\":[]}\n",
        "{\"kind\":\"epoch\",\"epoch\":1,\"at_index\":1,\"cause\":\"fence\"}\n",
        "{\"kind\":\"culprit\",\"loc\":\"app.rs:3\",\"checker_loc\":\"app.rs:10\",",
        "\"code\":\"not_persisted\"}\n",
    );

    #[test]
    fn accepts_a_well_formed_bundle() {
        assert!(is_bundle(GOOD));
        assert_eq!(validate_bundle(GOOD).unwrap(), 6);
    }

    #[test]
    fn rejects_step_count_mismatch() {
        let truncated: String =
            GOOD.lines().filter(|l| !l.contains("\"op\":\"fence\"")).collect::<Vec<_>>().join("\n");
        let err = validate_bundle(&truncated).unwrap_err();
        assert!(err.contains("promises 2 steps"), "{err}");
    }

    #[test]
    fn rejects_unknown_kind_and_bad_severity() {
        let unknown = GOOD.replace("\"kind\":\"epoch\"", "\"kind\":\"epcoh\"");
        assert!(validate_bundle(&unknown).unwrap_err().contains("unknown line kind"));
        let bad = GOOD.replace("\"severity\":\"FAIL\"", "\"severity\":\"BAD\"");
        assert!(validate_bundle(&bad).unwrap_err().contains("not FAIL or WARN"));
    }

    #[test]
    fn accepts_one_window_line_before_the_steps() {
        let window = concat!(
            "{\"kind\":\"window\",\"epoch\":5,\"open\":[{\"range\":[0,8],\"begin\":0,",
            "\"write_loc\":\"app.rs:3\",\"flushed\":false}]}\n"
        );
        let at = GOOD.find("{\"kind\":\"step\"").unwrap();
        let good = format!("{}{window}{}", &GOOD[..at], &GOOD[at..]);
        assert_eq!(validate_bundle(&good).unwrap(), 7);
        let twice = format!("{}{window}{window}{}", &GOOD[..at], &GOOD[at..]);
        assert!(validate_bundle(&twice).unwrap_err().contains("second window"));
        let late = format!("{GOOD}{window}");
        assert!(validate_bundle(&late).unwrap_err().contains("window after a step"));
        let bad = good.replace("\"flushed\":false", "\"flushed\":0");
        assert!(validate_bundle(&bad).unwrap_err().contains("\"flushed\""));
    }

    #[test]
    fn rejects_non_bundle_text() {
        assert!(!is_bundle("{\"metric\":1}\n"));
        assert!(validate_bundle("{\"metric\":1}\n").is_err());
        assert!(validate_bundle("").is_err());
    }
}
