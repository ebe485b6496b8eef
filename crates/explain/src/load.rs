//! Loading diagnosis bundles back into replayable traces.
//!
//! A bundle's `step` lines carry each entry as a corpus-dialect op token
//! (`write 0 8`, `tx_commit`, …) plus its `file:line` source location, so
//! the original trace window reconstructs exactly and the interval
//! inference re-runs deterministically.

use std::collections::HashMap;
use std::sync::Arc;

use pmtest_core::{
    Diag, DiagKind, HopsModel, OpenInterval, PersistencyModel, WindowStart, X86Model,
};
use pmtest_interval::ByteRange;
use pmtest_obs::bundle::validate_bundle;
use pmtest_obs::json::{self, JsonValue};
use pmtest_trace::{Event, SourceLoc, Trace};

/// A diagnosis bundle reconstructed from its JSON-lines form.
#[derive(Debug)]
pub struct LoadedBundle {
    /// Persistency model named by the header (`x86` or `hops`).
    pub model: String,
    /// Capture reason from the header (`error` or `manual`).
    pub reason: String,
    /// Trace id from the header.
    pub trace_id: u64,
    /// The recorded window, rebuilt as a replayable trace.
    pub trace: Trace,
    /// Trace index of the window's first step: above 0 when the trace was
    /// longer than the bundle's step window.
    pub first_step: u64,
    /// The diagnostics the bundle recorded for the whole trace.
    pub diags: Vec<Diag>,
    /// The state the window opens on, recorded when it starts mid-trace.
    pub start: Option<WindowStart>,
}

/// The checking model for a bundle header's model name.
///
/// # Errors
///
/// Unknown model names are an error — a bundle from a custom model cannot
/// be re-inferred here.
pub fn model_from_name(name: &str) -> Result<Arc<dyn PersistencyModel>, String> {
    match name {
        "x86" => Ok(Arc::new(X86Model::new())),
        "hops" => Ok(Arc::new(HopsModel::new())),
        other => Err(format!("unknown persistency model {other:?}")),
    }
}

/// Parses a `file:line` location, interning the file name (locations borrow
/// `&'static str`; a CLI loads a handful of files, so the leak is bounded).
///
/// # Errors
///
/// The text must contain a `:` with a `u32` after it.
pub fn parse_loc(s: &str) -> Result<SourceLoc, String> {
    let (file, line) = s.rsplit_once(':').ok_or_else(|| format!("location {s:?} has no line"))?;
    let line: u32 = line.parse().map_err(|_| format!("location {s:?} has a bad line number"))?;
    Ok(SourceLoc::new(intern(file), line))
}

fn intern(file: &str) -> &'static str {
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = INTERNED.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
    if let Some(&s) = map.get(file) {
        return s;
    }
    let leaked: &'static str = Box::leak(file.to_owned().into_boxed_str());
    map.insert(file.to_owned(), leaked);
    leaked
}

/// Parses one corpus-dialect op token (the format `pmtest_core::op_token`
/// emits) back into an [`Event`].
///
/// # Errors
///
/// Unknown mnemonics and malformed operands are errors.
pub fn parse_op(token: &str) -> Result<Event, String> {
    let mut parts = token.split_whitespace();
    let head = parts.next().ok_or("empty op token")?;
    let mut num = |what: &str| -> Result<u64, String> {
        parts
            .next()
            .ok_or_else(|| format!("op {token:?}: missing {what}"))?
            .parse::<u64>()
            .map_err(|_| format!("op {token:?}: bad {what}"))
    };
    let mut range = |what: &str| -> Result<ByteRange, String> {
        let addr = num(&format!("{what} addr"))?;
        let len = num(&format!("{what} len"))?;
        Ok(ByteRange::with_len(addr, len))
    };
    let event = match head {
        "write" => Event::Write(range("write")?),
        "flush" => Event::Flush(range("flush")?),
        "fence" => Event::Fence,
        "ofence" => Event::OFence,
        "dfence" => Event::DFence,
        "tx_begin" => Event::TxBegin,
        "tx_commit" => Event::TxEnd,
        "tx_add" => Event::TxAdd(range("tx_add")?),
        "check_persist" => Event::IsPersist(range("check_persist")?),
        "check_ordered" => {
            Event::IsOrderedBefore(range("check_ordered first")?, range("check_ordered second")?)
        }
        "tx_checker_start" => Event::TxCheckerStart,
        "tx_checker_end" => Event::TxCheckerEnd,
        "exclude" => Event::Exclude(range("exclude")?),
        "include" => Event::Include(range("include")?),
        other => return Err(format!("unknown op mnemonic {other:?}")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("op {token:?}: trailing operand {extra:?}"));
    }
    Ok(event)
}

/// Parses and schema-validates a bundle, rebuilding the recorded window as
/// a trace.
///
/// # Errors
///
/// Schema violations (via `pmtest_obs::bundle::validate_bundle`) and op /
/// location parse failures.
pub fn load_bundle(text: &str) -> Result<LoadedBundle, String> {
    validate_bundle(text)?;
    let mut model = String::new();
    let mut reason = String::new();
    let mut trace_id = 0u64;
    let mut first_step = None;
    let mut diags = Vec::new();
    let mut start = None;
    let mut steps: Vec<(Event, SourceLoc)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{e}"))?;
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some("header") => {
                model = doc.get("model").and_then(JsonValue::as_str).unwrap_or("").to_owned();
                reason = doc.get("reason").and_then(JsonValue::as_str).unwrap_or("").to_owned();
                trace_id = doc.get("trace_id").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
            }
            Some("diag") => diags.push(parse_diag(&doc)?),
            Some("window") => start = Some(parse_window(&doc)?),
            Some("step") => {
                first_step = first_step.or(doc.get("index").and_then(JsonValue::as_f64));
                let op = doc.get("op").and_then(JsonValue::as_str).ok_or("step without op")?;
                let loc = doc.get("loc").and_then(JsonValue::as_str).ok_or("step without loc")?;
                steps.push((parse_op(op)?, parse_loc(loc)?));
            }
            _ => {}
        }
    }
    let mut trace = Trace::new(trace_id);
    for (event, loc) in steps {
        trace.push(event.at(loc));
    }
    let first_step = first_step.unwrap_or(0.0) as u64;
    Ok(LoadedBundle { model, reason, trace_id, trace, first_step, diags, start })
}

/// A `[start, end]` array of two numbers.
fn parse_range(value: Option<&JsonValue>, what: &str) -> Result<ByteRange, String> {
    match value {
        Some(JsonValue::Array(ends)) => match ends.as_slice() {
            [start, end] => Ok(ByteRange::new(
                start.as_f64().ok_or_else(|| format!("{what} range start is not a number"))? as u64,
                end.as_f64().ok_or_else(|| format!("{what} range end is not a number"))? as u64,
            )),
            _ => Err(format!("{what} range must hold two numbers")),
        },
        _ => Err(format!("{what} range missing")),
    }
}

/// Parses the `window` line back into a [`WindowStart`].
fn parse_window(doc: &JsonValue) -> Result<WindowStart, String> {
    let epoch = doc.get("epoch").and_then(JsonValue::as_f64).ok_or("window without epoch")?;
    let Some(JsonValue::Array(open)) = doc.get("open") else {
        return Err("window without open intervals".to_owned());
    };
    let open = open
        .iter()
        .map(|iv| {
            Ok(OpenInterval {
                range: parse_range(iv.get("range"), "open interval")?,
                begin: iv
                    .get("begin")
                    .and_then(JsonValue::as_f64)
                    .ok_or("interval without begin")? as u64,
                write_loc: iv
                    .get("write_loc")
                    .and_then(JsonValue::as_str)
                    .map(parse_loc)
                    .transpose()?,
                flushed: matches!(iv.get("flushed"), Some(JsonValue::Bool(true))),
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(WindowStart { epoch: epoch as u64, open })
}

/// Parses one `diag` line back into a [`Diag`].
fn parse_diag(doc: &JsonValue) -> Result<Diag, String> {
    let text = |key: &str| doc.get(key).and_then(JsonValue::as_str);
    let code = text("code").ok_or("diag without code")?;
    let kind = DiagKind::from_code(code).ok_or_else(|| format!("unknown diag code {code:?}"))?;
    let range = match doc.get("range") {
        Some(JsonValue::Null) | None => None,
        value => Some(parse_range(value, "diag")?),
    };
    Ok(Diag {
        kind,
        loc: parse_loc(text("loc").ok_or("diag without loc")?)?,
        range,
        culprit: text("culprit").map(parse_loc).transpose()?,
        message: text("message").unwrap_or_default().to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_tokens_round_trip() {
        for event in [
            Event::Write(ByteRange::with_len(0, 8)),
            Event::Flush(ByteRange::with_len(16, 32)),
            Event::Fence,
            Event::OFence,
            Event::DFence,
            Event::TxBegin,
            Event::TxEnd,
            Event::TxAdd(ByteRange::with_len(0, 8)),
            Event::IsPersist(ByteRange::with_len(0, 8)),
            Event::IsOrderedBefore(ByteRange::with_len(0, 8), ByteRange::with_len(64, 8)),
            Event::TxCheckerStart,
            Event::TxCheckerEnd,
            Event::Exclude(ByteRange::with_len(8, 8)),
            Event::Include(ByteRange::with_len(8, 8)),
        ] {
            let token = pmtest_core::op_token(&event);
            assert_eq!(parse_op(&token).unwrap(), event, "round-trip {token}");
        }
        assert!(parse_op("write 0").is_err());
        assert!(parse_op("warble 0 8").is_err());
        assert!(parse_op("fence 1").is_err());
    }

    #[test]
    fn locs_parse_and_intern() {
        let a = parse_loc("difftest:4").unwrap();
        assert_eq!(a.file(), "difftest");
        assert_eq!(a.line(), 4);
        let b = parse_loc("difftest:9").unwrap();
        assert!(std::ptr::eq(a.file().as_ptr(), b.file().as_ptr()), "file names interned");
        assert!(parse_loc("nofile").is_err());
        assert!(parse_loc("x:y").is_err());
    }
}
