//! Round-trip tests for the deterministic exports on adversarial strings:
//! commas, quotes, backslashes, newlines, and control characters in metric
//! names and label values must survive `Scraper::export_csv` and the
//! registry JSON dump, and in span names and attribute values (Chrome
//! trace), event details (`EventLog`) and history keys and errors
//! (`History`), such that a conforming CSV/JSON reader recovers the
//! original byte-for-byte.

use mr_chaos::{History, OpKind};
use mr_kv::{EventKind, EventLog};
use mr_obs::{MetricKey, Registry, Scraper, Tracer};
use mr_sim::SimTime;

/// Minimal RFC-4180 CSV line splitter (quoted fields, doubled quotes).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
    }
    fields.push(cur);
    fields
}

/// Minimal JSON string unescape (the subset `json_escape` emits).
fn json_unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                let v = u32::from_str_radix(&hex, 16).unwrap();
                out.push(char::from_u32(v).unwrap());
            }
            other => panic!("unexpected escape {other:?}"),
        }
    }
    out
}

/// Extract the JSON object-key strings of the `"counters"` object from the
/// registry dump (relies only on the dump's stable `"key": value` shape).
fn json_counter_keys(dump: &str) -> Vec<String> {
    let start = dump.find("\"counters\": {").unwrap();
    let end = dump[start..].find("\n  }").unwrap() + start;
    let mut keys = Vec::new();
    for line in dump[start..end].lines().skip(1) {
        let line = line.trim();
        // Lines look like `"escaped key": 7` or `"escaped key": 7,`.
        let inner = line
            .strip_prefix('"')
            .and_then(|l| l.rsplit_once("\": "))
            .map(|(k, _)| k)
            .unwrap();
        keys.push(json_unescape(inner));
    }
    keys
}

/// Adversarial instruments: names and labels carrying CSV/JSON delimiters.
fn adversarial_registry() -> (Registry, Vec<String>) {
    let r = Registry::new();
    let metrics = [
        ("evil,comma.metric", vec![]),
        ("quoted\"metric\"", vec![("label", "plain")]),
        (
            "multi.label",
            vec![("a", "comma,inside"), ("b", "quote\"inside")],
        ),
        ("newline.metric", vec![("nl", "line1\nline2")]),
        ("backslash.metric", vec![("path", "a\\b\\c")]),
        ("control.metric", vec![("ctl", "bell\u{1}char")]),
    ];
    let mut keys = Vec::new();
    for (i, (name, labels)) in metrics.iter().enumerate() {
        let labels: Vec<(&'static str, &str)> = labels.to_vec();
        r.counter(name, &labels).add(i as u64 + 1);
        keys.push(MetricKey::new(name, &labels).to_string());
    }
    (r, keys)
}

#[test]
fn scraper_csv_roundtrips_adversarial_keys() {
    let (r, keys) = adversarial_registry();
    let sc = Scraper::new();
    sc.scrape(SimTime(17), &r);

    let csv = sc.export_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("time_ns,metric,value"));
    // The export escapes newlines inside quoted fields per RFC 4180, so a
    // logical record may span physical lines; re-join before splitting.
    let body: Vec<&str> = lines.collect();
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut pending = String::new();
    for line in body {
        if !pending.is_empty() {
            pending.push('\n');
        }
        pending.push_str(line);
        // A record is complete when it has an even number of quotes.
        if pending.matches('"').count().is_multiple_of(2) {
            records.push(split_csv_line(&pending));
            pending.clear();
        }
    }
    assert!(pending.is_empty(), "unterminated quoted CSV record");

    let recovered: Vec<(String, String)> = records
        .iter()
        .map(|f| {
            assert_eq!(f.len(), 3, "bad field count in {f:?}");
            assert_eq!(f[0], "17");
            (f[1].clone(), f[2].clone())
        })
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let got = recovered
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("metric key {key:?} not recovered from CSV"));
        assert_eq!(got.1, (i + 1).to_string());
    }
    assert_eq!(recovered.len(), keys.len());
}

#[test]
fn registry_json_roundtrips_adversarial_keys() {
    let (r, mut keys) = adversarial_registry();
    let dump = r.dump_json();
    let mut recovered = json_counter_keys(&dump);
    keys.sort();
    recovered.sort();
    assert_eq!(recovered, keys, "JSON dump keys must unescape to originals");
}

/// Strings carrying every character class `json_escape` rewrites.
const ADVERSARIAL: [&str; 4] = [
    "quote\"d",
    "back\\slash",
    "new\nline\r\ttab",
    "bell\u{7}nul\u{0}",
];

fn adversarial() -> Vec<String> {
    ADVERSARIAL.iter().map(|s| s.to_string()).collect()
}

/// Every string value of a `"key": "…"` member in `doc`, unescaped, in
/// document order.
fn string_values(doc: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(i) = rest.find(&pat) {
        rest = &rest[i + pat.len()..];
        let bytes = rest.as_bytes();
        let mut end = 0;
        while bytes[end] != b'"' {
            end += if bytes[end] == b'\\' { 2 } else { 1 };
        }
        out.push(json_unescape(&rest[..end]));
        rest = &rest[end..];
    }
    out
}

#[test]
fn chrome_trace_roundtrips_adversarial_names_and_attrs() {
    let tr = Tracer::new();
    tr.set_enabled(true);
    for (i, s) in ADVERSARIAL.iter().enumerate() {
        let span = tr.start(s, None, SimTime(i as u64));
        tr.attr(span, "value", s);
        tr.finish(span, SimTime(i as u64 + 1));
    }
    let doc = tr.export_chrome_json();
    assert_eq!(string_values(&doc, "name"), adversarial(), "{doc}");
    assert_eq!(string_values(&doc, "value"), adversarial(), "{doc}");
}

#[test]
fn event_log_roundtrips_adversarial_details() {
    let log = EventLog::new();
    for (i, s) in ADVERSARIAL.iter().enumerate() {
        let kind = EventKind::FaultInjected {
            range: None,
            step: None,
            detail: s.to_string(),
        };
        log.record(SimTime(i as u64), kind);
    }
    let doc = log.export_json();
    assert_eq!(string_values(&doc, "detail"), adversarial(), "{doc}");
}

#[test]
fn history_roundtrips_adversarial_keys_and_errors() {
    let h = History::new();
    for (i, s) in ADVERSARIAL.iter().enumerate() {
        let op = h.invoke(SimTime(i as u64), 0, OpKind::Write, s, Some(1), None);
        h.fail(SimTime(i as u64 + 1), op, s);
    }
    let doc = h.export_json();
    // Each op's key is on its invoke and on its failure; only the failure
    // carries an error.
    let keys: Vec<String> = ADVERSARIAL
        .iter()
        .flat_map(|s| [s.to_string(), s.to_string()])
        .collect();
    assert_eq!(string_values(&doc, "key"), keys, "{doc}");
    assert_eq!(string_values(&doc, "error"), adversarial(), "{doc}");
}

#[test]
fn registry_csv_roundtrips_adversarial_keys() {
    let (r, keys) = adversarial_registry();
    let csv = r.dump_csv();
    let mut found = 0;
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut pending = String::new();
    for line in csv.lines().skip(1) {
        if !pending.is_empty() {
            pending.push('\n');
        }
        pending.push_str(line);
        if pending.matches('"').count().is_multiple_of(2) {
            records.push(split_csv_line(&pending));
            pending.clear();
        }
    }
    for f in &records {
        assert_eq!(f.len(), 10, "registry CSV has a 10-column layout: {f:?}");
        if keys.contains(&f[1]) {
            found += 1;
        }
    }
    assert_eq!(found, keys.len(), "every adversarial key recovered");
}
