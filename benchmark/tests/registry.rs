//! `BENCHMARK.json` and the code's registry must name the same workloads
//! and metrics, with the same units, directions and bounds — and the
//! contract's own limits must hold.

use peanut_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;

/// A JSON value, as much of one as `BENCHMARK.json` needs.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.text[self.at], byte, "at byte {}", self.at);
        self.at += 1;
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let start = self.at;
        while self.text[self.at] != b'"' {
            assert_ne!(self.text[self.at], b'\\', "no escapes expected");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.text[start..self.at - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.text[self.at] {
            b'"' => Json::Str(self.string()),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if self.text[self.at] == b']' {
                        self.at += 1;
                        return Json::List(items);
                    }
                    if !items.is_empty() {
                        self.expect(b',');
                    }
                    items.push(self.value());
                }
            }
            b'{' => {
                self.at += 1;
                let mut fields = BTreeMap::new();
                loop {
                    self.skip_space();
                    if self.text[self.at] == b'}' {
                        self.at += 1;
                        return Json::Object(fields);
                    }
                    if !fields.is_empty() {
                        self.expect(b',');
                    }
                    let key = self.string();
                    self.expect(b':');
                    assert!(fields.insert(key, self.value()).is_none(), "duplicate key");
                }
            }
            _ => {
                let start = self.at;
                while matches!(
                    self.text[self.at],
                    b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+'
                ) {
                    self.at += 1;
                }
                let raw = std::str::from_utf8(&self.text[start..self.at]).unwrap();
                Json::Num(raw.parse().expect("a number"))
            }
        }
    }
}

fn contract() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "contract file over 64 KiB");
    match (Parser {
        text: text.as_bytes(),
        at: 0,
    })
    .value()
    {
        Json::Object(fields) => fields,
        other => panic!("top level is {other:?}"),
    }
}

fn objects(doc: &BTreeMap<String, Json>, key: &str) -> Vec<BTreeMap<String, Json>> {
    match &doc[key] {
        Json::List(items) => items
            .iter()
            .map(|i| match i {
                Json::Object(f) => f.clone(),
                other => panic!("{key} holds {other:?}"),
            })
            .collect(),
        other => panic!("{key} is {other:?}"),
    }
}

fn text(fields: &BTreeMap<String, Json>, key: &str) -> String {
    match &fields[key] {
        Json::Str(s) => s.clone(),
        other => panic!("{key} is {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn contract_has_exactly_the_expected_keys() {
    let doc = contract();
    let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc["paths"],
        Json::List(vec![Json::Str("benchmark".into())])
    );
    match &doc["run_seconds"] {
        Json::Num(s) => assert!(s.fract() == 0.0 && (1.0..=60.0).contains(s)),
        other => panic!("run_seconds is {other:?}"),
    }
    match &doc["command"] {
        Json::List(argv) => {
            assert!(argv.len() <= 32);
            for a in argv {
                let Json::Str(a) = a else {
                    panic!("argv holds {a:?}")
                };
                assert!(a.len() <= 200 && !a.starts_with('/') && !a.contains(".."));
            }
        }
        other => panic!("command is {other:?}"),
    }
}

#[test]
fn workloads_match_the_registry() {
    let listed = objects(&contract(), "workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    assert!((2..=8).contains(&listed.len()));
    for (got, want) in listed.iter().zip(WORKLOADS) {
        assert_eq!(got.len(), 2, "a workload has exactly name and why");
        assert_eq!(text(got, "name"), want.name);
        assert_eq!(text(got, "why"), want.why);
        assert!(valid_name(want.name));
        assert!(
            want.why.len() <= 200 && !want.why.contains('\n'),
            "{}",
            want.name
        );
    }
}

#[test]
fn metrics_match_the_registry() {
    let doc = contract();
    for (key, specs, bounded) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let listed = objects(&doc, key);
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (got, want) in listed.iter().zip(specs) {
            assert_eq!(text(got, "name"), want.name);
            assert_eq!(text(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(text(got, "better"), want.better.as_str(), "{}", want.name);
            assert!(valid_name(want.name), "{}", want.name);
            assert!(valid_unit(want.unit), "{}", want.name);
            if bounded {
                assert_eq!(got.len(), 4);
                let bound = want.bound.expect("end-to-end metrics carry a bound");
                assert_eq!(got["bound"], Json::Num(bound), "{}", want.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", want.name);
            } else {
                assert_eq!(got.len(), 3);
                assert!(want.bound.is_none(), "{}", want.name);
            }
        }
    }
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
}

#[test]
fn every_name_is_used_once() {
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total);
}
