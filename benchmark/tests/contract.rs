//! The benchmark against its contract, `../BENCHMARK.json`: the names,
//! units and bounds the code prints are the ones the file lists, a
//! `--quick` run of the whole suite prints each of them exactly once per
//! workload with a finite value, and the op stream is a function of the
//! seed.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use relc_benchmark::report::{Better, END_TO_END, PER_LAYER};
use relc_benchmark::workloads::NAMES;

/// Just enough JSON to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    List(Vec<Json>),
    Map(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Map(m) => &m.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{key} of {other:?}"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(l) => l,
            other => panic!("not a list: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> u8 {
        while self.src[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
        self.src[self.at]
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(self.peek(), c, "at byte {}", self.at);
        self.at += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.at;
        while self.src[self.at] != b'"' {
            assert_ne!(self.src[self.at], b'\\', "no escapes in BENCHMARK.json");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.src[start..self.at - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'"' => Json::Str(self.string()),
            open @ (b'[' | b'{') => {
                let close = if open == b'[' { b']' } else { b'}' };
                self.at += 1;
                let (mut list, mut map) = (Vec::new(), Vec::new());
                while self.peek() != close {
                    if open == b'{' {
                        let key = self.string();
                        self.eat(b':');
                        map.push((key, self.value()));
                    } else {
                        list.push(self.value());
                    }
                    if self.peek() == b',' {
                        self.at += 1;
                    }
                }
                self.at += 1;
                if open == b'[' {
                    Json::List(list)
                } else {
                    Json::Map(map)
                }
            }
            _ => {
                let start = self.at;
                while matches!(
                    self.src[self.at],
                    b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+'
                ) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.at]).expect("utf-8");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Parser {
        src: text.as_bytes(),
        at: 0,
    }
    .value()
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn catalogue_is_the_contract() {
    let c = contract();
    let workloads: Vec<&str> = c
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, NAMES);
    for w in c.get("workloads").list() {
        let why = w.get("why").str();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let listed: Vec<(&str, &str, &str, f64)> = c
        .get("end_to_end")
        .list()
        .iter()
        .map(|m| {
            (
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str(),
                m.get("bound").num(),
            )
        })
        .collect();
    let coded: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            (m.name, m.unit, better, m.bound)
        })
        .collect();
    assert_eq!(listed, coded);
    let setup = listed.iter().find(|m| m.0 == "setup_s").expect("setup_s");
    assert_eq!((setup.1, setup.2), ("s", "lower"));
    let largest = listed.iter().map(|m| m.3).fold(0.0, f64::max);
    assert!(setup.3 == largest && largest <= 0.25);

    let listed: Vec<(&str, &str)> = c
        .get("per_layer")
        .list()
        .iter()
        .map(|m| (m.get("name").str(), m.get("unit").str()))
        .collect();
    assert_eq!(listed, PER_LAYER);

    let mut names = BTreeSet::new();
    let all = workloads
        .iter()
        .chain(END_TO_END.iter().map(|m| &m.name))
        .chain(PER_LAYER.iter().map(|(n, _)| n));
    for name in all {
        assert!(well_formed_name(name), "{name}");
        assert!(names.insert(*name), "{name} is used twice");
    }
    let command: Vec<&str> = c.get("command").list().iter().map(Json::str).collect();
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert_eq!(c.get("paths").list(), [Json::Str("benchmark".into())]);
    let seconds = c.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

/// The suite's stdout and whether it exited with code 0.
fn suite(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_relc-benchmark"))
        .args(args)
        .output()
        .expect("run relc-benchmark");
    (
        String::from_utf8(out.stdout).expect("utf-8 output"),
        out.status.success(),
    )
}

/// `stream <workload> seed=.. hash=..` lines, as workload → hashes seen.
fn stream_hashes(stdout: &str) -> BTreeMap<String, BTreeSet<String>> {
    let mut hashes: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for line in stdout.lines() {
        if let ["stream", workload, _, hash] = *line.split(' ').collect::<Vec<_>>() {
            hashes
                .entry(workload.to_owned())
                .or_default()
                .insert(hash.to_owned());
        }
    }
    hashes
}

#[test]
fn quick_suite_prints_every_metric_once_and_streams_follow_the_seed() {
    let (stdout, ok) = suite(&["--quick", "--seed", "7"]);
    assert!(ok, "the quick suite failed:\n{stdout}");

    let mut seen: BTreeMap<(String, String), (f64, String)> = BTreeMap::new();
    for line in stdout.lines() {
        if let ["metric", workload, name, value, unit, ..] = *line.split(' ').collect::<Vec<_>>() {
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("value in {line:?}"));
            let key = (workload.to_owned(), name.to_owned());
            assert!(
                seen.insert(key, (value, unit.to_owned())).is_none(),
                "printed twice: {line}"
            );
        }
    }
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    let expected: Vec<(&str, &str)> = end_to_end.chain(PER_LAYER.iter().copied()).collect();
    assert_eq!(seen.len(), NAMES.len() * expected.len());
    for workload in NAMES {
        for (name, unit) in &expected {
            let (value, printed_unit) = seen
                .get(&(workload.to_string(), name.to_string()))
                .unwrap_or_else(|| panic!("{workload} {name} was not printed"));
            assert_eq!(printed_unit, unit, "{workload} {name}");
            assert!(value.is_finite(), "{workload} {name} = {value}");
        }
        // End-to-end metrics are never 0; a failed op makes the run fail.
        for m in END_TO_END {
            assert!(seen[&(workload.to_string(), m.name.to_string())].0 > 0.0);
        }
        assert_eq!(
            seen[&(workload.to_string(), "check.failed_share".to_string())].0,
            0.0
        );
        assert!(seen[&(workload.to_string(), "trace.coverage_share".to_string())].0 >= 0.9);
        let trace = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
        let trace = std::fs::read_to_string(trace).expect("trace file");
        assert!(trace.contains("\"parent\": null") && trace.contains("\"name\": \"op\""));
    }
    assert!(
        stdout.trim_end().ends_with("\"claim\": null}"),
        "the summary claims no gain"
    );

    // The untraced and the traced run of one seed drew the same stream;
    // another seed draws another.
    let same_seed = stream_hashes(&stdout);
    let (stdout, ok) = suite(&["--quick", "--seed", "8", "--trace", "0", "--seconds", "0.2"]);
    assert!(ok, "the second quick suite failed:\n{stdout}");
    let other_seed = stream_hashes(&stdout);
    for workload in NAMES {
        let (a, b) = (&same_seed[workload], &other_seed[workload]);
        assert_eq!(a.len(), 1, "{workload}: one seed, two streams");
        assert!(a.is_disjoint(b), "{workload}: two seeds, one stream");
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--seed"],
        &["--frobnicate"],
    ] {
        let (stdout, ok) = suite(args);
        assert!(!ok && stdout.is_empty(), "{args:?} was accepted");
    }
}
