//! Seeded fuzz suite for the serve JSON parser and proto decoder.
//!
//! The wire surface of `spa-serve`/`spa-fleet` is one JSON object per
//! line from untrusted clients. The invariant under test: **any** byte
//! sequence yields either a parsed request or a typed error — never a
//! panic, abort, or hang. The corpus is three-pronged:
//!
//! * random byte mutations of valid request lines (seeded SplitMix64,
//!   so failures reproduce — the seed is in the assertion message);
//! * adversarial hand-built corpora: pathological nesting, escape
//!   abuse, huge numbers, truncations;
//! * pinned regressions for the two defects this suite surfaced when
//!   first written: unbounded recursion on deep nesting (stack
//!   overflow → abort) and `1e999` parsing to a non-finite `f64` that
//!   rendered back as `null`.

use faultsim::rng::SplitMix64;
use serve::json;
use serve::proto::parse_request;

/// Valid request lines used as mutation seeds — one per verb.
fn seed_lines() -> Vec<String> {
    vec![
        r#"{"v":1,"id":1,"req":"eval_pu","layer":{"in_c":3,"in_h":32,"in_w":32,"out_c":16,"out_h":32,"out_w":32,"kernel":3,"stride":1,"groups":1,"is_fc":false},"pu":{"rows":16,"cols":16,"act_buf":4096,"wgt_buf":4096,"freq_mhz":800.0},"dataflow":"best"}"#.to_string(),
        r#"{"v":1,"id":2,"req":"segment","model":"alexnet","budget":"eyeriss"}"#.to_string(),
        r#"{"v":1,"id":3,"req":"codesign","model":"alexnet","budget":"eyeriss","method":"mip-baye","hw_iters":4,"seg_iters":8,"seed":3}"#.to_string(),
        r#"{"v":1,"id":4,"req":"status"}"#.to_string(),
        r#"{"v":1,"id":5,"req":"metrics","flight":true}"#.to_string(),
        r#"{"v":1,"id":6,"req":"cancel","target":3}"#.to_string(),
        r#"{"v":1,"id":8,"req":"shutdown","priority":2,"deadline_ms":500}"#.to_string(),
    ]
}

/// The property: parsing must return, and must return `Ok` or a typed
/// error — no panic (the test harness aborts on panic across the call),
/// no unbounded recursion (stack overflow aborts the process).
fn must_be_typed(line: &str, ctx: &str) {
    match parse_request(line) {
        Ok(_) => {}
        Err(e) => {
            assert!(!e.code.is_empty(), "{ctx}: error with empty code");
            assert!(
                [
                    "bad-json",
                    "bad-request",
                    "bad-version",
                    "unknown-request",
                ]
                .contains(&e.code),
                "{ctx}: unexpected decoder code {:?} for line {:?}",
                e.code,
                &line[..line.len().min(120)],
            );
        }
    }
}

#[test]
fn random_byte_mutations_never_panic() {
    let seeds = seed_lines();
    for (si, seed_line) in seeds.iter().enumerate() {
        let mut rng = SplitMix64::new(0x5eed_0000 + si as u64);
        for round in 0..2_000 {
            let mut bytes = seed_line.clone().into_bytes();
            // 1-4 point mutations: overwrite, insert, delete, truncate.
            for _ in 0..(1 + rng.below(4)) {
                if bytes.is_empty() {
                    break;
                }
                let pos = rng.below(bytes.len());
                match rng.below(4) {
                    0 => bytes[pos] = (rng.next_u64() & 0xff) as u8,
                    1 => bytes.insert(pos, (rng.next_u64() & 0x7f) as u8),
                    2 => {
                        bytes.remove(pos);
                    }
                    _ => bytes.truncate(pos),
                }
            }
            // The wire reader hands the decoder &str; non-UTF-8 input
            // never reaches it. Mirror that boundary here.
            if let Ok(s) = String::from_utf8(bytes) {
                must_be_typed(&s, &format!("seed {si} round {round}"));
            }
        }
    }
}

#[test]
fn shuffled_and_spliced_fields_never_panic() {
    // Structure-aware mutations: swap chunks between two valid lines so
    // the decoder sees type-confused but often well-formed JSON.
    let seeds = seed_lines();
    let mut rng = SplitMix64::new(0xc0ffee);
    for round in 0..2_000 {
        let a = &seeds[rng.below(seeds.len())];
        let b = &seeds[rng.below(seeds.len())];
        let ca = rng.below(a.len().max(1));
        let cb = rng.below(b.len().max(1));
        let mut spliced = String::new();
        spliced.push_str(&a[..ca.min(a.len())]);
        spliced.push_str(&b[cb.min(b.len())..]);
        must_be_typed(&spliced, &format!("splice round {round}"));
    }
}

#[test]
fn adversarial_nesting_is_typed_not_fatal() {
    // Regression (pinned): unbounded mutual recursion in the parser
    // meant ~100k opening brackets overran the thread stack — an abort
    // the socket loop cannot type. Now a typed error at MAX_DEPTH.
    for deep in [json::MAX_DEPTH + 1, 4_096, 100_000] {
        let arrays = "[".repeat(deep);
        let err = json::parse(&arrays).expect_err("deep arrays must fail");
        assert_eq!(err.reason, "too deeply nested", "depth {deep}");
        let objects = "{\"k\":".repeat(deep);
        let err = json::parse(&objects).expect_err("deep objects must fail");
        assert_eq!(err.reason, "too deeply nested", "depth {deep}");
        // Mixed nesting, closed properly — still beyond the cap.
        let mixed = format!("{}1{}", "[{\"k\":".repeat(deep), "}]".repeat(deep));
        assert!(json::parse(&mixed).is_err(), "mixed depth {deep}");
    }
    // At the cap: parses fine (the protocol itself nests two levels).
    let ok = format!(
        "{}0{}",
        "[".repeat(json::MAX_DEPTH),
        "]".repeat(json::MAX_DEPTH)
    );
    assert!(json::parse(&ok).is_ok());
    must_be_typed(&"[".repeat(100_000), "deep nesting through the decoder");
}

#[test]
fn overflowing_numbers_are_typed_not_infinite() {
    // Regression (pinned): "1e999" parsed to f64::INFINITY, which the
    // renderer degrades to null — a silent wire corruption. Now typed.
    for bad in ["1e999", "-1e999", "1e309", "9e999999999", "123456789e400"] {
        let err = json::parse(bad).expect_err(bad);
        assert_eq!(err.reason, "number out of range", "{bad}");
    }
    must_be_typed(r#"{"v":1e999,"id":1,"req":"status"}"#, "inf version");
    must_be_typed(r#"{"v":1,"id":1e999,"req":"status"}"#, "inf id");
    // Finite extremes still work.
    assert!(json::parse("1e308").is_ok());
    assert!(json::parse("-1.7976931348623157e308").is_ok());
    assert!(json::parse("5e-324").is_ok());
    assert!(json::parse("1e-999").is_ok(), "underflows to zero");
}

#[test]
fn escape_abuse_corpus_is_typed() {
    let cases = [
        r#""\"#,                        // lone backslash at end
        r#""\u""#,                      // truncated \u
        r#""\u12""#,                    // short \u
        r#""\ud800""#,                  // lone high surrogate
        r#""\udc00""#,                  // lone low surrogate
        r#""\ud800\ud800""#,            // high+high
        r#""\ud800\u0041""#,            // high+non-surrogate
        r#""\uD83D\uDE00""#,            // valid pair (must parse)
        r#""\q""#,                      // unknown escape
        r#""\u{1f600}""#,               // rust-style escape (invalid JSON)
        "\"\\u0000\"",                  // NUL via escape (valid)
        "\"a\u{7f}b\"",                 // raw DEL char (valid)
    ];
    for c in cases {
        let _ = json::parse(c); // must return, Ok or Err
        must_be_typed(&format!(r#"{{"v":1,"id":1,"req":{c}}}"#), c);
    }
    // Escape bombs: long runs of escapes must not blow up.
    let bomb = format!("\"{}\"", "\\u0041".repeat(20_000));
    assert_eq!(
        json::parse(&bomb).expect("escape run parses"),
        json::Json::Str("A".repeat(20_000))
    );
}

#[test]
fn truncation_sweep_of_every_seed_is_typed() {
    // Every prefix of every valid line: the classic torn-write shape.
    for (si, line) in seed_lines().iter().enumerate() {
        for cut in 0..line.len() {
            if line.is_char_boundary(cut) {
                must_be_typed(&line[..cut], &format!("seed {si} cut {cut}"));
            }
        }
    }
}

#[test]
fn decoder_type_confusion_corpus_is_typed() {
    let cases = [
        r#"{"v":"1","id":1,"req":"status"}"#,          // string version
        r#"{"v":1,"id":"x","req":"status"}"#,          // string id
        r#"{"v":1,"id":1,"req":42}"#,                  // numeric req
        r#"{"v":1,"id":1,"req":["status"]}"#,          // array req
        r#"{"v":1,"id":-1,"req":"status"}"#,           // negative id
        r#"{"v":1,"id":1.5,"req":"status"}"#,          // fractional id
        r#"{"v":1,"id":18446744073709551616,"req":"status"}"#, // above u64
        r#"{"v":1,"id":1,"req":"eval_pu","layer":null,"pu":null,"dataflow":null}"#,
        r#"{"v":1,"id":1,"req":"eval_pu","layer":{},"pu":{},"dataflow":"WS"}"#,
        r#"{"v":1,"id":1,"req":"codesign","model":3,"budget":true,"method":[]}"#,
        r#"{"v":1,"id":1,"req":"cancel","target":"self"}"#,
        r#"{"v":1,"id":1,"req":"status","priority":"high"}"#,
        r#"{"v":1,"id":1,"req":"status","deadline_ms":1.5}"#,
        "null",
        "[]",
        "0",
        "\"status\"",
    ];
    for c in cases {
        must_be_typed(c, c);
        match parse_request(c) {
            Ok(env) => panic!("{c:?} should not decode, got {env:?}"),
            Err(e) => assert!(!e.code.is_empty()),
        }
    }
}
