//! Property tests for the request parser, which reads lines straight
//! off client sockets:
//!
//! 1. **Robustness** — [`parse_request`] never panics, on arbitrary
//!    text or on lines assembled from plausible `key=value` fragments;
//! 2. **Round trip** — every accepted `submit` re-parses to an equal
//!    request from its [`CampaignSpec::canonical`] fields (tenant and
//!    weight added back), so the canonical identity loses nothing the
//!    parser accepted.

use proptest::prelude::*;
use proptest::TestCaseError;
use sca_server::{parse_request, CampaignSpec, Request};

/// Arbitrary text: code points from the whole Unicode range, biased
/// towards the protocol's own characters.
fn arb_text() -> impl Strategy<Value = String> {
    let char_code = prop_oneof![
        3 => prop::sample::select(vec![' ', '\t', '\n', '=', 'x', '0', '-', '.', 'e']).prop_map(u32::from),
        1 => 0u32..0x80,
        1 => 0u32..0x11_0000,
    ];
    prop::collection::vec(char_code, 0..48)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

/// A request line built from verb and `key=value` fragments, valid or
/// nearly so.
fn arb_fragment_line() -> impl Strategy<Value = String> {
    let verb = prop::sample::select(vec![
        "submit", "submit", "submit", "stats", "metrics", "shutdown", "", "SUBMIT", "sub",
    ]);
    let key = prop::sample::select(vec![
        "tenant",
        "target",
        "analysis",
        "traces",
        "executions",
        "seed",
        "noise-sd",
        "noise-baseline",
        "weight",
        "lanes",
        "",
    ]);
    let value = prop_oneof![
        prop::sample::select(vec![
            "ci",
            "aes128",
            "present80",
            "hw",
            "hd",
            "tvla",
            "cpa",
            "",
            "=",
            "a=b",
            "0",
            "1",
            "150",
            "0x",
            "0x10",
            "0xdac2018",
            "0XFF",
            "-1",
            "+7",
            "1e300",
            "-0",
            "-0.0",
            "2.5",
            "NaN",
            "-nan",
            "inf",
            "-inf",
            "infinity",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "1_000",
            "é",
            "\u{0}",
        ])
        .prop_map(str::to_owned),
        any::<u64>().prop_map(|v| v.to_string()),
        any::<u64>().prop_map(|v| format!("0x{v:x}")),
        any::<u64>().prop_map(|bits| f64::from_bits(bits).to_string()),
    ];
    let fragment = prop_oneof![
        4 => (key, value).prop_map(|(k, v)| format!("{k}={v}")),
        1 => arb_text(),
    ];
    let separator = prop::sample::select(vec![" ", " ", "  ", "\t", " \u{a0}"]);
    (
        verb,
        prop::collection::vec((separator, fragment), 0..12),
        prop::sample::select(vec!["", " ", "\r"]),
    )
        .prop_map(|(verb, fragments, tail)| {
            let mut line = verb.to_owned();
            for (separator, fragment) in fragments {
                line.push_str(separator);
                line.push_str(&fragment);
            }
            line.push_str(tail);
            line
        })
}

/// An integer field value: decimal, hex, or malformed.
fn arb_integer() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|v| v.to_string()),
        any::<u64>().prop_map(|v| format!("0x{v:x}")),
        (0u64..300).prop_map(|v| v.to_string()),
        prop::sample::select(vec![
            "0x",
            "abc",
            "-1",
            "+7",
            "18446744073709551616",
            "4294967296"
        ])
        .prop_map(str::to_owned),
    ]
}

/// A float field value: any bit pattern's spelling, or a special one.
fn arb_float() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|bits| f64::from_bits(bits).to_string()),
        (0u32..100).prop_map(|v| format!("{v}.5")),
        prop::sample::select(vec![
            "-0", "1e300", "5e-324", "NaN", "-nan", "inf", "-inf", "x"
        ])
        .prop_map(str::to_owned),
    ]
}

/// A `submit` line with the required fields (values valid or nearly
/// so), each optional field present or not, and the fields rotated.
fn arb_submit_line() -> impl Strategy<Value = String> {
    let required = (
        prop::sample::select(vec!["ci", "t", "a=b", "", "é"]),
        prop::sample::select(vec!["aes128", "present80", "", "zz"]),
        prop::sample::select(vec!["hw", "hd", "tvla", "hw", "cpa"]),
        arb_integer(),
    );
    let optional = (
        (any::<bool>(), arb_integer()),
        (any::<bool>(), arb_integer()),
        (any::<bool>(), arb_float()),
        (any::<bool>(), arb_float()),
        (any::<bool>(), arb_integer()),
    );
    (required, optional, 0usize..9).prop_map(
        |((tenant, target, analysis, traces), (executions, seed, sd, baseline, weight), rotate)| {
            let mut fields = vec![
                format!("tenant={tenant}"),
                format!("target={target}"),
                format!("analysis={analysis}"),
                format!("traces={traces}"),
            ];
            for (key, (present, value)) in [
                ("executions", executions),
                ("seed", seed),
                ("noise-sd", sd),
                ("noise-baseline", baseline),
                ("weight", weight),
            ] {
                if present {
                    fields.push(format!("{key}={value}"));
                }
            }
            let rotate = rotate % fields.len();
            fields.rotate_left(rotate);
            format!("submit {}", fields.join(" "))
        },
    )
}

/// The wire spelling of a float that parses back to the same bits (any
/// NaN the parser produces is the default one, possibly negated).
fn wire_float(value: f64) -> String {
    match (value.is_nan(), value.is_sign_negative()) {
        (true, true) => "-NaN".to_owned(),
        (true, false) => "NaN".to_owned(),
        _ => value.to_string(),
    }
}

/// A `submit` line carrying `spec`'s canonical fields, plus the tenant
/// and weight the canonical identity leaves out.
fn line_from_canonical(spec: &CampaignSpec, weight: Option<u32>) -> String {
    let mut line = format!("submit tenant={}", spec.tenant);
    for field in spec.canonical().split(' ') {
        let (key, value) = field
            .split_once('=')
            .expect("canonical fields are key=value");
        let value = match key {
            "seed" => format!("0x{value}"),
            "noise-sd" | "noise-baseline" => {
                let bits =
                    u64::from_str_radix(value, 16).expect("canonical floats are bit patterns");
                wire_float(f64::from_bits(bits))
            }
            _ => value.to_owned(),
        };
        line.push_str(&format!(" {key}={value}"));
    }
    if let Some(weight) = weight {
        line.push_str(&format!(" weight={weight}"));
    }
    line
}

/// Checks the round trip of one parsed request.
fn check_round_trip(line: &str) -> Result<(), TestCaseError> {
    let Ok(Request::Submit { spec, weight }) = parse_request(line) else {
        return Ok(());
    };
    let again = line_from_canonical(&spec, weight);
    let reparsed = parse_request(&again);
    let Ok(Request::Submit {
        spec: spec2,
        weight: weight2,
    }) = reparsed
    else {
        return Err(TestCaseError(format!(
            "'{line}' was accepted but '{again}' gave {reparsed:?}"
        )));
    };
    prop_assert_eq!(&spec2.canonical(), &spec.canonical(), "line '{}'", line);
    prop_assert_eq!(&spec2.tenant, &spec.tenant);
    prop_assert_eq!(weight2, weight);
    if !spec.noise.sd.is_nan() && !spec.noise.baseline.is_nan() {
        prop_assert_eq!(spec2, spec);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary text never panics the parser.
    #[test]
    fn arbitrary_text_never_panics(line in arb_text()) {
        let _ = parse_request(&line);
        check_round_trip(&line)?;
    }

    /// Lines from `key=value` fragments never panic the parser, and
    /// every accepted `submit` round-trips through its canonical form.
    #[test]
    fn accepted_submits_round_trip_through_canonical(
        line in prop_oneof![arb_fragment_line(), arb_submit_line()],
    ) {
        check_round_trip(&line)?;
    }
}

/// Edge cases the round trip must survive: a tenant containing `=`, an
/// empty target, hex traces, a negative NaN, a clamped weight, negative
/// zero, infinity and zero executions (range checks come later, at
/// submission).
#[test]
fn edge_case_submits_round_trip() {
    for line in [
        "submit tenant=ci target=aes128 analysis=hw traces=150",
        "submit\ttenant=a=b target= analysis=tvla traces=0x10 seed=7 noise-sd=-NaN weight=4294967296",
        "submit tenant=t target=x analysis=hd traces=1 noise-sd=-0 noise-baseline=inf executions=0",
    ] {
        assert!(matches!(parse_request(line), Ok(Request::Submit { .. })), "{line}");
        check_round_trip(line).expect("round trip");
    }
}

/// The submit generator reaches accepted submits often enough that the
/// round-trip property is not vacuous.
#[test]
fn submit_lines_are_often_accepted() {
    let strategy = arb_submit_line();
    let mut rng = proptest::fresh_rng("submit_lines_are_often_accepted");
    let accepted = (0..2000)
        .filter(|_| {
            let line = strategy.sample(&mut rng);
            matches!(parse_request(&line), Ok(Request::Submit { .. }))
        })
        .count();
    assert!(
        accepted >= 200,
        "only {accepted} of 2000 lines were accepted submits"
    );
}
