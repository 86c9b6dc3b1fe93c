//! The benchmark's own tests, at tiny sizes.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::golden::Golden;
use perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::workloads::tenant_mix::{script, Kind};
use perfbench::workloads::{
    corpus_lint, lint_triage, portfolio_live, tenant_mix, Ctx, Sizes, Workload,
};

/// Workloads read process-wide telemetry counters as deltas: run them
/// one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_ctx<'a>(tracer: &'a Tracer, name: &str, seed: u64) -> Ctx<'a> {
    Ctx {
        seed,
        seconds: 1e-3,
        sizes: Sizes::tiny(),
        tracer,
        work_dir: scratch(name),
    }
}

fn run_tiny(workload: Workload, tracer: &Tracer) -> Outcome {
    let ctx = tiny_ctx(tracer, workload.name(), 11);
    match workload {
        Workload::PortfolioLive => {
            let golden =
                portfolio_live::capture(&ctx.sizes, &[ctx.seed]).expect("counters are seed-free");
            portfolio_live::run(&ctx, &golden)
        }
        Workload::CorpusLint => corpus_lint::run(&ctx),
        Workload::TenantMix => tenant_mix::run(&ctx),
    }
    .expect("tiny workload runs")
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with a
/// minimal scan (the benchmark has no JSON dependency).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(e2e, own(END_TO_END));
    assert_eq!(layers, own(PER_LAYER));
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "bad metric name {name}");
    }
    let tracer = Tracer::new(true);
    for workload in Workload::ALL {
        let outcome = run_tiny(workload, &tracer);
        assert!(outcome.checks.attempted > 0, "{}", workload.name());
        assert_eq!(
            outcome.checks.failed,
            0,
            "{}: {:?}",
            workload.name(),
            outcome.checks.failures
        );
        let emitted: Vec<(String, String)> = outcome
            .end_to_end(1.0)
            .into_iter()
            .map(|(n, u, _)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(emitted, e2e, "{}", workload.name());
        let emitted: Vec<(String, String)> = outcome
            .per_layer()
            .into_iter()
            .map(|(n, u, _)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(emitted, layers, "{}", workload.name());
        for (name, _, value) in outcome.end_to_end(1.0) {
            assert!(value > 0.0, "{}: {name} reads {value}", workload.name());
        }
    }
}

#[test]
fn the_tenant_mix_script_is_a_pure_function_of_the_seed() {
    let sizes = Sizes::tiny();
    let a = script(5, &sizes, 3);
    assert_eq!(a, script(5, &sizes, 3));
    let b = script(6, &sizes, 3);
    assert_ne!(a, b);
    for rounds in [&a, &b] {
        // Fixed composition: every round is two distinct specs, a
        // duplicate of the first, and a resubmission of an earlier one,
        // each from a different session.
        assert_eq!(rounds.len(), 18);
        for round in rounds.iter() {
            let kinds: Vec<Kind> = round.iter().map(|r| r.kind).collect();
            assert_eq!(
                kinds,
                [
                    Kind::Distinct,
                    Kind::Distinct,
                    Kind::Duplicate,
                    Kind::Resubmit
                ]
            );
            assert_eq!(round[2].spec.fingerprint(), round[0].spec.fingerprint());
            let mut sessions: Vec<usize> = round.iter().map(|r| r.session).collect();
            sessions.sort_unstable();
            assert_eq!(sessions, [0, 1, 2, 3]);
        }
    }
}

#[test]
fn a_wrong_golden_value_raises_the_error_rate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tracer = Tracer::new(false);
    let ctx = tiny_ctx(&tracer, "golden", 3);
    let golden = portfolio_live::capture(&ctx.sizes, &[ctx.seed]).expect("capture");
    let good = portfolio_live::run(&ctx, &golden).expect("runs");
    assert_eq!(good.checks.failed, 0, "{:?}", good.checks.failures);
    assert_eq!(good.checks.error_rate(), 0.0);

    let mut wrong_counter = golden.clone();
    let counters = wrong_counter
        .counters
        .get_mut("aes128/cpa-hw")
        .expect("aes128 HW CPA pinned");
    counters[0].1 += 1;
    let mut wrong_line: Golden = golden.clone();
    wrong_line
        .lines
        .get_mut(&ctx.seed)
        .and_then(|ops| ops.get_mut("speck64128/tvla"))
        .expect("speck TVLA pinned")[0]
        .push('!');
    for wrong in [wrong_counter, wrong_line] {
        let outcome = portfolio_live::run(&ctx, &wrong).expect("runs");
        assert!(outcome.checks.error_rate() > 0.0);
        assert!(outcome.checks.failed >= 1);
    }
}

#[test]
fn the_lint_pins_split_into_the_five_programs() {
    let sections = lint_triage::parse_pins(lint_triage::LINT_PINS);
    let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "aes128",
            "aes128-masked",
            "aes128-masked+sched",
            "speck64128",
            "present80"
        ]
    );
}
