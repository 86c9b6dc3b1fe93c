//! `tenant-mix`: an in-process campaign server (one worker, two engine
//! threads per slice) under a closed loop of four tenant sessions,
//! driven from one generator thread.
//!
//! The loop runs in rounds: each session has exactly one request
//! outstanding, and the next round goes out when all four are final.
//! Every round sends two *distinct* specs (they simulate, write pages
//! and write WAL checkpoints), a *duplicate* of the first while it is
//! still in flight (it coalesces), and a *resubmission* of a spec that
//! completed earlier (it is restored from the store). A cycle is six
//! rounds covering all twelve (target, analysis) pairs once, paired the
//! same way every cycle; the seed chooses the round order, which
//! session sends what, every spec seed, and which completed spec is
//! resubmitted.
//!
//! Work is traces delivered in final verdicts; a job is one request.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use sca_power::GaussianNoise;
use sca_server::{AnalysisSel, CampaignServer, CampaignSpec, Event, ServerConfig, ServerStats};
use sca_target::{portfolio, ModelKind, TargetCampaign, TargetCampaignConfig};
use sca_uarch::UarchConfig;

use super::{ratio, simulation_layers, store_write_layers, BenchResult, Ctx, Sizes};
use crate::gen::{derive, SplitMix64};
use crate::metrics::{Latency, Outcome, Pass};
use crate::stats::median;
use crate::trace::{Probe, Work};

/// Concurrent tenant sessions.
pub const SESSIONS: usize = 4;

/// The fixed pairing of a cycle's twelve distinct specs into rounds.
const ROUNDS: [[(&str, AnalysisSel); 2]; 6] = [
    [("aes128", AnalysisSel::Hw), ("aes128", AnalysisSel::Hd)],
    [
        ("aes128-masked", AnalysisSel::Hw),
        ("aes128-masked", AnalysisSel::Hd),
    ],
    [
        ("speck64128", AnalysisSel::Hw),
        ("speck64128", AnalysisSel::Hd),
    ],
    [
        ("present80", AnalysisSel::Hw),
        ("present80", AnalysisSel::Hd),
    ],
    [
        ("aes128", AnalysisSel::Tvla),
        ("aes128-masked", AnalysisSel::Tvla),
    ],
    [
        ("speck64128", AnalysisSel::Tvla),
        ("present80", AnalysisSel::Tvla),
    ],
];

/// What a request is meant to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A spec never seen before: simulates.
    Distinct,
    /// The same spec as an in-flight distinct one: coalesces.
    Duplicate,
    /// A spec that already completed: served from the store.
    Resubmit,
}

/// One scripted request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The sending session.
    pub session: usize,
    /// The request's role in the mix.
    pub kind: Kind,
    /// The spec (its tenant is the session's).
    pub spec: CampaignSpec,
}

fn spec(
    sizes: &Sizes,
    session: usize,
    target: &str,
    analysis: AnalysisSel,
    seed: u64,
) -> CampaignSpec {
    CampaignSpec {
        tenant: format!("tenant-{session}"),
        target: target.to_owned(),
        analysis,
        traces: sizes.tenant_traces,
        executions_per_trace: sizes.tenant_executions,
        seed,
        noise: GaussianNoise {
            sd: 2.0,
            baseline: 30.0,
        },
    }
}

/// The spec completed during set-up repetition `rep`, so the first
/// round already has something to resubmit.
#[must_use]
fn warm_spec(seed: u64, sizes: &Sizes, rep: usize) -> CampaignSpec {
    spec(
        sizes,
        0,
        "speck64128",
        AnalysisSel::Hw,
        derive(seed, "tenant-warm", rep as u64),
    )
}

/// The rounds of cycle `cycle`, given every distinct spec scripted
/// before it (`history`, which starts with the warm spec).
#[must_use]
fn cycle_script(
    seed: u64,
    cycle: u64,
    sizes: &Sizes,
    history: &[CampaignSpec],
) -> Vec<Vec<Request>> {
    let mut rng = SplitMix64::new(derive(seed, "tenant-cycle", cycle));
    let mut order: Vec<usize> = (0..ROUNDS.len()).collect();
    rng.shuffle(&mut order);
    let mut completed = history.to_vec();
    let mut rounds = Vec::new();
    for (r, &pair) in order.iter().enumerate() {
        let mut slots: Vec<usize> = (0..SESSIONS).collect();
        rng.shuffle(&mut slots);
        let spec_seed = |k: u64| derive(seed, "tenant-spec", cycle * 16 + 2 * r as u64 + k);
        let [(ta, aa), (tb, ab)] = ROUNDS[pair];
        let a = spec(sizes, slots[0], ta, aa, spec_seed(0));
        let b = spec(sizes, slots[1], tb, ab, spec_seed(1));
        let resubmit = completed[rng.below(completed.len())].clone();
        let as_session = |spec: &CampaignSpec, session: usize| CampaignSpec {
            tenant: format!("tenant-{session}"),
            ..spec.clone()
        };
        rounds.push(vec![
            Request {
                session: slots[0],
                kind: Kind::Distinct,
                spec: a.clone(),
            },
            Request {
                session: slots[1],
                kind: Kind::Distinct,
                spec: b.clone(),
            },
            Request {
                session: slots[2],
                kind: Kind::Duplicate,
                spec: as_session(&a, slots[2]),
            },
            Request {
                session: slots[3],
                kind: Kind::Resubmit,
                spec: as_session(&resubmit, slots[3]),
            },
        ]);
        completed.push(a);
        completed.push(b);
    }
    rounds
}

/// The first `cycles` cycles of the script for `seed`.
#[must_use]
pub fn script(seed: u64, sizes: &Sizes, cycles: u64) -> Vec<Vec<Request>> {
    let mut history = vec![warm_spec(seed, sizes, sizes.setup_reps - 1)];
    let mut all = Vec::new();
    for cycle in 0..cycles {
        let rounds = cycle_script(seed, cycle, sizes, &history);
        history.extend(distinct_specs(&rounds));
        all.extend(rounds);
    }
    all
}

fn distinct_specs(rounds: &[Vec<Request>]) -> Vec<CampaignSpec> {
    rounds
        .iter()
        .flatten()
        .filter(|r| r.kind == Kind::Distinct)
        .map(|r| r.spec.clone())
        .collect()
}

/// What happened to one request.
#[derive(Clone, Debug)]
struct Record {
    spec: CampaignSpec,
    submitted: Instant,
    first_progress: Option<Instant>,
    finished: Option<Instant>,
    line: Option<String>,
    error: Option<String>,
}

fn server_config(sizes: &Sizes, root: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(root);
    // workers × threads_per_slice = 2 cores. One worker interleaves
    // the tenants' slices through the fair scheduler; two workers would
    // let concurrent slices' allocations overlap at random, which makes
    // the memory high-water mark vary from run to run.
    config.workers = 1;
    config.threads_per_slice = sizes.threads;
    config.slice_traces = sizes.tenant_slice;
    config.checkpoint_every = sizes.tenant_slice;
    config
}

/// Submits a round and waits until every request has ended.
fn run_round(server: &CampaignServer, round: &[Request]) -> Vec<Record> {
    let mut records = Vec::new();
    let mut streams: Vec<Option<Receiver<Event>>> = Vec::new();
    for request in round {
        let submitted = Instant::now();
        let (error, stream) = match server.submit(&request.spec, None) {
            Ok((_, rx, _)) => (None, Some(rx)),
            Err(e) => (Some(format!("rejected: {e}")), None),
        };
        records.push(Record {
            spec: request.spec.clone(),
            submitted,
            first_progress: None,
            finished: None,
            line: None,
            error,
        });
        streams.push(stream);
    }
    while streams.iter().any(Option::is_some) {
        let mut idle = true;
        for (record, stream) in records.iter_mut().zip(streams.iter_mut()) {
            let Some(rx) = stream else { continue };
            loop {
                match rx.try_recv() {
                    Ok(event) => {
                        idle = false;
                        let now = Instant::now();
                        match event {
                            Event::Accepted { .. } => {}
                            Event::Progress { .. } => {
                                record.first_progress.get_or_insert(now);
                            }
                            Event::Final { line, .. } => {
                                record.finished = Some(now);
                                record.line = Some(line);
                            }
                            Event::Failed { message, .. } => record.error = Some(message),
                            Event::Done { .. } => {
                                *stream = None;
                                break;
                            }
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        record
                            .error
                            .get_or_insert_with(|| "event stream closed early".to_owned());
                        *stream = None;
                        break;
                    }
                }
            }
        }
        if idle {
            // The generator shares two cores with the slice threads;
            // polling every millisecond rather than every 100 µs keeps
            // it off them, at under 1% of a request's latency.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    records
}

/// The one-shot `TargetCampaign` verdict line for a spec, in the
/// server's final-line format.
///
/// # Errors
///
/// Unknown targets and campaign faults.
fn one_shot_line(spec: &CampaignSpec, threads: usize) -> BenchResult<String> {
    let targets = portfolio();
    let (index, target) = targets
        .iter()
        .enumerate()
        .find(|(_, t)| t.name() == spec.target)
        .ok_or_else(|| format!("unknown target {}", spec.target))?;
    let salt = index as u64 + 1;
    let campaign = TargetCampaign::new(
        target.as_ref(),
        &UarchConfig::cortex_a7(),
        TargetCampaignConfig {
            traces: usize::try_from(spec.traces)?,
            executions_per_trace: usize::try_from(spec.executions_per_trace)?,
            seed: spec.seed ^ (salt << 24),
            threads,
            batch: sca_campaign::DEFAULT_BATCH,
            lanes: sca_campaign::DEFAULT_LANES,
            noise: spec.noise,
        },
    )?;
    let name = &spec.target;
    let kind = match spec.analysis {
        AnalysisSel::Hw => ModelKind::ValueHw,
        AnalysisSel::Hd => ModelKind::TransitionHd,
        AnalysisSel::Tvla => {
            let v = campaign.tvla()?;
            let verdict = if v.leaks { "LEAKS" } else { "clean" };
            return Ok(format!("[{name}] TVLA fixed-vs-random: {verdict}"));
        }
    };
    let model = target
        .models()
        .into_iter()
        .find(|m| m.kind == kind)
        .ok_or_else(|| format!("{name} declares no {kind} model"))?;
    Ok(format!("[{name}] {}", campaign.cpa(&model)?.verdict()))
}

fn stats_delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        submitted: after.submitted - before.submitted,
        coalesced: after.coalesced - before.coalesced,
        rejected: after.rejected - before.rejected,
        completed: after.completed - before.completed,
        failed: after.failed - before.failed,
        slices: after.slices - before.slices,
        store_served: after.store_served - before.store_served,
        queue_peak: after.queue_peak,
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures and scratch I/O.
pub fn run(ctx: &Ctx) -> BenchResult<Outcome> {
    let sizes = &ctx.sizes;
    let mut outcome = Outcome::default();
    let mut records = Vec::new();

    // Set-up: start a server on an empty corpus root and complete the
    // warm spec; the last repetition's server serves the timed phase.
    let reps = sizes.setup_reps;
    let mut server = None;
    for rep in 0..reps {
        let root = ctx.work_dir.join(format!("server-{rep}"));
        let start = Instant::now();
        let started = CampaignServer::start(server_config(sizes, &root));
        let warm = warm_spec(ctx.seed, sizes, rep);
        let warmed = run_round(
            &started,
            &[Request {
                session: 0,
                kind: Kind::Distinct,
                spec: warm,
            }],
        );
        outcome.setup.push(start.elapsed().as_secs_f64());
        records.extend(warmed);
        if rep + 1 < reps {
            started.shutdown();
            std::fs::remove_dir_all(&root)?;
        } else {
            server = Some(started);
        }
    }
    let server = server.expect("at least one set-up repetition");

    let mut history = vec![warm_spec(ctx.seed, sizes, reps - 1)];
    let mut work = Work::default();
    let mut totals = ServerStats::default();
    let mut timed = Vec::new();
    let started = Instant::now();
    for cycle in 0.. {
        let rounds = cycle_script(ctx.seed, cycle, sizes, &history);
        let probe = Probe::start();
        let before = server.stats();
        let start = Instant::now();
        let mut cycle_records = Vec::new();
        let mut kinds = Vec::new();
        {
            let _span = ctx.tracer.span("cycle");
            for round in &rounds {
                let _span = ctx.tracer.span("round");
                cycle_records.extend(run_round(&server, round));
                // A round is one fixed pair of distinct specs; each of
                // its four request slots is a kind of operation.
                let pair = format!("{}-{:?}", round[0].spec.target, round[0].spec.analysis);
                kinds.extend((0..round.len()).map(|slot| format!("{pair}#{slot}")));
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        work.absorb(&probe.finish());
        let delta = stats_delta(server.stats(), before);
        totals = ServerStats {
            submitted: totals.submitted + delta.submitted,
            coalesced: totals.coalesced + delta.coalesced,
            rejected: totals.rejected + delta.rejected,
            completed: totals.completed + delta.completed,
            failed: totals.failed + delta.failed,
            slices: totals.slices + delta.slices,
            store_served: totals.store_served + delta.store_served,
            queue_peak: delta.queue_peak,
        };
        outcome.passes.push(Pass {
            seconds,
            jobs: cycle_records.len() as u64,
            work: cycle_records
                .iter()
                .filter(|r| r.line.is_some())
                .map(|r| r.spec.traces)
                .sum(),
        });
        outcome
            .latencies
            .extend(cycle_records.iter().zip(kinds).map(|(r, kind)| Latency {
                kind,
                seconds: (r.finished.unwrap_or_else(Instant::now) - r.submitted).as_secs_f64(),
            }));
        history.extend(distinct_specs(&rounds));
        timed.extend(cycle_records);
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    server.shutdown();

    if ctx.tracer.on() {
        let n = outcome.passes.len() as f64;
        let layers = &mut outcome.layers;
        simulation_layers(layers, &work, n);
        store_write_layers(layers, &work, n);
        let waits: Vec<f64> = timed
            .iter()
            .filter_map(|r| Some((r.first_progress? - r.submitted).as_secs_f64()))
            .collect();
        let services: Vec<f64> = timed
            .iter()
            .filter_map(|r| Some((r.finished? - r.first_progress?).as_secs_f64()))
            .collect();
        layers.set("server.queue_wait_s", median(&waits));
        layers.set("server.service_s", median(&services));
        layers.set("server.coalesced", totals.coalesced as f64 / n);
        layers.set("server.store_served", totals.store_served as f64 / n);
        layers.set(
            "server.dedup_ratio",
            ratio(
                (totals.coalesced + totals.store_served) as f64,
                totals.submitted as f64,
            ),
        );
        layers.set(
            "server.sim_runs_per_job",
            ratio(
                work.counter("power/simulator_runs") as f64,
                totals.submitted as f64,
            ),
        );
        layers.set("server.slices", totals.slices as f64 / n);
        layers.set("server.queue_peak", totals.queue_peak as f64);
    }

    // Every final line must equal the one-shot verdict for its spec.
    records.extend(timed);
    let mut expected: BTreeMap<u64, String> = BTreeMap::new();
    for record in &records {
        let line = expected
            .entry(record.spec.fingerprint())
            .or_insert_with(|| {
                one_shot_line(&record.spec, sizes.threads).unwrap_or_else(|e| format!("error: {e}"))
            });
        outcome.checks.check(
            record.error.is_none() && record.line.as_ref() == Some(line),
            || {
                format!(
                    "{}: final {:?}, error {:?}, one-shot '{line}'",
                    record.spec.canonical(),
                    record.line,
                    record.error
                )
            },
        );
    }
    Ok(outcome)
}
