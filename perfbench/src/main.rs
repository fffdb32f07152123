//! The repository benchmark: three seeded workloads driven through the
//! public serving APIs, every answer checked.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rsa-crt-sparse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it reruns the workload with
//! request spans, then probes every layer on the seed's inputs and
//! prints the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Details and the spans go to
//! `perfbench-results/` under the cargo target directory. The command
//! exits non-zero on any wrong answer.

mod counting;
mod host;
mod inputs;
mod json;
mod layers;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use crate::host::Fingerprint;
use crate::inputs::{
    poisson_schedule, EcdsaInputs, RsaInputs, ECDSA_CALL, ECDSA_POOL, RSA_BITS, RSA_POOL,
};
use crate::json::Json;
use crate::report::{Metric, Report};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::workloads::{Run, Workload, SATURATED_DEPTH, SPARSE_RATE};
use mmm_core::pool;
use mmm_core::EngineConfig;
use mmm_ecc::curves::p256;
use mmm_ecc::CurveSession;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <rsa-crt-sparse|rsa-crt-saturated|ecdsa-p256-verify> \
     --seed <n> --seconds <n> --trace <0|1>";

/// Seconds of the saturated RSA burst a traced ECDSA run takes its
/// serve-layer metrics from.
const SERVE_BURST_SECONDS: f64 = 2.0;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let ignored_env = host::clear_mmm_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(setup::CHILD_FLAG) {
        return setup::child_main(
            args.get(1).map_or("", String::as_str),
            args.get(2).map(String::as_str),
        );
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::collect(
        cli.seed,
        EngineConfig::default().backend().name(),
        ignored_env,
    );
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        cli.workload.name(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    println!("why: {}", cli.workload.why());
    println!("{}", fingerprint.line());
    let outcome = if cli.trace {
        traced(&cli)
    } else {
        end_to_end(&cli)
    };
    let (report, spans) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    print!("{}", report.table());
    for flag in &report.flags {
        println!("FLAG: {flag}");
    }
    for check in &report.failed_checks {
        println!("CHECK FAILED: {check}");
    }
    println!(
        "failed_share: {} ({} of {} attempted; wrong answers: {})",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        report.wrong
    );
    if let Err(e) = write_results(&cli, &fingerprint, &report, spans) {
        eprintln!("perfbench: could not write the result files: {e}");
    }
    println!("{}", report.result_line());
    if !report.correct() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The end-to-end metrics every run reports from its workload run.
fn end_to_end_metrics(report: &mut Report, run: &Run) {
    let lat = run.latencies_ms();
    let p50 = percentile(&lat, 0.50);
    let p99 = percentile(&lat, 0.99);
    let windows = run.windows.len();
    if run.open_loop {
        report.push(
            Metric::new(
                "throughput_ops_s",
                run.throughput_ops_s(),
                "ops/s",
                lat.len(),
            )
            .note("whole run (the offered rate sets it)"),
        );
        report.push(Metric::new(
            "latency_p50_ms",
            run.latency_p50_ms(),
            "ms",
            p50.samples,
        ));
    } else {
        report.push(
            Metric::new("throughput_ops_s", run.throughput_ops_s(), "ops/s", windows).note(
                format!(
                    "fastest of {windows} windows; whole run {:.1}",
                    run.whole_run_rate()
                ),
            ),
        );
        report.push(
            Metric::new("latency_p50_ms", run.latency_p50_ms(), "ms", windows).note(format!(
                "lowest window median; whole run {:.3} over {} requests",
                p50.value, p50.samples
            )),
        );
    }
    let p99_note = if p99.resolved() {
        format!("resolved: {} samples beyond", p99.beyond)
    } else {
        format!("UNRESOLVED: only {} samples beyond", p99.beyond)
    };
    // On the closed ECDSA loop the p99 falls in one of the few slowest
    // calls, too unsteady run to run to gate on.
    report.push(
        Metric::new("latency_p99_ms", p99.value, "ms", p99.samples)
            .note(p99_note)
            .table_only(),
    );
    let how = if run.open_loop {
        "median over 1 s windows"
    } else {
        "lowest window"
    };
    report.push(Metric::new("cpu_ms_per_op", run.cpu_ms_per_op(), "ms", windows).note(how));
    report.windows.clone_from(&run.windows);
    count_requests(report, run);
}

fn count_requests(report: &mut Report, run: &Run) {
    report.attempted += run.attempted;
    report.failed += run.failed();
    report.wrong += run.wrong;
}

fn rsa_notes(inputs: &RsaInputs) -> String {
    format!(
        "inputs: one {RSA_BITS}-bit key, pool of {} distinct ciphertexts ({} generated)",
        inputs.cipher.len(),
        RSA_POOL
    )
}

fn ecdsa_notes(inputs: &EcdsaInputs) -> String {
    format!(
        "inputs: pool of {} distinct signers and signatures, {} per call, {} must verify false",
        inputs.reqs.len(),
        ECDSA_CALL,
        inputs.expect.iter().filter(|&&ok| !ok).count()
    )
}

fn run_rsa(
    workload: Workload,
    server: &mmm_rsa::Server,
    key: mmm_rsa::KeyId,
    inputs: &RsaInputs,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Run {
    match workload {
        Workload::RsaCrtSparse => {
            let schedule = poisson_schedule(seed, SPARSE_RATE, seconds);
            workloads::run_sparse(server, key, inputs, &schedule, traced)
        }
        _ => workloads::run_saturated(server, key, inputs, seconds, traced),
    }
}

type Outcome = Result<(Report, Option<Json>), String>;

/// `--trace 0`: cold set-up probes, the workload with tracing off, and
/// cold set-up probes again.
fn end_to_end(cli: &Cli) -> Outcome {
    let mut report = Report::default();
    let (run, mut setup, tenant, payload) = if cli.workload.is_rsa() {
        let inputs = RsaInputs::generate(cli.seed);
        report.notes.push(rsa_notes(&inputs));
        let payload = setup::rsa_payload(&inputs);
        let setup = setup::measure("rsa", &payload)?;
        let (server, key) = workloads::start_rsa_server(&inputs).map_err(|e| e.to_string())?;
        workloads::warm_rsa(&server, key, &inputs)?;
        let run = run_rsa(
            cli.workload,
            &server,
            key,
            &inputs,
            cli.seed,
            cli.seconds,
            false,
        );
        server.shutdown();
        (run, setup, "rsa", payload)
    } else {
        let session =
            CurveSession::new(p256(), EngineConfig::default()).map_err(|e| e.to_string())?;
        let inputs =
            EcdsaInputs::generate(cli.seed, &session, ECDSA_POOL).map_err(|e| e.to_string())?;
        report.notes.push(ecdsa_notes(&inputs));
        let payload = setup::ecdsa_payload(&inputs);
        let setup = setup::measure("ecdsa", &payload)?;
        session
            .verify_ecdsa(&inputs.reqs[..ECDSA_CALL])
            .map_err(|e| e.to_string())?;
        let run = workloads::run_ecdsa(&session, &inputs, cli.seconds, false);
        (run, setup, "ecdsa", payload)
    };
    setup.extend(setup::measure(tenant, &payload)?);
    if cli.workload == Workload::RsaCrtSparse {
        report.notes.push(format!(
            "schedule: {} Poisson arrivals at {SPARSE_RATE} req/s",
            run.attempted
        ));
    }
    end_to_end_metrics(&mut report, &run);
    report.push(
        Metric::new(
            "setup_s",
            setup.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
            setup.len(),
        )
        .note(format!(
            "fastest cold-process set-up to the first correct answer; median {:.4}",
            median(&setup)
        )),
    );
    report.push(Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB", 1));
    Ok((report, None))
}

/// `--trace 1`: the workload rerun with request spans and stats
/// snapshots, then every layer probe. Every traced run prints every
/// per-layer metric; `ecdsa-p256-verify` has no serving front-end, so
/// its serve-layer metrics come from a short saturated RSA burst.
fn traced(cli: &Cli) -> Outcome {
    let mut report = Report::default();
    let trace = Trace::new();
    let rsa = RsaInputs::generate(cli.seed);
    let session = CurveSession::new(p256(), EngineConfig::default()).map_err(|e| e.to_string())?;
    let ecc_count = if cli.workload.is_rsa() {
        64
    } else {
        ECDSA_POOL
    };
    let ecc = EcdsaInputs::generate(cli.seed, &session, ecc_count).map_err(|e| e.to_string())?;
    report.notes.push(rsa_notes(&rsa));
    report.notes.push(ecdsa_notes(&ecc));

    let (server, key) = workloads::start_rsa_server(&rsa).map_err(|e| e.to_string())?;
    workloads::warm_rsa(&server, key, &rsa)?;
    let (rerun, burst) = if cli.workload.is_rsa() {
        let rerun = run_rsa(
            cli.workload,
            &server,
            key,
            &rsa,
            cli.seed,
            cli.seconds,
            true,
        );
        (rerun, None)
    } else {
        session
            .verify_ecdsa(&ecc.reqs[..ECDSA_CALL])
            .map_err(|e| e.to_string())?;
        let rerun = workloads::run_ecdsa(&session, &ecc, cli.seconds, true);
        let burst = workloads::run_saturated(&server, key, &rsa, SERVE_BURST_SECONDS, true);
        (rerun, Some(burst))
    };
    server.shutdown();
    count_requests(&mut report, &rerun);

    let lag = percentile(&rerun.lags_ms(), 0.99);
    report.push(
        Metric::new("loadgen.lag_p99_ms", lag.value, "ms", lag.samples)
            .note("how late the generator sent requests"),
    );

    let times = layers::rsa(&mut report, &trace, &rsa).map_err(|e| e.to_string())?;
    if let Some(burst) = &burst {
        count_requests(&mut report, burst);
    }
    serve_metrics(
        &mut report,
        burst.as_ref().unwrap_or(&rerun),
        times,
        burst.is_some(),
    );
    let (pool_before, pool_after) = rerun.pool.expect("traced runs snapshot the pool");
    let ecc_overhead =
        layers::ecc(&mut report, &trace, &session, &ecc).map_err(|e| e.to_string())?;
    let params = pool::global();
    let l512 = params.params_for(&rsa.key.p);
    let l256 = params.params_for(&session.spec().p);
    layers::kernels(&mut report, &l512, &l256, cli.seed);
    layers::pool_checkout(&mut report, &trace);
    report.push(
        Metric::new(
            "pool.key_misses",
            (pool_after.key_misses - pool_before.key_misses) as f64,
            "count",
            1,
        )
        .note("inside the traced workload window; nonzero flags a regression"),
    );
    report.push(Metric::new(
        "pool.engine_builds",
        (pool_after.engine_builds - pool_before.engine_builds) as f64,
        "count",
        1,
    ));
    let crt_overhead = layers::crt_overhead(&mut report, &rsa).map_err(|e| e.to_string())?;
    report.push(
        Metric::new(
            "trace.overhead_share",
            crt_overhead.max(ecc_overhead),
            "share",
            2 * layers::AB_PAIRS,
        )
        .note(format!(
            "paired runs with and without the counting engine and spans, instrumented / plain \
             - 1: CRT half {crt_overhead:.4}, verify shard {ecc_overhead:.4}; the larger"
        )),
    );

    let spans = Json::obj([
        (
            "spans",
            Json::Arr(trace.spans().iter().map(trace::Span::to_json).collect()),
        ),
        ("requests", requests_json(&rerun)),
    ]);
    Ok((report, Some(spans)))
}

/// The serve-layer metrics from a traced run's `ServeStats` deltas and
/// timed submits; `burst` says the run is the short RSA burst of an
/// ECDSA traced run rather than the workload's own rerun.
fn serve_metrics(report: &mut Report, run: &Run, times: layers::DecryptTimes, burst: bool) {
    let (a, b) = run.serve.expect("traced RSA runs snapshot ServeStats");
    let flushes = (b.fill_flushes - a.fill_flushes)
        + (b.deadline_flushes - a.deadline_flushes)
        + (b.drain_flushes - a.drain_flushes);
    let answered = (b.completed_ok - a.completed_ok) + (b.completed_err - a.completed_err);
    let occupancy = answered as f64 / (flushes.max(1) * 64) as f64;
    let samples = run.attempted as usize;
    let p50 = percentile(&run.latencies_ms(), 0.5).value;
    // Compare with the decrypt at the shard width the run mostly used.
    let decrypt_ms = if occupancy * 64.0 < 32.0 {
        times.lanes1_ms
    } else {
        times.lanes64_ms
    };
    let source = if burst {
        format!("a {SERVE_BURST_SECONDS} s saturated RSA burst (this workload has no front-end)")
    } else {
        "this workload's traced rerun".to_string()
    };
    let submit = percentile(&run.submit_us(), 0.5);
    report
        .push(Metric::new("serve.submit_us_p50", submit.value, "us", submit.samples).note(source));
    report.push(Metric::new(
        "serve.lane_occupancy",
        occupancy,
        "share",
        flushes as usize,
    ));
    report.push(Metric::new(
        "serve.deadline_flush_share",
        (b.deadline_flushes - a.deadline_flushes) as f64 / flushes.max(1) as f64,
        "share",
        flushes as usize,
    ));
    report.push(
        Metric::new("serve.wait_ms_p50", p50 - decrypt_ms, "ms", samples)
            .note("latency p50 minus the matching server.decrypt_crt_ms"),
    );
    report.push(Metric::new(
        "serve.refused",
        ((b.overloaded - a.overloaded) + (b.submit_timeouts - a.submit_timeouts)) as f64,
        "count",
        samples,
    ));
    report.push(Metric::new(
        "serve.errors",
        (b.completed_err - a.completed_err) as f64,
        "count",
        samples,
    ));
}

fn requests_json(run: &Run) -> Json {
    Json::Arr(
        run.spans
            .iter()
            .map(|r| {
                Json::Arr(vec![
                    Json::Int(r.due),
                    Json::Int(r.sent),
                    Json::Int(r.admitted),
                    Json::Int(r.resolved),
                    Json::str(format!("{:?}", r.verdict)),
                ])
            })
            .collect(),
    )
}

/// Writes the run's full result (and, for traced runs, its spans) under
/// the cargo target directory, inside the checkout.
fn write_results(
    cli: &Cli,
    fingerprint: &Fingerprint,
    report: &Report,
    spans: Option<Json>,
) -> std::io::Result<()> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cli.workload.name(),
        cli.seed,
        u8::from(cli.trace)
    );
    let result = Json::obj([
        ("workload", Json::str(cli.workload.name())),
        ("why", Json::str(cli.workload.why())),
        ("seconds", Json::Num(cli.seconds)),
        ("host", fingerprint.to_json()),
        (
            "notes",
            Json::Arr(report.notes.iter().map(Json::str).collect()),
        ),
        (
            "flags",
            Json::Arr(report.flags.iter().map(Json::str).collect()),
        ),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("wrong", Json::Int(report.wrong)),
        (
            "failed_checks",
            Json::Arr(report.failed_checks.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| (m.name, m.to_json()))),
        ),
        ("saturated_depth", Json::Int(SATURATED_DEPTH as u64)),
        (
            "windows",
            Json::Arr(
                report
                    .windows
                    .iter()
                    .map(|w| {
                        Json::Arr(vec![
                            Json::Num(w.secs),
                            Json::Int(w.correct),
                            Json::Num(w.cpu_s),
                            Json::Num(w.p50_ms),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(dir.join(format!("{stem}.json")), result.render())?;
    if let Some(spans) = spans {
        std::fs::write(dir.join(format!("{stem}-spans.json")), spans.render())?;
    }
    Ok(())
}
