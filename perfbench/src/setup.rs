//! `setup_s`: time from the first call into the system to the first
//! correct answer, in a process whose engine pool is still cold. Each
//! probe is a fresh child process of this binary that reads its inputs
//! from stdin before the clock starts, so key generation and signing
//! stay out of the measurement.

use crate::host;
use crate::inputs::{EcdsaInputs, RsaInputs};
use mmm_bigint::Ubig;
use mmm_core::{EngineConfig, MmmError};
use mmm_ecc::curves::p256;
use mmm_ecc::{CurveSession, EcdsaRequest};
use mmm_rsa::{BatchOp, RsaKeyPair, Server};
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Cold set-ups before the workload runs, and again after it; the run
/// reports the fastest of all of them. Other tenants of a shared host
/// only ever slow a probe down, and for seconds at a time, so the
/// fastest of two groups taken a run apart repeats between runs where
/// the median follows how busy the host was.
pub const PROBES: usize = 11;

/// The argument that turns this binary into a set-up probe.
pub const CHILD_FLAG: &str = "--setup-child";

fn hex_line(values: &[&Ubig]) -> String {
    let words: Vec<String> = values.iter().map(|v| format!("{v:x}")).collect();
    words.join(" ") + "\n"
}

/// The probe input for the RSA tenant: the key and one ciphertext with
/// its plaintext.
pub fn rsa_payload(inputs: &RsaInputs) -> String {
    let k = &inputs.key;
    hex_line(&[
        &k.n,
        &k.e,
        &k.d,
        &k.p,
        &k.q,
        &k.dp,
        &k.dq,
        &k.qinv,
        &inputs.cipher[0],
        &inputs.plain[0],
    ])
}

/// The probe input for the ECDSA tenant: the first request that must
/// verify true.
pub fn ecdsa_payload(inputs: &EcdsaInputs) -> String {
    let i = inputs
        .expect
        .iter()
        .position(|&ok| ok)
        .expect("seven in eight requests verify true");
    let r = &inputs.reqs[i];
    hex_line(&[&r.z, &r.r, &r.s, &r.qx, &r.qy])
}

/// Runs [`PROBES`] cold set-ups of `tenant` (`rsa` or `ecdsa`) and
/// returns each one's seconds. An `ecdsa` set-up runs on one thread,
/// so its probes take the allowed CPUs in turn (see [`host::pin`]). An
/// `rsa` set-up starts one serving worker per allowed CPU and is left
/// unpinned.
pub fn measure(tenant: &str, payload: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let cpus = host::allowed_cpus();
    (0..PROBES)
        .map(|i| {
            let mut args = vec![CHILD_FLAG.to_string(), tenant.to_string()];
            if tenant == "ecdsa" {
                args.push(cpus[i % cpus.len()].to_string());
            }
            let mut child = Command::new(&exe)
                .args(&args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawning a set-up probe: {e}"))?;
            let mut stdin = child.stdin.take().expect("stdin is piped");
            let written = stdin.write_all(payload.as_bytes());
            drop(stdin);
            let out = child
                .wait_with_output()
                .map_err(|e| format!("waiting for a set-up probe: {e}"))?;
            written.map_err(|e| format!("feeding a set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!("set-up probe failed ({}): {text}", out.status));
            }
            text.trim()
                .strip_prefix("setup_s ")
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("unreadable set-up probe output: {text}"))
        })
        .collect()
}

/// The probe process: pin to `cpu` if given, parse the inputs, then
/// time one cold set-up and first answer. Prints `setup_s <seconds>`;
/// exits non-zero on a wrong answer or an error.
pub fn child_main(tenant: &str, cpu: Option<&str>) -> ExitCode {
    if let Some(cpu) = cpu {
        match cpu.parse::<usize>() {
            Ok(cpu) => host::pin(&[cpu]),
            Err(e) => {
                eprintln!("set-up probe: bad CPU {cpu:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut input = String::new();
    let values: Result<Vec<Ubig>, String> = std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| e.to_string())
        .and_then(|_| {
            input
                .split_whitespace()
                .map(|w| Ubig::from_hex(w).map_err(|e| format!("{e:?}")))
                .collect()
        });
    let outcome = match (tenant, values) {
        ("rsa", Ok(v)) if v.len() == 10 => cold_rsa(&v),
        ("ecdsa", Ok(v)) if v.len() == 5 => cold_ecdsa(&v),
        (_, Err(e)) => Err(format!("bad probe input: {e}")),
        _ => Err(format!("bad probe tenant or input for {tenant:?}")),
    };
    match outcome {
        Ok(elapsed) => {
            println!("setup_s {}", elapsed.as_secs_f64());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("set-up probe: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cold_rsa(v: &[Ubig]) -> Result<Duration, String> {
    let key = RsaKeyPair {
        n: v[0].clone(),
        e: v[1].clone(),
        d: v[2].clone(),
        p: v[3].clone(),
        q: v[4].clone(),
        dp: v[5].clone(),
        dq: v[6].clone(),
        qinv: v[7].clone(),
    };
    let (c, m) = (v[8].clone(), v[9].clone());
    let start = Instant::now();
    let run = || -> Result<(Server, Ubig), MmmError> {
        let mut builder = Server::builder(EngineConfig::default());
        let id = builder.add_key(key)?;
        let server = builder.build()?;
        let answer = server.try_submit(id, BatchOp::DecryptCrt, c)?.wait()?;
        Ok((server, answer))
    };
    let (server, answer) = run().map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    server.shutdown();
    if answer != m {
        return Err("wrong first answer".to_string());
    }
    Ok(elapsed)
}

fn cold_ecdsa(v: &[Ubig]) -> Result<Duration, String> {
    let req = EcdsaRequest {
        z: v[0].clone(),
        r: v[1].clone(),
        s: v[2].clone(),
        qx: v[3].clone(),
        qy: v[4].clone(),
    };
    let start = Instant::now();
    let verdicts = CurveSession::new(p256(), EngineConfig::default())
        .and_then(|session| session.verify_ecdsa(&[req]))
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    if verdicts != [true] {
        return Err("wrong first verdict".to_string());
    }
    Ok(elapsed)
}
