//! ECC point multiplication over GF(p) — the paper's stated future
//! work (§5) — with every field multiplication routed through the
//! cycle-accurate Montgomery engine, so the example also reports the
//! hardware cycle budget of a scalar multiplication. Then the same
//! workload as the batch engines serve it: 64 P-256 ECDSA verify
//! requests (an RFC 6979 test-vector signature, one copy forged)
//! submitted one ticket at a time to the serving plane's `Server`,
//! which batches them into shards of up to 64 lanes.
//!
//! ```sh
//! cargo run --release --example ecc_point_mul
//! ```

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::core::serve::Server;
use montgomery_systolic::core::EngineConfig;
use montgomery_systolic::ecc::curves::p256;
use montgomery_systolic::ecc::serve::{EcdsaRequest, EcdsaVerify};
use montgomery_systolic::ecc::{Curve, FieldCtx};
use montgomery_systolic::systolic::wave::WaveMmmc;

fn main() {
    // A 61-bit prime field (fits the demo; the architecture is
    // width-generic). p = 2^61 - 1 is the Mersenne prime M61.
    let p = Ubig::pow2(61) - Ubig::one();
    let params = MontgomeryParams::hardware_safe(&p);
    println!(
        "field GF(p), p = {p} ({} bits) -> datapath width l = {}",
        p.bit_len(),
        params.l()
    );

    // Field arithmetic on the cycle-accurate wave engine.
    let mut f = FieldCtx::new(WaveMmmc::new(params));

    // y² = x³ + 2x + 3: lift the first x that lands on the curve.
    let curve = Curve::new(&mut f, &Ubig::from(2u64), &Ubig::from(3u64));
    let g = (1u64..)
        .find_map(|x| curve.lift_x(&mut f, &Ubig::from(x)))
        .expect("some small x lifts");
    let (gx, gy) = curve.to_affine(&mut f, &g).unwrap();
    println!("base point G = ({gx}, {gy})");

    let cycles_before = f.consumed_cycles().unwrap();
    let k = Ubig::from(0xDEAD_BEEF_CAFEu64);
    let kg = curve.scalar_mul(&mut f, &k, &g);
    let (x, y) = curve.to_affine(&mut f, &kg).expect("not the identity");
    let cycles = f.consumed_cycles().unwrap() - cycles_before;
    println!("[k]G for k = {k}:");
    println!("  = ({x}, {y})");
    println!("simulated hardware cycles for the scalar multiplication: {cycles}");

    // Sanity: the group law. [k]G + G = [k+1]G.
    let kg1 = curve.add(&mut f, &kg, &g);
    let direct = curve.scalar_mul(&mut f, &(&k + &Ubig::one()), &g);
    assert_eq!(
        curve.to_affine(&mut f, &kg1),
        curve.to_affine(&mut f, &direct),
        "group law"
    );
    assert!(curve.contains(&mut f, &kg), "result stays on the curve");
    println!("group-law check [k]G + G = [k+1]G ✓");

    // The serving shape (DESIGN.md §10, §13): the same curve
    // arithmetic, up to 64 lanes wide on the batch engines, behind the
    // serving plane. Each request is its own ticket; the server files
    // them into a shard and flushes it when it fills, or earlier when
    // a worker finds the queue empty with the shard within the
    // backend's per-lane bound — so a worker that catches up with this
    // thread may split the burst, and the flush deadline (2 ms by
    // default) then bounds the wait of a remainder above the bound.
    let config = EngineConfig::from_env().expect("clean MMM_* env");
    let mut builder = Server::<EcdsaVerify>::builder(config);
    let curve = builder.add_key(p256()).expect("P-256 session");
    let server = builder.build().expect("serving workers");
    let session = server.session(curve).expect("registered");
    let hex = |s: &str| Ubig::from_hex(s).unwrap();
    let req = EcdsaRequest {
        z: hex("AF2BDBE1AA9B6EC1E2ADE1D694F41FC71A831D0268E9891562113D8A62ADD1BF"),
        r: hex("EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716"),
        s: hex("F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8"),
        qx: hex("60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6"),
        qy: hex("7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299"),
    };
    let mut forged = req.clone();
    forged.s = forged.s.modadd(&Ubig::one(), &session.spec().order);
    let mut batch = vec![req; 63];
    batch.push(forged);
    let tickets: Vec<_> = batch
        .into_iter()
        .map(|r| {
            server
                .try_submit(curve, EcdsaVerify, r)
                .expect("well-formed request admitted")
        })
        .collect();
    let verdicts: Vec<bool> = tickets
        .into_iter()
        .map(|t| t.wait().expect("verdict"))
        .collect();
    assert!(
        verdicts[..63].iter().all(|&v| v),
        "genuine signature verifies"
    );
    assert!(!verdicts[63], "forged signature rejected");
    let backend = session.backend().name();
    let stats = server.shutdown();
    assert_eq!(
        (stats.completed_ok, stats.completed_err),
        (64, 0),
        "every ticket answered"
    );
    let flushes = [
        ("fill", stats.fill_flushes),
        ("idle", stats.idle_flushes),
        ("deadline", stats.deadline_flushes),
        ("drain", stats.drain_flushes),
    ];
    assert!(flushes.iter().any(|&(_, n)| n > 0), "something flushed");
    let by_cause: Vec<String> = flushes.iter().map(|(c, n)| format!("{c} {n}")).collect();
    println!(
        "served ECDSA (P-256, {backend} backend): 63 genuine + 1 forged verified as 64 tickets; flushes: {} ✓",
        by_cause.join(", ")
    );
}
