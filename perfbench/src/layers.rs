//! Timed calls into single layers, on inputs shaped like the workloads':
//! the crypto primitives at the sample sizes the workloads run, the wire
//! codec on messages captured from a run, and one telemetry record.

use crate::report::Report;
use crate::stats::median;
use probft_core::message::Message;
use probft_core::wire::Wire;
use probft_crypto::keyring::Keyring;
use probft_crypto::{vrf_prove, vrf_verify, Sha256};
use probft_obs::Histogram;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-call time of `f` in µs: the median over five rounds, each
/// calling `f` until `round` has passed.
fn per_call_us(round: Duration, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < round {
                f();
                calls += 1;
            }
            start.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Cost of one telemetry histogram record (ns).
pub fn hist_record_ns() -> f64 {
    let hist = Histogram::new();
    let mut v = 1u64;
    per_call_us(Duration::from_millis(10), || {
        for _ in 0..1000 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(black_box(v >> 44));
        }
    }) // µs per 1000 records = ns per record
}

/// The crypto per-layer metrics.
pub fn crypto(report: &mut Report) {
    let round = Duration::from_millis(20);
    let ring = Keyring::generate(100, b"perfbench-crypto");
    let sk = ring.signing_key(3).expect("100 keys");
    let pk = ring.verifying_key(3).expect("100 keys");
    let seed = b"view 1 / prepare / a 32-byte-ish vrf seed";
    for (n, s, name) in [
        (100, 34, "crypto.vrf_verify_us.n100_s34"),
        (4, 4, "crypto.vrf_verify_us.n4_s4"),
    ] {
        let (sample, proof) = vrf_prove(sk, seed, s, n);
        let us = per_call_us(round, || {
            assert!(black_box(vrf_verify(pk, seed, s, n, &sample, &proof)));
        });
        report.set(name, us, 5, format!("vrf_verify, sample {s} of {n}"));
    }
    let us = per_call_us(round, || {
        black_box(vrf_prove(sk, black_box(seed), 34, 100));
    });
    report.set("crypto.vrf_prove_us", us, 5, "vrf_prove, sample 34 of 100");
    let msg = [7u8; 96];
    let us = per_call_us(round, || {
        black_box(sk.sign(black_box(&msg)));
    });
    report.set(
        "crypto.schnorr_sign_us",
        us,
        5,
        "Schnorr sign, 96-byte message",
    );
    let sig = sk.sign(&msg);
    let us = per_call_us(round, || {
        assert!(black_box(pk.verify(&msg, &sig)).is_ok());
    });
    report.set(
        "crypto.schnorr_verify_us",
        us,
        5,
        "Schnorr verify, 96-byte message",
    );
    let block = vec![0xA5u8; 1 << 20];
    let us = per_call_us(round, || {
        black_box(Sha256::digest(black_box(&block)));
    });
    report.set(
        "crypto.sha256_mib_s",
        1e6 / us,
        5,
        "SHA-256 over 1 MiB buffers",
    );
}

/// Decode time (µs) of each captured encoded message, by kind.
pub fn wire_decode_us(encoded: &[Vec<u8>]) -> f64 {
    if encoded.is_empty() {
        return 0.0;
    }
    let us = per_call_us(Duration::from_millis(10), || {
        for bytes in encoded {
            black_box(
                Message::from_wire_bytes(black_box(bytes)).expect("captured message decodes"),
            );
        }
    });
    us / encoded.len() as f64
}
