//! Workspace-level smoke test: every sub-crate re-exported by the
//! umbrella `probft` crate is reachable through `probft::*` and exposes
//! its headline entry point. Guards the re-export list in `src/lib.rs`
//! against silent drift as crates are added or renamed.

use probft::quorum::ReplicaId;

#[test]
fn every_reexported_crate_is_reachable() {
    // probft::analysis — numerical models.
    let p = probft::analysis::termination::TerminationParams::from_paper(100, 20, 2.0, 1.7);
    let prob = probft::analysis::termination::termination_exact(p);
    assert!(prob > 0.9 && prob <= 1.0);

    // probft::quorum — quorum sizes.
    assert_eq!(probft::quorum::sizes::deterministic_quorum(100, 33), 67);
    assert_eq!(probft::quorum::sizes::probabilistic_quorum(100, 2.0), 20);

    // probft::crypto — keyring, signatures, VRF.
    let ring = probft::crypto::keyring::Keyring::generate(4, b"reexport-smoke");
    let sk = ring.signing_key(0).unwrap();
    let sig = sk.sign(b"hello");
    assert!(sk.verifying_key().verify(b"hello", &sig).is_ok());

    // probft::simnet — simulator time arithmetic.
    let t = probft::simnet::SimTime::ZERO + probft::simnet::SimDuration::from_ticks(5);
    assert_eq!(t.ticks(), 5);

    // probft::core — the ProBFT protocol harness.
    let outcome = probft::core::harness::InstanceBuilder::new(7).seed(1).run();
    assert!(outcome.all_correct_decided() && outcome.agreement());

    // probft::pbft — the PBFT baseline harness.
    let outcome = probft::core::InstanceBuilder::<probft::pbft::PbftReplica>::for_protocol(7)
        .seed(1)
        .run();
    assert!(outcome.all_correct_decided() && outcome.agreement());

    // probft::hotstuff — the HotStuff baseline harness.
    let outcome = probft::core::InstanceBuilder::<probft::hotstuff::HsReplica>::for_protocol(7)
        .seed(1)
        .run();
    assert!(outcome.all_correct_decided() && outcome.agreement());

    // probft::smr — replicated state machine over ProBFT.
    let outcome = probft::smr::SmrBuilder::new(4, 1)
        .workload(
            ReplicaId(0),
            vec![probft::smr::Command::Put {
                key: "k".into(),
                value: "v".into(),
            }],
        )
        .run();
    assert!(outcome.logs_consistent() && outcome.states_consistent());

    // probft::runtime — TCP framing layer (pure function, no sockets).
    let mut buf = Vec::new();
    probft::runtime::write_frame(&mut buf, b"ping").unwrap();
    let mut cursor = std::io::Cursor::new(buf);
    assert_eq!(
        probft::runtime::read_frame(&mut cursor).unwrap().as_deref(),
        Some(b"ping".as_slice())
    );
}
