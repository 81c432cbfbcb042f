//! Checkpointing, log truncation, and snapshot state transfer.
//!
//! PBFT-style garbage collection (Castro–Liskov §4.3) adapted to the
//! pipelined SMR engine: every [`checkpoint_interval`](crate::SmrSettings::
//! checkpoint_interval) applied slots a node serializes a [`Snapshot`] of
//! its replicated state — the application machine, the per-client reply
//! cache (so at-most-once survives a transfer), the total log length, and
//! the running log digest — and broadcasts a signed [`CheckpointVote`]
//! carrying the snapshot's SHA-256 digest. Once a deterministic quorum
//! (`⌈(n+f+1)/2⌉ ≥ 2f+1` honest-majority) of replicas attests the same
//! digest for the same slot, the checkpoint is *stable*: everything at or
//! below it — command-log entries, buffered slot traffic, older
//! checkpoints and votes — is garbage, and the node truncates it.
//!
//! Stability doubles as the catch-up signal. A replica that observes a
//! quorum for a slot beyond its own pipeline window cannot recover by
//! consensus any more (peers prune decided slot state on apply), so it
//! asks the attesters for the snapshot with a [`StateRequest`]; any
//! replica holding a stable checkpoint above the requester's frontier
//! answers with a [`StateReply`], the laggard verifies the payload
//! against the attested digest, restores, and resumes consensus from the
//! checkpoint slot. The same request also returns the peer's retained
//! signed messages for the slots above its checkpoint, which let the
//! laggard decide those slots itself. Votes are Schnorr-signed with the replica keys — a single rogue
//! connection cannot forge a quorum — while the snapshot payload itself
//! needs no signature: its digest is what the quorum attested.

use crate::machine::StateMachine;
use probft_core::wire::{put, Reader, Wire, WireError};
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::{Signature, SigningKey, SIGNATURE_LEN};
use probft_crypto::sha256::{Digest, Sha256, DIGEST_LEN};
use probft_quorum::ReplicaId;
use std::collections::BTreeMap;
use std::fmt;

/// Everything a replica needs to resume service from a checkpoint slot
/// without replaying the log below it: the application state (via
/// [`StateMachine::snapshot`]), the reply cache behind at-most-once
/// execution, and the log bookkeeping (total length and running digest)
/// that lets the restored node keep extending the same logical log.
///
/// Only *agreed* state belongs here: every field is a deterministic
/// function of the decided log prefix, so all correct replicas produce
/// byte-identical snapshots (and thus matching digests) at the same
/// slot. Replica-local observations — e.g. the view a slot happened to
/// decide in, which can differ across replicas around a view change —
/// must stay out, or honest attestations would split.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot<S: StateMachine> {
    /// The checkpoint slot: every slot strictly below it is applied.
    pub slot: u64,
    /// Total entries the log held up to this checkpoint (truncated ones
    /// included) — becomes the restored node's log offset.
    pub log_len: u64,
    /// Running SHA-256 chain over every entry ever applied, so replicas
    /// can compare full logical logs after truncating different prefixes.
    pub log_digest: Digest,
    /// The application state machine at the checkpoint.
    pub state: S,
    /// Per client: highest applied request sequence number and its
    /// response — folding the reply cache into the snapshot keeps retried
    /// requests at-most-once across a state transfer.
    pub replies: BTreeMap<u64, (u64, S::Response)>,
}

impl<S: StateMachine> Snapshot<S> {
    /// The SHA-256 digest of the encoded snapshot — what checkpoint votes
    /// attest and state-transfer payloads are verified against.
    pub fn digest(bytes: &[u8]) -> Digest {
        Sha256::digest_parts(&[b"probft-snapshot|", bytes])
    }
}

/// Cap on the reply-cache entry count a snapshot may advertise, derived
/// from the transport bound: every entry costs at least 17 encoded bytes
/// (client u64 + seq u64 + ≥1 response byte), so a frame that fits under
/// the 16 MiB `MAX_FRAME`/`MAX_LEN` transport cap can never carry more
/// than `MAX_LEN / 17` real entries. A count above this is an attack (or
/// corruption), rejected before the decode loop runs.
pub const MAX_SNAPSHOT_REPLIES: u32 = (probft_core::wire::MAX_LEN / 17) as u32;

impl<S: StateMachine> Wire for Snapshot<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.slot);
        put::u64(out, self.log_len);
        out.extend_from_slice(self.log_digest.as_bytes());
        put::var_bytes(out, &self.state.snapshot());
        put::u32(out, self.replies.len() as u32);
        for (client, (seq, response)) in &self.replies {
            put::u64(out, *client);
            put::u64(out, *seq);
            response.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let slot = r.u64()?;
        let log_len = r.u64()?;
        let log_digest = Digest(r.array::<DIGEST_LEN>()?);
        let mut state = S::default();
        state.restore(r.var_bytes()?)?;
        let count = r.u32()?;
        // Reject attacker-sized counts before looping: a forged header
        // must not buy 4 billion decode iterations (nor let a future
        // preallocation here turn into an OOM).
        if count > MAX_SNAPSHOT_REPLIES {
            return Err(WireError::LengthOverflow(u64::from(count)));
        }
        let mut replies = BTreeMap::new();
        for _ in 0..count {
            let client = r.u64()?;
            let seq = r.u64()?;
            let response = S::Response::decode(r)?;
            replies.insert(client, (seq, response));
        }
        Ok(Snapshot {
            slot,
            log_len,
            log_digest,
            state,
            replies,
        })
    }
}

/// A replica's signed attestation that its state at `slot` digests to
/// `digest`. A deterministic quorum of matching votes makes the
/// checkpoint *stable* — the truncation and state-transfer trigger.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointVote {
    /// The attesting replica.
    pub from: ReplicaId,
    /// The checkpoint slot (a multiple of the cluster's interval).
    pub slot: u64,
    /// The snapshot digest being attested.
    pub digest: Digest,
    /// Schnorr signature over `(from, slot, digest)` with the replica's
    /// key — checkpoint certificates must not be forgeable by whoever
    /// happens to hold a TCP connection.
    pub signature: Signature,
}

impl CheckpointVote {
    fn signing_bytes(from: ReplicaId, slot: u64, digest: &Digest) -> Vec<u8> {
        let mut out = b"probft-checkpoint|".to_vec();
        put::u32(&mut out, from.0);
        put::u64(&mut out, slot);
        out.extend_from_slice(digest.as_bytes());
        out
    }

    /// Creates and signs a vote.
    pub fn sign(sk: &SigningKey, from: ReplicaId, slot: u64, digest: Digest) -> Self {
        let signature = sk.sign(&Self::signing_bytes(from, slot, &digest));
        CheckpointVote {
            from,
            slot,
            digest,
            signature,
        }
    }

    /// Whether the signature matches the claimed sender's public key.
    pub fn verify(&self, keys: &PublicKeyring) -> bool {
        keys.verifying_key(self.from.index()).is_ok_and(|pk| {
            pk.verify(
                &Self::signing_bytes(self.from, self.slot, &self.digest),
                &self.signature,
            )
            .is_ok()
        })
    }
}

impl Wire for CheckpointVote {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u32(out, self.from.0);
        put::u64(out, self.slot);
        out.extend_from_slice(self.digest.as_bytes());
        out.extend_from_slice(&self.signature.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let from = ReplicaId(r.u32()?);
        let slot = r.u64()?;
        let digest = Digest(r.array::<DIGEST_LEN>()?);
        let signature = Signature::from_bytes(r.array::<SIGNATURE_LEN>()?)
            .ok_or(WireError::BadCrypto("signature"))?;
        Ok(CheckpointVote {
            from,
            slot,
            digest,
            signature,
        })
    }
}

impl fmt::Display for CheckpointVote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.digest.to_hex();
        write!(
            f,
            "checkpoint-vote r{} slot {} {}",
            self.from.0,
            self.slot,
            hex.get(..8).unwrap_or(&hex)
        )
    }
}

/// A laggard's request for what it missed from `min_slot` on: the
/// sender's stable checkpoint if it lies above `min_slot`, and the
/// sender's retained signed consensus messages for the slots from
/// `min_slot`. Unsigned: replies are only sent from state already held
/// (no work is done on behalf of the requester), each replica sends a
/// given peer at most one snapshot per stable checkpoint and a slot's
/// retained messages at most once — so the worst a forger reflecting
/// requests at a victim gains is one snapshot-sized frame per checkpoint
/// and one window of retained messages per replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateRequest {
    /// The requester's apply frontier: it has applied every slot below.
    pub min_slot: u64,
}

impl Wire for StateRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.min_slot);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StateRequest { min_slot: r.u64()? })
    }
}

/// Most votes a transferred checkpoint certificate may carry on the wire
/// (anti-allocation bound; real certificates hold at most `n` votes).
pub const MAX_CERTIFICATE: u32 = 4096;

/// A stable-checkpoint snapshot in flight to a laggard. Carries the raw
/// encoded [`Snapshot`] together with its *certificate* — the quorum of
/// signed [`CheckpointVote`]s that stabilised it — so the reply proves
/// itself: the receiver verifies every signature, checks the quorum
/// count, and compares the attested digest against the payload's own.
/// No local vote state is needed, which is what makes unsolicited
/// catch-up pushes (a peer noticing traffic from a replica below its
/// stable checkpoint) safe to accept.
#[derive(Clone, Debug, PartialEq)]
pub struct StateReply {
    /// The checkpoint slot the payload captures.
    pub slot: u64,
    /// The encoded [`Snapshot`].
    pub snapshot: Vec<u8>,
    /// The quorum of signed votes attesting the snapshot's digest.
    pub certificate: Vec<CheckpointVote>,
}

impl Wire for StateReply {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.slot);
        put::var_bytes(out, &self.snapshot);
        put::u32(out, self.certificate.len() as u32);
        for vote in &self.certificate {
            vote.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let slot = r.u64()?;
        let snapshot = r.var_bytes()?.to_vec();
        let count = r.u32()?;
        if count > MAX_CERTIFICATE {
            return Err(WireError::LengthOverflow(u64::from(count)));
        }
        let mut certificate = Vec::with_capacity(count as usize);
        for _ in 0..count {
            certificate.push(CheckpointVote::decode(r)?);
        }
        Ok(StateReply {
            slot,
            snapshot,
            certificate,
        })
    }
}

/// A checkpoint this node both produced (or received) and saw attested by
/// a quorum — the node's truncation floor and what it serves to laggards.
#[derive(Clone, Debug)]
pub struct StableCheckpoint {
    /// The checkpoint slot.
    pub slot: u64,
    /// The attested snapshot digest.
    pub digest: Digest,
    /// Total log entries captured below the checkpoint.
    pub log_len: u64,
    /// The encoded snapshot, kept for serving [`StateRequest`]s.
    pub snapshot: Vec<u8>,
    /// The quorum of signed votes that stabilised it, kept so served and
    /// pushed snapshots prove themselves to any receiver.
    pub certificate: Vec<CheckpointVote>,
}

/// Checkpoint / truncation / transfer counters for one node, surfaced
/// through `SmrOutcome` and `ReplicaReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints this node produced locally.
    pub taken: u64,
    /// The highest slot whose checkpoint this node saw become stable
    /// (0 = none yet).
    pub stable_slot: u64,
    /// Log entries truncated below stable checkpoints.
    pub truncated_entries: u64,
    /// Snapshots served to laggards in answer to [`StateRequest`]s.
    pub snapshots_served: u64,
    /// Times this node caught up by restoring a transferred snapshot
    /// instead of replaying the log.
    pub state_transfers: u64,
    /// Total encoded-snapshot bytes restored via state transfer (the
    /// payload cost of catching up, mirrored into the `probft-obs`
    /// registry as `state_transfer_bytes`).
    pub transfer_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Command, KvResponse, KvStore};
    use probft_crypto::keyring::Keyring;

    fn sample_snapshot() -> Snapshot<KvStore> {
        let mut state = KvStore::new();
        state.apply(&Command::Put {
            key: "a".into(),
            value: "1".into(),
        });
        let mut replies = BTreeMap::new();
        replies.insert(7, (3, KvResponse::Prev(None)));
        replies.insert(9, (1, KvResponse::Value(Some("1".into()))));
        Snapshot {
            slot: 32,
            log_len: 40,
            log_digest: Sha256::digest(b"log"),
            state,
            replies,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.to_wire_bytes();
        let decoded = Snapshot::<KvStore>::from_wire_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(Snapshot::<KvStore>::digest(&bytes), {
            let again = decoded.to_wire_bytes();
            Snapshot::<KvStore>::digest(&again)
        });
    }

    #[test]
    fn snapshot_rejects_truncation() {
        let bytes = sample_snapshot().to_wire_bytes();
        for len in [0, 8, bytes.len() - 1] {
            assert!(
                Snapshot::<KvStore>::from_wire_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn snapshot_rejects_forged_reply_count_without_looping() {
        // A frame whose header advertises u32::MAX reply-cache entries is
        // an attack: the decoder must reject the count up front (typed
        // LengthOverflow), not start a 4-billion-iteration decode loop
        // that only dies on reader exhaustion.
        let mut snapshot = sample_snapshot();
        snapshot.replies.clear();
        let mut bytes = snapshot.to_wire_bytes();
        // With the reply map cleared, the count u32 is the final field of
        // the encoding: strip the honest zero and splice in a forged one.
        let len = bytes.len();
        bytes.truncate(len - 4);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            Snapshot::<KvStore>::from_wire_bytes(&bytes),
            Err(WireError::LengthOverflow(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn vote_signature_binds_sender_slot_and_digest() {
        let keyring = Keyring::generate(4, b"checkpoint-tests");
        let keys = keyring.public();
        let digest = Sha256::digest(b"snapshot");
        let vote = CheckpointVote::sign(keyring.signing_key(1).unwrap(), ReplicaId(1), 32, digest);
        assert!(vote.verify(&keys));

        // Any tampering invalidates the signature.
        let mut wrong_slot = vote.clone();
        wrong_slot.slot = 64;
        assert!(!wrong_slot.verify(&keys));
        let mut wrong_sender = vote.clone();
        wrong_sender.from = ReplicaId(2);
        assert!(!wrong_sender.verify(&keys));
        let mut wrong_digest = vote.clone();
        wrong_digest.digest = Sha256::digest(b"other");
        assert!(!wrong_digest.verify(&keys));
        // Out-of-range sender: no key to verify against.
        let mut out_of_range = vote.clone();
        out_of_range.from = ReplicaId(9);
        assert!(!out_of_range.verify(&keys));

        // And the vote survives the wire.
        let bytes = vote.to_wire_bytes();
        let decoded = CheckpointVote::from_wire_bytes(&bytes).unwrap();
        assert_eq!(decoded, vote);
        assert!(decoded.verify(&keys));
    }

    #[test]
    fn transfer_frames_round_trip() {
        let req = StateRequest { min_slot: 96 };
        assert_eq!(
            StateRequest::from_wire_bytes(&req.to_wire_bytes()).unwrap(),
            req
        );
        let keyring = Keyring::generate(4, b"checkpoint-tests");
        let snapshot = sample_snapshot().to_wire_bytes();
        let digest = Snapshot::<KvStore>::digest(&snapshot);
        let certificate: Vec<CheckpointVote> = (0..3)
            .map(|i| {
                CheckpointVote::sign(
                    keyring.signing_key(i).unwrap(),
                    ReplicaId::from(i),
                    96,
                    digest,
                )
            })
            .collect();
        let rep = StateReply {
            slot: 96,
            snapshot,
            certificate,
        };
        assert_eq!(
            StateReply::from_wire_bytes(&rep.to_wire_bytes()).unwrap(),
            rep
        );
        // An absurd certificate count must fail before allocating.
        let mut huge = Vec::new();
        put::u64(&mut huge, 96);
        put::var_bytes(&mut huge, b"snap");
        put::u32(&mut huge, u32::MAX);
        assert!(StateReply::from_wire_bytes(&huge).is_err());
    }
}
