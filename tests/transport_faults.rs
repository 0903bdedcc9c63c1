//! Fault-injection battery for the `tucker-net` transport (ISSUE 10
//! satellite): nothing a peer — or an attacker holding a raw loopback
//! socket — can put on the wire may panic a rank, wedge it past its
//! deadline, or silently corrupt a region. Truncated frames, zero and
//! oversized length prefixes, unknown opcodes, garbage bodies, region
//! mix-ups, injected aborts, silent peers, mid-collective disconnects and
//! a worker *process* dying mid-region must all surface as **typed**
//! errors ([`NetError`] / [`TransportError`]), within their deadlines.
//!
//! Three layers, mirroring `tests/service.rs`:
//! 1. cursor-level proptest over the frame decoder (no sockets);
//! 2. real-socket injection through [`TcpTransport::over_streams`], with an
//!    attacker-held [`TcpStream`] as the "peer";
//! 3. the full multi-process launcher, with a worker killed mid-region.

use proptest::prelude::*;
use std::io::{Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use tucker_distmem::collectives::all_reduce;
use tucker_distmem::subcomm::SubCommunicator;
use tucker_distmem::transport::TransportError;
use tucker_distmem::{CommStats, Communicator, ProcGrid, Wire};
use tucker_net::frame::{
    decode_msg, encode_frame, encode_msg_frame, read_frame, MAX_FRAME, OP_ABORT, OP_MSG,
};
use tucker_net::{
    local_mesh, test_exec_args, try_spmd_transport, NetError, SpmdHandle, TcpTransport, Transport,
    TransportKind,
};

/// A victim transport whose single peer (rank 1) is an attacker-held raw
/// socket: whatever bytes the test writes there are what `recv(1)` reads.
fn rigged_pair(timeout: Duration) -> (TcpTransport, TcpStream) {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let attacker = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
    let (victim_side, _) = l.accept().expect("accept");
    let victim = TcpTransport::over_streams(
        0,
        2,
        vec![None, Some(victim_side)],
        CommStats::new_shared(),
        timeout,
    )
    .expect("transport over rigged stream");
    (victim, attacker)
}

// ---------------------------------------------------------------------------
// 1. Cursor-level: the frame decoder under arbitrary bytes.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any declared length — zero, plausible, or absurd — with any tail is
    /// either a decoded frame or a typed error; the reader never panics and
    /// oversized declarations are rejected *before* allocation.
    #[test]
    fn arbitrary_prefixes_and_tails_never_panic_the_reader(
        sel in 0usize..3,
        len_small in 1u32..=2048,
        len_big in (MAX_FRAME + 1)..=u32::MAX,
        tail in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let len = match sel {
            0 => 0u32,
            1 => len_small,
            _ => len_big,
        };
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        match read_frame(&mut Cursor::new(&bytes), None) {
            Ok((_op, body)) => {
                // Only possible when the tail really contained the payload.
                prop_assert!(len >= 1 && tail.len() + 1 > body.len());
            }
            Err(e) => { let _ = e.to_string(); }
        }
    }

    /// A well-formed `MSG` frame cut at any byte is `Closed` (nothing read)
    /// or `Truncated` (mid-frame) — never a panic, never a misparse.
    #[test]
    fn truncation_at_every_point_is_typed(
        word_bits in prop::collection::vec(0u64..u64::MAX, 0..32),
        cut_frac in 0.0f64..1.0,
    ) {
        // Raw bit patterns cover NaNs, infinities and subnormals too.
        let words: Vec<f64> = word_bits.into_iter().map(f64::from_bits).collect();
        let mut body = Vec::new();
        (0u64, words).encode(&mut body);
        let frame = encode_frame(OP_MSG, &body).unwrap();
        let cut = ((frame.len() - 1) as f64 * cut_frac) as usize;
        match read_frame(&mut Cursor::new(&frame[..cut]), None) {
            Err(NetError::Closed { .. }) => prop_assert!(cut == 0),
            Err(NetError::Truncated { .. }) => prop_assert!(cut >= 1),
            other => prop_assert!(false, "cut at {cut} must be typed, got {other:?}"),
        }
    }

    /// The single-pass `MSG` codec puts exactly the bytes of the generic
    /// `Wire` encoding on the wire, and decodes them back bit for bit.
    #[test]
    fn msg_codec_matches_the_generic_wire_encoding(
        region in 0u64..u64::MAX,
        word_bits in prop::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let words: Vec<f64> = word_bits.iter().copied().map(f64::from_bits).collect();
        let frame = encode_msg_frame(region, &words).unwrap();
        let generic = encode_frame(OP_MSG, &(region, words.clone()).to_wire_bytes()).unwrap();
        prop_assert_eq!(&frame, &generic);
        let (op, body) = read_frame(&mut Cursor::new(&frame), None).unwrap();
        prop_assert_eq!(op, OP_MSG);
        let (r, back) = decode_msg(&body).unwrap();
        prop_assert_eq!(r, region);
        let back_bits: Vec<u64> = back.iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(back_bits, word_bits);
    }

    /// A `MSG` body whose declared word count disagrees with its length —
    /// by any amount, up to `u64::MAX` — is `Malformed`, and the decoder
    /// never sizes an allocation from the declared count.
    #[test]
    fn msg_count_disagreeing_with_the_body_is_malformed(
        words in 0usize..16,
        sel in 0usize..5,
        extra in 0usize..8,
    ) {
        let mut body = Vec::new();
        0u64.encode(&mut body);
        let real = words as u64;
        let declared = [0u64, 1, 7, 1 << 40, u64::MAX][sel];
        let declared = if declared == real && extra == 0 { real + 1 } else { declared };
        declared.encode(&mut body);
        body.extend(std::iter::repeat(0x5a).take(words * 8 + extra));
        match decode_msg(&body) {
            Err(NetError::Malformed { detail }) => prop_assert!(detail.contains("words")),
            other => prop_assert!(false, "count {declared} over {} bytes: {other:?}", words * 8 + extra),
        }
    }

    /// Every length past the cap is refused with the declared value echoed.
    #[test]
    fn oversized_declared_lengths_are_rejected_before_allocation(
        len in (MAX_FRAME + 1)..=u32::MAX,
    ) {
        let bytes = len.to_le_bytes();
        match read_frame(&mut Cursor::new(&bytes), None) {
            Err(NetError::FrameTooLarge { len: got, .. }) => {
                prop_assert_eq!(got, len as u64);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }
}

#[test]
fn msg_bodies_shorter_than_the_header_are_malformed() {
    for len in 0..16 {
        match decode_msg(&vec![0u8; len]) {
            Err(NetError::Malformed { detail }) => {
                assert!(detail.contains("header"), "unhelpful detail: {detail}")
            }
            other => panic!("a {len}-byte MSG body must be Malformed, got {other:?}"),
        }
    }
    // The same body on a live socket is a typed protocol error.
    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    attacker
        .write_all(&encode_frame(OP_MSG, &[0u8; 9]).unwrap())
        .unwrap();
    assert!(
        matches!(victim.recv(1), Err(TransportError::Protocol { .. })),
        "a short MSG body must be Protocol"
    );
}

// ---------------------------------------------------------------------------
// 2. Real sockets: garbage spoken at a live transport.
// ---------------------------------------------------------------------------

#[test]
fn unknown_opcode_is_a_typed_protocol_error() {
    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    let frame = encode_frame(0x7f, &[1, 2, 3]).unwrap();
    attacker.write_all(&frame).unwrap();
    match victim.recv(1) {
        Err(TransportError::Protocol { detail }) => {
            assert!(detail.contains("opcode"), "unhelpful detail: {detail}")
        }
        other => panic!("unknown opcode must be Protocol, got {other:?}"),
    }
}

#[test]
fn oversized_and_zero_length_prefixes_are_typed_on_a_socket() {
    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    attacker.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    assert!(
        matches!(victim.recv(1), Err(TransportError::Protocol { .. })),
        "oversized prefix must be Protocol"
    );

    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    attacker.write_all(&0u32.to_le_bytes()).unwrap();
    assert!(
        matches!(victim.recv(1), Err(TransportError::Protocol { .. })),
        "zero-length prefix must be Protocol"
    );
}

#[test]
fn mid_frame_disconnect_is_peer_gone() {
    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    // Declare 64 payload bytes, deliver 5, hang up.
    attacker.write_all(&64u32.to_le_bytes()).unwrap();
    attacker.write_all(&[OP_MSG, 1, 2, 3, 4]).unwrap();
    drop(attacker);
    match victim.recv(1) {
        Err(TransportError::PeerGone { peer }) => assert_eq!(peer, 1),
        other => panic!("mid-frame disconnect must be PeerGone, got {other:?}"),
    }
}

#[test]
fn injected_abort_surfaces_with_its_rank_attribution() {
    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    let mut body = Vec::new();
    (0u64, 1u64, "synthetic abort".to_string()).encode(&mut body);
    attacker
        .write_all(&encode_frame(OP_ABORT, &body).unwrap())
        .unwrap();
    match victim.recv(1) {
        Err(TransportError::Aborted { rank, detail }) => {
            assert_eq!(rank, 1);
            assert!(detail.contains("synthetic abort"));
        }
        other => panic!("injected ABORT must be Aborted, got {other:?}"),
    }
}

#[test]
fn message_stamped_with_a_foreign_region_is_typed() {
    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    let mut body = Vec::new();
    (7u64, vec![1.0f64, 2.0]).encode(&mut body);
    attacker
        .write_all(&encode_frame(OP_MSG, &body).unwrap())
        .unwrap();
    match victim.recv(1) {
        Err(TransportError::Protocol { detail }) => {
            assert!(detail.contains("region"), "unhelpful detail: {detail}")
        }
        other => panic!("foreign region must be Protocol, got {other:?}"),
    }
}

#[test]
fn garbage_msg_body_fails_decode_not_panic() {
    let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
    // Region 0, then a word count claiming far more data than follows.
    let mut body = Vec::new();
    0u64.encode(&mut body);
    1_000u64.encode(&mut body);
    body.extend_from_slice(&[0xAB; 8]);
    attacker
        .write_all(&encode_frame(OP_MSG, &body).unwrap())
        .unwrap();
    assert!(
        matches!(victim.recv(1), Err(TransportError::Protocol { .. })),
        "lying word count must be Protocol"
    );
}

#[test]
fn silent_peer_times_out_within_its_deadline() {
    let (victim, _attacker) = rigged_pair(Duration::from_millis(300));
    let t0 = Instant::now();
    match victim.recv(1) {
        Err(TransportError::Timeout { peer, .. }) => assert_eq!(peer, 1),
        other => panic!("silent peer must be Timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout fired after {:?} — the deadline is not being honored",
        t0.elapsed()
    );
}

#[test]
fn mid_collective_disconnect_unblocks_every_survivor() {
    // Rank 2 of a 3-rank mesh vanishes while 0 and 1 are inside a barrier:
    // both survivors must come back with typed errors, not hang.
    let mut world = local_mesh(3, Duration::from_millis(500)).expect("mesh");
    let t2 = world.pop().unwrap();
    let t1 = world.pop().unwrap();
    let t0 = world.pop().unwrap();
    drop(t2); // all of rank 2's sockets close
    let started = Instant::now();
    let (r0, r1) = std::thread::scope(|s| {
        let h0 = s.spawn(move || t0.barrier());
        let h1 = s.spawn(move || t1.barrier());
        (h0.join().unwrap(), h1.join().unwrap())
    });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "barrier survivors wedged for {:?}",
        started.elapsed()
    );
    assert!(r0.is_err(), "rank 0 must see its peer vanish, got {r0:?}");
    assert!(
        r1.is_err(),
        "rank 1 must see the collective fail, got {r1:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary byte salvos fired at a live transport, then a hang-up:
    /// `recv` terminates promptly with a decoded message or a typed error.
    #[test]
    fn random_socket_salvos_terminate_with_typed_results(
        salvo in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let (victim, mut attacker) = rigged_pair(Duration::from_millis(400));
        attacker.write_all(&salvo).unwrap();
        drop(attacker);
        let t0 = Instant::now();
        if let Err(e) = victim.recv(1) {
            let _ = e.to_string(); // typed and printable, never a panic
        }
        prop_assert!(
            t0.elapsed() < Duration::from_secs(5),
            "recv wedged for {:?} on a {}-byte salvo", t0.elapsed(), salvo.len()
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Full launcher: a worker process dying mid-region.
// ---------------------------------------------------------------------------

#[test]
fn worker_process_death_mid_region_is_typed_and_poisons_the_session() {
    // A short wire deadline so even the worst path (a survivor blocked on a
    // read from the dead rank) resolves quickly.
    std::env::set_var("TUCKER_NET_TIMEOUT_MS", "8000");
    let exec = test_exec_args("worker_process_death_mid_region_is_typed_and_poisons_the_session");
    let grid = [2usize, 1, 1];
    let f = |comm: Communicator| -> Vec<f64> {
        if comm.rank() == 1 {
            // Not a panic — the process just dies, the harshest disconnect
            // the transport can see (no ABORT, no PANIC frame, only EOF).
            std::process::exit(7);
        }
        let g = SubCommunicator::world_group(&comm);
        all_reduce(&g, &[1.0, 2.0])
    };
    let started = Instant::now();
    let r: Result<SpmdHandle<Vec<f64>>, NetError> = try_spmd_transport(
        TransportKind::Tcp,
        "fault_exit",
        ProcGrid::new(&grid),
        &exec,
        f,
    );
    match r {
        Err(NetError::RankPanicked { .. }) => {}
        other => panic!("a dead worker must fail the region as RankPanicked, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "region failure took {:?} — deadlines are not being honored",
        started.elapsed()
    );

    // The socket mesh is now in an unknowable state: further regions on the
    // same fleet must be refused immediately with a typed error.
    let again = Instant::now();
    let r2: Result<SpmdHandle<Vec<f64>>, NetError> = try_spmd_transport(
        TransportKind::Tcp,
        "fault_exit_followup",
        ProcGrid::new(&grid),
        &exec,
        |_comm: Communicator| -> Vec<f64> { vec![] },
    );
    assert!(
        matches!(r2, Err(NetError::SessionPoisoned { .. })),
        "a poisoned session must refuse new regions, got {r2:?}"
    );
    assert!(
        again.elapsed() < Duration::from_secs(2),
        "poisoned-session refusal must be immediate, took {:?}",
        again.elapsed()
    );
}
