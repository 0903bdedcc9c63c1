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
//! 1. cursor-level proptest over the one frame codec, at each wire's caps,
//!    and the same `MSG` properties against a live link's streaming reader;
//! 2. real-socket injection through [`TcpTransport::over_streams`], with an
//!    attacker-held [`TcpStream`] as the "peer";
//! 3. the full multi-process launcher, with a worker killed mid-region.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use tucker_distmem::collectives::all_reduce;
use tucker_distmem::subcomm::SubCommunicator;
use tucker_distmem::transport::TransportError;
use tucker_distmem::{CommStats, Communicator, ProcGrid, Wire};
use tucker_net::frame::{
    decode_msg, encode_frame, encode_msg_frame, read_frame, split_op, MAX_FRAME, OP_ABORT, OP_MSG,
};
use tucker_net::{
    local_mesh, test_exec_args, try_spmd_transport, NetError, PeerLink, SpmdHandle, TcpTransport,
    Transport, TransportKind,
};
use tucker_serve::proto::{MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME};

/// The frame codec's caps: the mesh's, the daemon's request and response.
const CAPS: [u32; 3] = [MAX_FRAME, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME];

/// Reads one frame from `bytes` under `cap`; a cursor never times out.
fn read_capped(bytes: &[u8], cap: u32) -> Result<Vec<u8>, NetError> {
    read_frame(&mut Cursor::new(bytes), cap, Duration::ZERO, || false)
}

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
// 1. Cursor-level: the frame codec under arbitrary bytes, at every cap.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any declared length — zero, plausible, or absurd — with any tail is
    /// either a decoded frame or a typed error; the reader never panics and
    /// oversized declarations are rejected *before* allocation.
    #[test]
    fn arbitrary_prefixes_and_tails_never_panic_the_reader(
        cap_sel in 0usize..3,
        sel in 0usize..3,
        len_small in 1u32..=2048,
        raw_big in 0u32..=u32::MAX,
        tail in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let cap = CAPS[cap_sel];
        let len = match sel {
            0 => 0u32,
            1 => len_small,
            _ => cap + 1 + raw_big % (u32::MAX - cap),
        };
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        match read_capped(&bytes, cap) {
            Ok(payload) => {
                // Only possible when the tail really contained the payload.
                prop_assert!(len >= 1 && payload.len() == len as usize && tail.len() >= payload.len());
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
        for cap in CAPS {
            match read_capped(&frame[..cut], cap) {
                Err(NetError::Closed { .. }) => prop_assert!(cut == 0),
                Err(NetError::Truncated { .. }) => prop_assert!(cut >= 1),
                other => prop_assert!(false, "cut at {cut} must be typed, got {other:?}"),
            }
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
        let payload = read_capped(&frame, MAX_FRAME).unwrap();
        let (op, body) = split_op(&payload);
        prop_assert_eq!(op, OP_MSG);
        let (r, back) = decode_msg(body).unwrap();
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
        body.extend(std::iter::repeat_n(0x5a, words * 8 + extra));
        match decode_msg(&body) {
            Err(NetError::Malformed { detail }) => prop_assert!(detail.contains("words")),
            other => prop_assert!(false, "count {declared} over {} bytes: {other:?}", words * 8 + extra),
        }
    }

    /// Every length past the cap is refused with the declared value echoed.
    #[test]
    fn oversized_declared_lengths_are_rejected_before_allocation(raw in 0u32..=u32::MAX) {
        for cap in CAPS {
            let len = cap + 1 + raw % (u32::MAX - cap);
            match read_capped(&len.to_le_bytes(), cap) {
                Err(NetError::FrameTooLarge { len: got, max }) => {
                    prop_assert_eq!((got, max), (len as u64, cap as u64));
                }
                other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
            }
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
// 1b. The same MSG properties against a live link's streaming reader, which
//     decodes the words while it reads them.
// ---------------------------------------------------------------------------

/// The system allocator, recording the largest request made by a thread
/// while that thread has armed it (see [`largest_allocation`]).
struct Watched;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the thread-locals
// are const-initialized `Cell`s with no destructor, so touching them
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static WATCHED: Watched = Watched;

fn note_request(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }
    });
}

/// Runs `f` and returns its result with the largest allocation this thread
/// requested meanwhile.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(Cell::get))
}

/// A victim link whose peer is an attacker-held raw socket.
fn rigged_link(timeout: Duration) -> (PeerLink, TcpStream) {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let attacker = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
    let (victim_side, _) = l.accept().expect("accept");
    let link = PeerLink::new(victim_side, timeout).expect("link over rigged stream");
    (link, attacker)
}

/// Writes `bytes` from the attacker's side on its own thread and hangs up,
/// while the victim link receives the region-0 `MSG` it expects.
fn feed_and_receive(bytes: &[u8]) -> Result<Vec<f64>, NetError> {
    let (link, mut attacker) = rigged_link(Duration::from_secs(5));
    std::thread::scope(|s| {
        s.spawn(move || {
            // The victim may refuse the frame early and stop reading.
            let _ = attacker.write_all(bytes);
        });
        link.recv_msg(0, None)
    })
}

/// A `MSG` frame of `words` words spans the head (21 bytes) and chunks of
/// 8192 words; these cut points cover every place a frame can stop: before
/// it, inside and at the end of the prefix, the opcode and the header,
/// inside and at the end of the first chunk, inside a later one, and one
/// byte short of the end.
fn cut_classes(frame_len: usize) -> Vec<usize> {
    let chunk = 8 * 8192;
    let mut cuts = vec![0, 1, 3, 4, 5, 6, 13, 20, 21, 22, 29, 21 + chunk / 2];
    cuts.extend([
        21 + chunk - 1,
        21 + chunk,
        21 + chunk + 1,
        21 + chunk + chunk / 3,
    ]);
    cuts.push(frame_len - 1);
    cuts.retain(|&c| c < frame_len);
    cuts
}

#[test]
fn a_live_msg_cut_at_every_offset_class_is_closed_or_truncated() {
    for words in [0usize, 3, 8192, 2 * 8192 + 3] {
        let payload: Vec<f64> = (0..words).map(|i| i as f64 - 0.5).collect();
        let frame = encode_msg_frame(0, &payload).unwrap();
        for cut in cut_classes(frame.len()) {
            match feed_and_receive(&frame[..cut]) {
                Err(NetError::Closed { .. }) => assert_eq!(cut, 0, "{words} words"),
                Err(NetError::Truncated { .. }) => assert!(cut >= 1),
                other => panic!("{words} words cut at {cut} must be typed, got {other:?}"),
            }
        }
        // Uncut, the same bytes arrive whole; through the transport a cut
        // is a dead peer.
        let back = feed_and_receive(&frame).expect("whole frame");
        assert!(back
            .iter()
            .zip(&payload)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
        attacker.write_all(&frame[..frame.len() - 1]).unwrap();
        drop(attacker);
        assert_eq!(victim.recv(1), Err(TransportError::PeerGone { peer: 1 }));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A well-formed `MSG` frame cut at any byte, on a live socket, is
    /// `Closed` (nothing read) or `Truncated` (mid-frame).
    #[test]
    fn a_live_msg_cut_anywhere_is_closed_or_truncated(
        words in 0usize..3 * 8192,
        cut_frac in 0.0f64..1.0,
    ) {
        let payload: Vec<f64> = (0..words).map(|i| i as f64).collect();
        let frame = encode_msg_frame(0, &payload).unwrap();
        let cut = ((frame.len() - 1) as f64 * cut_frac) as usize;
        match feed_and_receive(&frame[..cut]) {
            Err(NetError::Closed { .. }) => prop_assert!(cut == 0),
            Err(NetError::Truncated { .. }) => prop_assert!(cut >= 1),
            other => prop_assert!(false, "cut at {cut} must be typed, got {other:?}"),
        }
    }

    /// A live `MSG` whose declared count disagrees with its length is
    /// `Malformed` on the link and `Protocol` through the transport, and
    /// the reader allocates nothing from the declared count. Bodies run
    /// past one staging buffer too.
    #[test]
    fn a_live_msg_count_disagreeing_with_the_body_is_malformed(
        small in 0usize..16,
        big in 0usize..2,
        sel in 0usize..5,
        extra in 0usize..8,
    ) {
        let words = small + big * 9000;
        let mut body = Vec::new();
        0u64.encode(&mut body);
        let real = words as u64;
        let declared = [0u64, 1, 7, 1 << 40, u64::MAX][sel];
        let declared = if declared == real && extra == 0 { real + 1 } else { declared };
        declared.encode(&mut body);
        body.extend(std::iter::repeat_n(0x5a, words * 8 + extra));
        let frame = encode_frame(OP_MSG, &body).unwrap();

        let (link, mut attacker) = rigged_link(Duration::from_secs(5));
        attacker.write_all(&frame).unwrap();
        attacker.write_all(&encode_msg_frame(0, &[2.5]).unwrap()).unwrap();
        let (got, largest) = largest_allocation(|| link.recv_msg(0, None));
        match got {
            Err(NetError::Malformed { detail }) => prop_assert!(detail.contains("words")),
            other => prop_assert!(false, "count {declared} over {} bytes: {other:?}", words * 8 + extra),
        }
        prop_assert!(largest < 1024, "the reader allocated {largest} bytes");
        // The refused frame was read whole: the next one still parses.
        prop_assert_eq!(link.recv_msg(0, None).unwrap(), vec![2.5]);

        let (victim, mut attacker) = rigged_pair(Duration::from_secs(5));
        attacker.write_all(&frame).unwrap();
        let through = victim.recv(1);
        prop_assert!(
            matches!(through, Err(TransportError::Protocol { .. })),
            "a lying count must be Protocol, got {:?}",
            through
        );
    }

    /// A live link refuses every length past the mesh cap with
    /// `FrameTooLarge`, before it allocates anything for the frame.
    #[test]
    fn a_live_oversized_length_is_refused_before_allocation(raw in 0u32..=u32::MAX) {
        let len = MAX_FRAME + 1 + raw % (u32::MAX - MAX_FRAME);
        let (link, mut attacker) = rigged_link(Duration::from_secs(5));
        attacker.write_all(&len.to_le_bytes()).unwrap();
        attacker.write_all(&[OP_MSG; 64]).unwrap();
        let (got, largest) = largest_allocation(|| link.recv_msg(0, None));
        match got {
            Err(NetError::FrameTooLarge { len: got, max }) => {
                prop_assert_eq!((got, max), (len as u64, MAX_FRAME as u64));
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
        prop_assert!(largest < 1024, "the reader allocated {largest} bytes");
    }
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
