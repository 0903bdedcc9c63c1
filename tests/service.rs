//! The `tucker-serve` service contract (ISSUE 6 acceptance criteria):
//!
//! * ≥ 8 simultaneous clients interleaving mixed queries against multiple
//!   artifacts (all three codecs) each receive answers **byte-identical**
//!   to a direct in-process [`TensorQuery`] reader;
//! * graceful shutdown **drains** — requests admitted before
//!   [`ServerHandle::shutdown`] are fully answered, never dropped;
//! * the admission cap sheds overload as a **typed `Busy`** error, and the
//!   daemon keeps serving correctly afterwards;
//! * no protocol violence — truncated frames, oversized length prefixes,
//!   unknown opcodes, garbage payloads, mid-request disconnects — can
//!   panic or wedge the daemon, corrupt another session, or poison the
//!   shared cache (fault-injection proptest);
//! * the client survives a misbehaving *server* the same way: every attack
//!   yields a typed error, never a panic or an unbounded hang.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;
use tucker_api::{Open, TensorQuery, TuckerError};
use tucker_core::prelude::*;
use tucker_serve::{serve, ServeClient, ServeConfig, ServerHandle};
use tucker_store::{Codec, TkrHeader, TkrMetadata, TkrWriter};
use tucker_tensor::DenseTensor;

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_tkr(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("service_{}_{tag}_{n}.tkr", std::process::id()))
}

fn wavy(dims: &[usize], phase: f64) -> DenseTensor {
    DenseTensor::from_fn(dims, |idx| {
        let mut v = phase;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 2) as f64 * 0.17 * i as f64 + phase).sin();
        }
        v
    })
}

/// Compresses `dims` and writes one core chunk per last-mode slab, so the
/// artifact has a deep chunk directory and the shared cache actually cycles.
fn chunked_artifact(tag: &str, dims: &[usize], codec: Codec, phase: f64) -> PathBuf {
    let x = wavy(dims, phase);
    let r = try_st_hosvd_ctx(
        &x,
        &SthosvdOptions::with_tolerance(1e-4),
        ExecContext::global(),
    )
    .unwrap();
    let t = &r.tucker;
    let path = temp_tkr(tag);
    let header = TkrHeader {
        dims: t.original_dims(),
        ranks: t.ranks(),
        eps: 1e-4,
        codec,
        quant_error_bound: 0.0,
        meta: TkrMetadata::default(),
    };
    let mut w = TkrWriter::create(&path, header).expect("create artifact");
    for (n, u) in t.factors.iter().enumerate() {
        w.write_factor(n, u).expect("write factor");
    }
    let last = *t.core.dims().last().expect("non-scalar core");
    for s in 0..last {
        w.write_core_chunk(t.core.last_mode_slab(s, 1))
            .expect("write chunk");
    }
    w.finish().expect("finish artifact");
    path
}

/// SplitMix64 — deterministic per-thread stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------------
// 1. Concurrency: ≥8 clients, mixed interleaved queries, 3 codecs, one cache.
// ---------------------------------------------------------------------------

#[test]
fn eight_concurrent_clients_get_byte_identical_answers() {
    let dims = [11usize, 9, 13];
    let specs = [
        ("field-f64", Codec::F64, 0.3),
        ("field-f32", Codec::F32, 1.1),
        ("field-q16", Codec::Q16, 2.4),
    ];
    let paths: Vec<PathBuf> = specs
        .iter()
        .map(|(name, codec, phase)| chunked_artifact(name, &dims, *codec, *phase))
        .collect();
    let registry: Vec<(String, PathBuf)> = specs
        .iter()
        .zip(paths.iter())
        .map(|((name, _, _), p)| (name.to_string(), p.clone()))
        .collect();
    // A cache budget well below the combined chunk inventory, so sessions
    // evict each other's chunks while answering.
    let handle = serve(
        "127.0.0.1:0",
        &registry,
        ServeConfig {
            cache_chunks: 4,
            cache_stripes: 2,
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = handle.addr();

    let mismatches = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..8usize {
            let registry = &registry;
            let paths = &paths;
            joins.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                let direct: Vec<_> = paths
                    .iter()
                    .map(|p| Open::eager().open(p).expect("direct reader"))
                    .collect();
                let mut rng = Rng(0xC0FFEE + id as u64);
                let mut bad = 0usize;
                for _ in 0..30 {
                    let a = rng.below(registry.len());
                    let (name, reader) = (&registry[a].0, &direct[a]);
                    match rng.next() % 4 {
                        0 => {
                            let idx: Vec<usize> = dims.iter().map(|&d| rng.below(d)).collect();
                            let got = client.element(name, &idx).expect("element");
                            let want = reader.element(&idx).expect("direct element");
                            bad += usize::from(got.to_bits() != want.to_bits());
                        }
                        1 => {
                            let points: Vec<Vec<usize>> = (0..6)
                                .map(|_| dims.iter().map(|&d| rng.below(d)).collect())
                                .collect();
                            let refs: Vec<&[usize]> = points.iter().map(Vec::as_slice).collect();
                            let got = client.elements(name, &refs).expect("elements");
                            // Bit-exact reference for a batch: the per-point
                            // element walk (documented reader contract).
                            let want: Vec<f64> = refs
                                .iter()
                                .map(|p| reader.element(p).expect("direct element"))
                                .collect();
                            bad += usize::from(!bits_equal(&got, &want));
                        }
                        2 => {
                            let ranges: Vec<(usize, usize)> = dims
                                .iter()
                                .map(|&d| {
                                    let s = rng.below(d);
                                    (s, 1 + rng.below(d - s))
                                })
                                .collect();
                            let got = client.reconstruct_range(name, &ranges).expect("range");
                            let want = reader.reconstruct_range(&ranges).expect("direct range");
                            bad += usize::from(
                                got.dims() != want.dims()
                                    || !bits_equal(got.as_slice(), want.as_slice()),
                            );
                        }
                        _ => {
                            let mode = rng.below(dims.len());
                            let index = rng.below(dims[mode]);
                            let got = client.reconstruct_slice(name, mode, index).expect("slice");
                            let want = reader.reconstruct_slice(mode, index).expect("direct slice");
                            bad += usize::from(
                                got.dims() != want.dims()
                                    || !bits_equal(got.as_slice(), want.as_slice()),
                            );
                        }
                    }
                }
                bad
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .sum::<usize>()
    });
    assert_eq!(mismatches, 0, "remote answers diverged from direct readers");

    // The shared budget held under fire, and all three artifacts served
    // through one cache.
    let mut probe = ServeClient::connect(addr).expect("probe connects");
    let stats = probe.stats().expect("stats");
    drop(probe);
    assert_eq!(stats.artifacts.len(), 3);
    let resident: u64 = stats.artifacts.iter().map(|a| a.resident_chunks).sum();
    assert!(resident <= 4, "resident {resident} chunks exceed budget 4");
    for a in &stats.artifacts {
        assert!(a.decoded_chunks > 0, "{} never decoded", a.name);
    }

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.in_flight, 0);
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}

// ---------------------------------------------------------------------------
// 2. Graceful shutdown drains admitted work.
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drains_in_flight_requests() {
    let dims = [14usize, 12, 16];
    let path = chunked_artifact("drain", &dims, Codec::F64, 0.7);
    let registry = vec![("field".to_string(), path.clone())];
    // One worker so requests genuinely queue behind each other.
    let handle = serve(
        "127.0.0.1:0",
        &registry,
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            cache_chunks: 4,
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = handle.addr();
    let expected = Open::eager()
        .open(&path)
        .expect("direct reader")
        .reconstruct_range(&[(0, dims[0]), (0, dims[1]), (0, dims[2])])
        .expect("direct range");

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..4 {
            let expected = &expected;
            joins.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                let got = client
                    .reconstruct_range("field", &[(0, 14), (0, 12), (0, 16)])
                    .expect("a request admitted before shutdown must be answered");
                assert!(
                    bits_equal(got.as_slice(), expected.as_slice()),
                    "drained reply is corrupt"
                );
            }));
        }
        // Let all four requests reach admission, then shut down while (some
        // of) them are still queued behind the single worker.
        std::thread::sleep(Duration::from_millis(150));
        let stats = handle.shutdown();
        assert_eq!(stats.in_flight, 0, "shutdown returned with work in flight");
        for j in joins {
            j.join().expect("drained client");
        }
    });
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// 3. Backpressure: overload sheds as typed Busy, service stays correct.
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_as_typed_busy_and_service_recovers() {
    let dims = [16usize, 14, 18];
    let path = chunked_artifact("storm", &dims, Codec::F32, 1.9);
    let registry = vec![("field".to_string(), path.clone())];
    let handle = serve(
        "127.0.0.1:0",
        &registry,
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            cache_chunks: 2,
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = handle.addr();
    let direct = Open::eager().open(&path).expect("direct reader");
    let expected = direct
        .reconstruct_range(&[(0, dims[0]), (0, dims[1]), (0, dims[2])])
        .expect("direct range");

    let (ok, busy) = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..12 {
            let expected = &expected;
            joins.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                match client.reconstruct_range("field", &[(0, 16), (0, 14), (0, 18)]) {
                    Ok(got) => {
                        assert!(
                            bits_equal(got.as_slice(), expected.as_slice()),
                            "accepted reply is corrupt under overload"
                        );
                        (1usize, 0usize)
                    }
                    Err(TuckerError::Busy { .. }) => (0, 1),
                    Err(e) => panic!("overload must shed as Busy, got: {e}"),
                }
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("storm client"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    assert!(ok >= 1, "nothing was served during the storm");
    assert!(
        busy >= 1,
        "a 12-client storm against queue_depth=1 never tripped admission"
    );

    // After the storm the daemon serves normally and counted its rejections.
    let mut client = ServeClient::connect(addr).expect("post-storm client");
    let got = client
        .element("field", &[1, 2, 3])
        .expect("post-storm query");
    let want = direct.element(&[1, 2, 3]).expect("direct element");
    assert_eq!(got.to_bits(), want.to_bits());
    let stats = client.stats().expect("stats");
    assert!(stats.busy_rejections >= busy as u64);
    drop(client);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// 3b. Session cap: a connection flood is shed by the accept thread with a
//     typed Busy, before any session thread is spawned.
// ---------------------------------------------------------------------------

#[test]
fn session_cap_sheds_before_spawn() {
    let dims = [10usize, 8, 6];
    let path = chunked_artifact("cap", &dims, Codec::F64, 0.9);
    let registry = vec![("field".to_string(), path.clone())];
    let handle = serve(
        "127.0.0.1:0",
        &registry,
        ServeConfig {
            max_sessions: 2,
            cache_chunks: 4,
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = handle.addr();
    let direct = Open::eager().open(&path).expect("direct reader");
    let want = direct.element(&[1, 2, 3]).expect("direct element");

    // Fill the cap with two live sessions. A served round trip on each
    // proves its session thread exists before the third connection arrives
    // (plain connect() only proves the kernel accepted the socket).
    let mut a = ServeClient::connect(addr).expect("client a connects");
    let mut b = ServeClient::connect(addr).expect("client b connects");
    assert_eq!(
        a.element("field", &[1, 2, 3]).unwrap().to_bits(),
        want.to_bits()
    );
    assert_eq!(
        b.element("field", &[1, 2, 3]).unwrap().to_bits(),
        want.to_bits()
    );

    // The third connection is over the cap: the accept thread answers a
    // typed Busy and closes, so the first read on this socket sees it.
    let mut c = ServeClient::connect(addr).expect("client c connects at TCP level");
    match c.element("field", &[1, 2, 3]) {
        Err(TuckerError::Busy { .. }) => {}
        other => panic!("over-cap connection must get a typed Busy, got: {other:?}"),
    }
    drop(c);

    // The live sessions are untouched, and the shed was counted.
    assert_eq!(
        a.element("field", &[1, 2, 3]).unwrap().to_bits(),
        want.to_bits()
    );
    let stats = b.stats().expect("stats from a live session");
    assert!(
        stats.shed_sessions >= 1,
        "shed_sessions must count the refused connection, got {}",
        stats.shed_sessions
    );
    assert_eq!(stats.busy_rejections, 0, "no request ever hit admission");

    // Freeing a slot re-opens the door: after client a hangs up, a new
    // connection is accepted once the accept thread prunes the dead session.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut d = ServeClient::connect(addr).expect("replacement client connects");
        match d.element("field", &[1, 2, 3]) {
            Ok(v) => {
                assert_eq!(v.to_bits(), want.to_bits());
                break;
            }
            Err(TuckerError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("replacement client must eventually be admitted: {e}"),
        }
    }

    drop(b);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// 4. Server-side fault injection: protocol violence never panics the daemon,
//    wedges it, or corrupts another session.
// ---------------------------------------------------------------------------

/// One long-lived daemon shared by every fault-injection case, plus a
/// pristine expected answer. If any attack poisoned it, the follow-up
/// well-formed probe of the *next* case fails loudly.
struct FaultFixture {
    addr: SocketAddr,
    expected: f64,
    // Held: dropping the handle would stop the daemon mid-suite.
    _handle: ServerHandle,
}

fn fault_fixture() -> &'static FaultFixture {
    static FIXTURE: OnceLock<FaultFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = chunked_artifact("faults", &[9, 8, 10], Codec::Q16, 3.3);
        let handle = serve(
            "127.0.0.1:0",
            &[("field".to_string(), path.clone())],
            ServeConfig {
                cache_chunks: 4,
                ..ServeConfig::default()
            },
        )
        .expect("daemon binds");
        let expected = Open::eager()
            .open(&path)
            .expect("direct reader")
            .element(&[4, 3, 2])
            .expect("direct element");
        // Force the daemon's lazy reader open while the file still exists;
        // the open descriptor outlives the unlink below.
        let mut warm = ServeClient::connect(handle.addr()).expect("warmup connects");
        warm.open("field").expect("warmup open");
        drop(warm);
        std::fs::remove_file(&path).ok();
        FaultFixture {
            addr: handle.addr(),
            expected,
            _handle: handle,
        }
    })
}

/// Asserts the daemon still answers a well-formed client correctly.
fn assert_daemon_healthy(fixture: &FaultFixture) {
    let mut client = ServeClient::connect(fixture.addr).expect("healthy client connects");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let got = client.element("field", &[4, 3, 2]).expect("healthy query");
    assert_eq!(got.to_bits(), fixture.expected.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn daemon_survives_protocol_violence(
        attack in 0usize..5,
        garbage in prop::collection::vec(0u8..=255, 1..200),
        big_len in (1u32 << 23)..u32::MAX,
    ) {
        let fixture = fault_fixture();
        let mut raw = TcpStream::connect(fixture.addr).expect("attacker connects");
        raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        raw.set_write_timeout(Some(Duration::from_secs(5))).expect("timeout");
        match attack {
            0 => {
                // Truncated frame: advertise more bytes than are sent, then
                // vanish. The daemon must time the stall out, not wait forever.
                let mut msg = (garbage.len() as u32 + 64).to_le_bytes().to_vec();
                msg.extend_from_slice(&garbage);
                raw.write_all(&msg).ok();
                drop(raw);
            }
            1 => {
                // Oversized length prefix: rejected before any allocation,
                // with a typed protocol error frame if the peer sticks around.
                raw.write_all(&big_len.to_le_bytes()).ok();
                let mut reply = Vec::new();
                raw.read_to_end(&mut reply).ok();
                // Either an error frame or a straight drop is fine; a hang
                // is not (read_to_end would have timed out above).
            }
            2 => {
                // Unknown opcode / garbage payload in a well-framed message:
                // the session answers a typed error and survives.
                let mut msg = (garbage.len() as u32).to_le_bytes().to_vec();
                msg.extend_from_slice(&garbage);
                raw.write_all(&msg).ok();
                let mut prefix = [0u8; 4];
                if raw.read_exact(&mut prefix).is_ok() {
                    let len = u32::from_le_bytes(prefix) as usize;
                    prop_assert!(len <= 1 << 26, "oversized error frame");
                    let mut payload = vec![0u8; len];
                    raw.read_exact(&mut payload).expect("error frame body");
                    // 0xEE = RESP_ERR: garbage must never decode as success.
                    prop_assert_eq!(payload[0], 0xEE);
                }
            }
            3 => {
                // Zero-length frame: invalid by construction.
                raw.write_all(&0u32.to_le_bytes()).ok();
                let mut reply = Vec::new();
                raw.read_to_end(&mut reply).ok();
            }
            _ => {
                // Mid-request disconnect: half a length prefix, then gone.
                raw.write_all(&[0x10, 0x00]).ok();
                drop(raw);
            }
        }
        // The daemon is still alive, correct, and serving other sessions.
        assert_daemon_healthy(fixture);
    }
}

// ---------------------------------------------------------------------------
// 5. Client-side fault injection: a misbehaving server yields typed errors,
//    never a panic or an unbounded hang.
// ---------------------------------------------------------------------------

/// A stub server that accepts one connection, reads one whole request frame
/// (the length prefix, then that many bytes), writes `reply`, and closes
/// the connection.
fn stub_server(reply: Vec<u8>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("stub binds");
    let addr = listener.local_addr().expect("stub addr");
    std::thread::spawn(move || {
        if let Ok((mut sock, _)) = listener.accept() {
            let mut prefix = [0u8; 4];
            if sock.read_exact(&mut prefix).is_ok() {
                let mut request = vec![0u8; u32::from_le_bytes(prefix) as usize];
                if sock.read_exact(&mut request).is_ok() {
                    sock.write_all(&reply).ok();
                }
            }
        }
    });
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn client_survives_misbehaving_servers(
        kind in 0usize..4,
        garbage in prop::collection::vec(0u8..=255, 0..120),
        big_len in (1u32 << 26)..u32::MAX,
    ) {
        let reply = match kind {
            // Immediate close: no reply at all.
            0 => Vec::new(),
            // Oversized response length prefix: must be rejected before
            // the client allocates the advertised 64 MiB+.
            1 => big_len.to_le_bytes().to_vec(),
            // Truncated response: advertise more than is sent.
            2 => {
                let mut msg = (garbage.len() as u32 + 512).to_le_bytes().to_vec();
                msg.extend_from_slice(&garbage);
                msg
            }
            // Well-framed garbage payload.
            _ => {
                let mut msg = (garbage.len().max(1) as u32).to_le_bytes().to_vec();
                msg.extend_from_slice(&garbage);
                if garbage.is_empty() {
                    msg.push(0x00);
                }
                msg
            }
        };
        let addr = stub_server(reply);
        let mut client = ServeClient::connect(addr).expect("client connects to stub");
        client.set_timeout(Some(Duration::from_millis(500))).expect("set timeout");
        // Any typed error is acceptable; a panic or a hang past the timeout
        // is not. (Truncated stalls surface as a timeout Io error; closed
        // sockets as ProtocolError::Truncated; bad prefixes as FrameLength;
        // garbage as a decode error.)
        let outcome = client.element("field", &[0, 0, 0]);
        prop_assert!(outcome.is_err(), "garbage decoded as a successful reply");
    }
}
