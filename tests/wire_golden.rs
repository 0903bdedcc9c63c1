//! Golden wire bytes: one frame per opcode, on both wires, pinned as hex.
//!
//! The codec suites round-trip, so a byte change applied to encoder and
//! decoder alike would pass them. This file pins what actually crosses a
//! socket instead:
//!
//! * every daemon request (`0x01–0x08`), captured from [`ServeClient`] by a
//!   recording stub server;
//! * every daemon response (`0x81–0x87`, `0xEE`) as `length ‖ payload`, plus
//!   the frames a live daemon writes for a listing, a bad length prefix, an
//!   unknown opcode, an unknown artifact and a shed session;
//! * the mesh frames the public API builds (`MSG`, `BARRIER`, `RELEASE`,
//!   `ABORT`), plus the `MSG` and `BARRIER` frames a live [`TcpTransport`]
//!   writes.
//!
//! Every frame is a little-endian `u32` payload length, then the payload,
//! whose first byte is the opcode. A change to any literal here is a wire
//! protocol change.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;
use tucker_distmem::{CommStats, Wire};
use tucker_net::frame::{encode_frame, encode_msg_frame, OP_ABORT, OP_BARRIER, OP_RELEASE};
use tucker_net::{TcpTransport, Transport};
use tucker_serve::{
    serve, ArtifactInfo, ArtifactStats, RemoteHeader, Response, ServeClient, ServeConfig,
    ServeStats,
};
use tucker_store::Codec;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts every `(label, bytes, expected hex)` case, reporting all
/// mismatches at once.
fn check(cases: &[(&str, Vec<u8>, &str)]) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| hex(got) != *want)
        .map(|(label, got, want)| format!("{label}:\n  got  {}\n  want {want}", hex(got)))
        .collect();
    assert!(bad.is_empty(), "wire bytes changed:\n{}", bad.join("\n"));
}

/// Reads one length-prefixed frame off a socket, prefix included.
fn read_raw_frame(sock: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    sock.read_exact(&mut frame).expect("frame prefix");
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    sock.read_exact(&mut frame[4..]).expect("frame payload");
    frame
}

/// The exact frame `ServeClient` writes for one call: a stub server records
/// it and hangs up, so the call itself fails (ignored).
fn client_frame(call: impl FnOnce(&mut ServeClient)) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("stub binds");
    let addr = listener.local_addr().expect("stub addr");
    let stub = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("stub accepts");
        read_raw_frame(&mut sock)
    });
    let mut client = ServeClient::connect(addr).expect("client connects");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    call(&mut client);
    stub.join().expect("stub thread")
}

/// `length ‖ payload` for a response payload.
fn response_frame(resp: &Response) -> Vec<u8> {
    let payload = resp.encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Writes `bytes` to a live daemon and reads back the one frame it answers.
fn daemon_reply(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut sock = TcpStream::connect(addr).expect("connect daemon");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    sock.write_all(bytes).expect("write request");
    read_raw_frame(&mut sock)
}

#[test]
fn daemon_request_frames_are_pinned() {
    check(&[
        (
            "OP_OPEN",
            client_frame(|c| drop(c.open("field"))),
            "0a00000001050000006669656c64",
        ),
        ("OP_LIST", client_frame(|c| drop(c.list())), "0100000002"),
        (
            "OP_RANGE",
            client_frame(|c| drop(c.reconstruct_range("field", &[(1, 2), (0, 3)]))),
            "2e00000003050000006669656c6402000000010000000000000002000000000000000000000000000000\
             0300000000000000",
        ),
        (
            "OP_SLICE",
            client_frame(|c| drop(c.reconstruct_slice("field", 2, 7))),
            "1a00000004050000006669656c6402000000000000000700000000000000",
        ),
        (
            "OP_ELEMENT",
            client_frame(|c| drop(c.element("field", &[1, 2, 3]))),
            "2600000005050000006669656c640300000001000000000000000200000000000000030000000000\
             0000",
        ),
        (
            "OP_ELEMENTS",
            client_frame(|c| drop(c.elements("field", &[&[0, 1], &[2, 3]]))),
            "3200000006050000006669656c640200000002000000000000000000000001000000000000000200\
             0000000000000300000000000000",
        ),
        ("OP_STATS", client_frame(|c| drop(c.stats())), "0100000007"),
        (
            "OP_METRICS",
            client_frame(|c| drop(c.metrics())),
            "0100000008",
        ),
    ]);
}

#[test]
fn daemon_response_frames_are_pinned() {
    check(&[
        (
            "RESP_OPEN",
            response_frame(&Response::Open(RemoteHeader {
                dims: vec![4, 3],
                ranks: vec![2, 1],
                codec: Codec::Q16,
                eps: 0.5,
                quant_error_bound: 0.25,
                chunk_count: 3,
                file_bytes: 4096,
            })),
            "46000000810200000004000000000000000300000000000000020000000000000001000000000000\
             0002000000000000e03f000000000000d03f03000000000000000010000000000000",
        ),
        (
            "RESP_LIST",
            response_frame(&Response::List(vec![
                ArtifactInfo {
                    name: "a".into(),
                    opened: true,
                },
                ArtifactInfo {
                    name: "bc".into(),
                    opened: false,
                },
            ])),
            "12000000820200000001000000610102000000626300",
        ),
        (
            "RESP_TENSOR",
            response_frame(&Response::Tensor {
                dims: vec![1, 2],
                data: vec![1.5, -0.25],
            }),
            "25000000830200000001000000000000000200000000000000000000000000f83f000000000000d0\
             bf",
        ),
        (
            "RESP_SCALAR",
            response_frame(&Response::Scalar(-2.0)),
            "090000008400000000000000c0",
        ),
        (
            "RESP_VECTOR",
            response_frame(&Response::Vector(vec![0.5, 3.0])),
            "150000008502000000000000000000e03f0000000000000840",
        ),
        (
            "RESP_STATS",
            response_frame(&Response::Stats(ServeStats {
                served: 1,
                busy_rejections: 2,
                shed_sessions: 3,
                protocol_errors: 4,
                in_flight: 5,
                artifacts: vec![ArtifactStats {
                    name: "f".into(),
                    decoded_chunks: 6,
                    cache_hits: 7,
                    resident_chunks: 8,
                }],
            })),
            "4a000000860100000000000000020000000000000003000000000000000400000000000000050000\
             0000000000010000000100000066060000000000000007000000000000000800000000000000",
        ),
        (
            "RESP_METRICS",
            response_frame(&Response::Metrics("counter x 1\n".into())),
            "11000000870c000000636f756e746572207820310a",
        ),
        (
            "RESP_ERR",
            response_frame(&Response::Err {
                code: 4,
                in_flight: 9,
                message: "busy".into(),
            }),
            "12000000ee0409000000000000000400000062757379",
        ),
    ]);
}

#[test]
fn live_daemon_frames_are_pinned() {
    // Registration does not open the file, so the listing and the error
    // frames below need no artifact on disk.
    let artifacts = [(
        "field".to_string(),
        std::env::temp_dir().join("wire_golden_unopened.tkr"),
    )];
    let handle = serve("127.0.0.1:0", &artifacts, ServeConfig::default()).expect("daemon binds");
    let addr = handle.addr();
    let list = daemon_reply(addr, &[1, 0, 0, 0, 0x02]);
    let bad_prefix = daemon_reply(addr, &[0, 0, 0, 0]);
    let unknown_opcode = daemon_reply(addr, &[1, 0, 0, 0, 0x7f]);
    let mut element = vec![0x05];
    element.extend_from_slice(&4u32.to_le_bytes());
    element.extend_from_slice(b"nope");
    element.extend_from_slice(&1u32.to_le_bytes());
    element.extend_from_slice(&0u64.to_le_bytes());
    let mut request = (element.len() as u32).to_le_bytes().to_vec();
    request.extend_from_slice(&element);
    let unknown_artifact = daemon_reply(addr, &request);

    handle.shutdown();

    // With its one session held open, a daemon capped at one session sheds
    // the next connection from the accept thread.
    let capped = ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", &artifacts, capped).expect("capped daemon binds");
    let addr = handle.addr();
    let mut held = TcpStream::connect(addr).expect("held session connects");
    held.write_all(&[1, 0, 0, 0, 0x02]).expect("held request");
    read_raw_frame(&mut held);
    let mut shed = TcpStream::connect(addr).expect("shed connection");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let shed_reply = read_raw_frame(&mut shed);
    drop(held);
    handle.shutdown();

    check(&[
        ("daemon RESP_LIST", list, "0f0000008201000000050000006669656c6400"),
        ("daemon bad prefix", bad_prefix, "43000000ee010000000000000000350000006672616d65206c656e6774682030206f757473696465\
                                           207468652061636365707465642072616e676520312e2e3d38333838363038"),
        ("daemon unknown opcode", unknown_opcode, "21000000ee01000000000000000013000000756e6b6e6f776e206f70636f64652030783766"),
        ("daemon unknown artifact", unknown_artifact, "2f000000ee02000000000000000021000000617274696661637420606e6f706560206973206e6f74\
                                                       2072656769737465726564"),
        ("daemon shed session", shed_reply, "30000000ee0401000000000000002200000073657373696f6e20636170203120726561636865643b\
                                             207265747279206c61746572"),
    ]);
}

#[test]
fn mesh_frames_are_pinned() {
    let token = (3u64, 5u64).to_wire_bytes();
    let abort = (3u64, 1u64, "boom".to_string()).to_wire_bytes();
    check(&[
        (
            "OP_MSG",
            encode_msg_frame(3, &[1.5, -0.25]).expect("MSG frame"),
            "210000001103000000000000000200000000000000000000000000f83f000000000000d0bf",
        ),
        (
            "OP_BARRIER",
            encode_frame(OP_BARRIER, &token).expect("BARRIER frame"),
            "110000001203000000000000000500000000000000",
        ),
        (
            "OP_RELEASE",
            encode_frame(OP_RELEASE, &token).expect("RELEASE frame"),
            "110000001303000000000000000500000000000000",
        ),
        (
            "OP_ABORT",
            encode_frame(OP_ABORT, &abort).expect("ABORT frame"),
            "1d00000017030000000000000001000000000000000400000000000000626f6f6d",
        ),
    ]);
}

#[test]
fn live_transport_frames_are_pinned() {
    // Rank 1 of a two-rank world whose rank 0 is a hand-held socket.
    let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut peer = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
    let (side, _) = l.accept().expect("accept");
    let rank1 = TcpTransport::over_streams(
        1,
        2,
        vec![Some(side), None],
        CommStats::new_shared(),
        Duration::from_secs(10),
    )
    .expect("transport over stream");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");

    rank1.send(0, &[1.5, -0.25]).expect("send");
    let msg = read_raw_frame(&mut peer);
    // A barrier sends BARRIER (region 0, seq 0) and waits for RELEASE.
    let release = encode_frame(OP_RELEASE, &(0u64, 0u64).to_wire_bytes()).expect("RELEASE");
    std::thread::scope(|s| {
        let waiter = s.spawn(|| rank1.barrier());
        let barrier = read_raw_frame(&mut peer);
        peer.write_all(&release).expect("release");
        waiter.join().expect("barrier thread").expect("barrier");
        check(&[
            (
                "transport MSG",
                msg,
                "210000001100000000000000000200000000000000000000000000f83f000000000000d0bf",
            ),
            (
                "transport BARRIER",
                barrier,
                "110000001200000000000000000000000000000000",
            ),
        ]);
    });
}
