//! The `tucker-serve` wire protocol: requests and responses, one per frame.
//!
//! Frames are `tucker-net`'s, the one frame codec of the workspace
//! ([`tucker_net::frame`]): a little-endian `u32` payload length, then the
//! payload, whose first byte is the opcode. This module only adds the two
//! caps of this wire ([`MAX_REQUEST_FRAME`], [`MAX_RESPONSE_FRAME`]) and the
//! payloads: integers are little-endian, strings are a `u32` byte length
//! plus UTF-8 bytes, and tensor data is raw little-endian `f64`s. There is
//! no pipelining: a connection carries one request, then one response, in
//! strict alternation.
//!
//! Payloads are decoded with the workspace's one bounds-checked cursor,
//! [`tucker_distmem::WireReader`]: every declared length is checked against
//! the bytes present before allocation, every string against its cap and for
//! UTF-8, element counts are capped, and a payload with trailing bytes is
//! rejected. A malformed payload is a typed [`ProtocolError`] — this module
//! cannot panic (it is under the CI panic-grep gate).
//!
//! The server handles protocol failures per-connection: a frame that parses
//! badly gets a typed [`Response::Err`] with [`ERR_PROTOCOL`] and the
//! connection stays usable; an unusable prefix (bad length, truncation)
//! drops only that connection. See `crate::server`.

use tucker_api::ProtocolError;
use tucker_distmem::{Wire, WireReader};
use tucker_net::frame::{encode_with, put_words};
use tucker_net::NetError;
use tucker_store::Codec;

/// Cap on a request frame's payload (bounds the server's per-request
/// allocation; generous for the largest legal `Elements` batch).
pub const MAX_REQUEST_FRAME: u32 = 1 << 23;
/// Cap on a response frame's payload (bounds reconstruction windows a
/// single response may carry).
pub const MAX_RESPONSE_FRAME: u32 = 1 << 26;
/// Cap on an artifact name's UTF-8 byte length.
pub const MAX_NAME_BYTES: usize = 256;
/// Cap on the number of modes in any request (mirrors the `.tkr` header
/// limit).
pub const MAX_MODES: usize = 64;
/// Cap on the number of points in one `Elements` batch.
pub const MAX_POINTS: usize = 8192;
/// Cap on a diagnostic message's UTF-8 byte length.
pub const MAX_MESSAGE_BYTES: usize = 4096;
/// Cap on a metrics exposition's UTF-8 byte length (a registry of thousands
/// of instruments stays far below this).
pub const MAX_METRICS_BYTES: usize = 1 << 20;

/// Request opcode: open (or re-validate) an artifact, returning its header
/// summary.
pub const OP_OPEN: u8 = 0x01;
/// Request opcode: list registered artifacts.
pub const OP_LIST: u8 = 0x02;
/// Request opcode: reconstruct a per-mode `(start, len)` window.
pub const OP_RANGE: u8 = 0x03;
/// Request opcode: reconstruct one hyperslice.
pub const OP_SLICE: u8 = 0x04;
/// Request opcode: reconstruct a single element.
pub const OP_ELEMENT: u8 = 0x05;
/// Request opcode: reconstruct a batch of elements.
pub const OP_ELEMENTS: u8 = 0x06;
/// Request opcode: service and per-artifact cache statistics.
pub const OP_STATS: u8 = 0x07;
/// Request opcode: the process-wide metrics registry as a text exposition.
pub const OP_METRICS: u8 = 0x08;

/// Response opcode: header summary of an opened artifact.
pub const RESP_OPEN: u8 = 0x81;
/// Response opcode: artifact listing.
pub const RESP_LIST: u8 = 0x82;
/// Response opcode: a reconstructed tensor window.
pub const RESP_TENSOR: u8 = 0x83;
/// Response opcode: a single reconstructed value.
pub const RESP_SCALAR: u8 = 0x84;
/// Response opcode: a batch of reconstructed values.
pub const RESP_VECTOR: u8 = 0x85;
/// Response opcode: service statistics.
pub const RESP_STATS: u8 = 0x86;
/// Response opcode: a metrics text exposition.
pub const RESP_METRICS: u8 = 0x87;
/// Response opcode: a typed error.
pub const RESP_ERR: u8 = 0xEE;

/// Error code: the request frame violated the protocol.
pub const ERR_PROTOCOL: u8 = 1;
/// Error code: the named artifact is not registered.
pub const ERR_UNKNOWN_ARTIFACT: u8 = 2;
/// Error code: the artifact rejected the query (out of range, wrong arity,
/// or a result too large for one response frame).
pub const ERR_QUERY: u8 = 3;
/// Error code: the admission cap rejected the request; retry later.
pub const ERR_BUSY: u8 = 4;
/// Error code: the server is shutting down and accepts no new requests.
pub const ERR_SHUTTING_DOWN: u8 = 5;
/// Error code: the request missed its deadline (including queue wait).
pub const ERR_DEADLINE: u8 = 6;
/// Error code: the registered artifact failed to open (corrupt or missing
/// file).
pub const ERR_OPEN: u8 = 7;
/// Error code: an internal failure while executing the request.
pub const ERR_INTERNAL: u8 = 8;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open (or re-validate) artifact `name`, returning its header summary.
    Open {
        /// Registered artifact name.
        name: String,
    },
    /// List every registered artifact.
    List,
    /// Reconstruct the window given by one `(start, len)` pair per mode.
    ReconstructRange {
        /// Registered artifact name.
        name: String,
        /// One `(start, len)` pair per mode.
        ranges: Vec<(u64, u64)>,
    },
    /// Reconstruct the hyperslice `index` of `mode`.
    ReconstructSlice {
        /// Registered artifact name.
        name: String,
        /// The sliced mode.
        mode: u64,
        /// The index within the mode.
        index: u64,
    },
    /// Reconstruct a single element.
    Element {
        /// Registered artifact name.
        name: String,
        /// One index per mode.
        idx: Vec<u64>,
    },
    /// Reconstruct a batch of elements.
    Elements {
        /// Registered artifact name.
        name: String,
        /// Number of modes per point.
        ndims: u32,
        /// `npoints × ndims` indices, point-major.
        points: Vec<u64>,
    },
    /// Service and per-artifact cache statistics.
    Stats,
    /// The process-wide metrics registry as a text exposition.
    Metrics,
}

/// The header summary a successful `Open` carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteHeader {
    /// Original tensor dimensions.
    pub dims: Vec<u64>,
    /// Stored core dimensions.
    pub ranks: Vec<u64>,
    /// The artifact's value codec.
    pub codec: Codec,
    /// Decomposition tolerance ε.
    pub eps: f64,
    /// The codec's quantization error bound.
    pub quant_error_bound: f64,
    /// Number of core chunks in the artifact.
    pub chunk_count: u64,
    /// Artifact size on disk in bytes.
    pub file_bytes: u64,
}

/// One artifact in a `List` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Registered name.
    pub name: String,
    /// Whether the artifact has been opened (readers are opened on first
    /// use and kept).
    pub opened: bool,
}

/// Per-artifact cache accounting in a `Stats` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactStats {
    /// Registered name.
    pub name: String,
    /// Cumulative chunk decodes for this artifact.
    pub decoded_chunks: u64,
    /// Cumulative shared-cache hits for this artifact.
    pub cache_hits: u64,
    /// This artifact's chunks currently resident in the shared cache.
    pub resident_chunks: u64,
}

/// The service counters a `Stats` response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered successfully.
    pub served: u64,
    /// Requests rejected at the admission cap.
    pub busy_rejections: u64,
    /// Connections refused at the session cap — answered `Busy` by the
    /// accept thread and closed before any session thread was spawned.
    pub shed_sessions: u64,
    /// Malformed request frames answered with a protocol error.
    pub protocol_errors: u64,
    /// Requests currently admitted (queued or executing).
    pub in_flight: u64,
    /// Per-artifact shared-cache accounting, sorted by name.
    pub artifacts: Vec<ArtifactStats>,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Header summary of an opened artifact.
    Open(RemoteHeader),
    /// Artifact listing, sorted by name.
    List(Vec<ArtifactInfo>),
    /// A reconstructed tensor window (row-major values).
    Tensor {
        /// The window's dimensions.
        dims: Vec<u64>,
        /// `∏ dims` row-major values.
        data: Vec<f64>,
    },
    /// A single reconstructed value.
    Scalar(f64),
    /// A batch of reconstructed values, in request order.
    Vector(Vec<f64>),
    /// Service statistics.
    Stats(ServeStats),
    /// The metrics registry rendered as one `kind name fields` line per
    /// instrument (see `tucker_obs::metrics::render`), plus the server's
    /// per-artifact cache gauges.
    Metrics(String),
    /// A typed error.
    Err {
        /// One of the `ERR_*` codes.
        code: u8,
        /// Requests in flight when the error was produced (meaningful for
        /// [`ERR_BUSY`], zero otherwise).
        in_flight: u64,
        /// Human-readable diagnostic.
        message: String,
    },
}

/// Appends a string as a `u32` byte length plus its UTF-8 bytes.
fn put_str(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).encode(out);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a mode count, refusing counts outside `1..=MAX_MODES`.
fn modes(d: &mut WireReader<'_>, what: &str) -> Result<usize, ProtocolError> {
    let n = d.u32()? as usize;
    if n == 0 || n > MAX_MODES {
        return Err(ProtocolError::Malformed(format!(
            "{what} of {n} modes outside the accepted range 1..={MAX_MODES}"
        )));
    }
    Ok(n)
}

/// Reads a list length, refusing lengths over [`MAX_POINTS`].
fn count(d: &mut WireReader<'_>, what: &str) -> Result<usize, ProtocolError> {
    let n = d.u32()? as usize;
    if n > MAX_POINTS {
        return Err(ProtocolError::Malformed(format!(
            "{what} of {n} entries exceeds cap {MAX_POINTS}"
        )));
    }
    Ok(n)
}

impl Request {
    /// Encodes the request payload (no frame prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the request as one frame, refusing payloads over
    /// [`MAX_REQUEST_FRAME`].
    pub(crate) fn frame(&self) -> Result<Vec<u8>, NetError> {
        encode_with(MAX_REQUEST_FRAME, |out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Open { name } => {
                out.push(OP_OPEN);
                put_str(out, name);
            }
            Request::List => out.push(OP_LIST),
            Request::ReconstructRange { name, ranges } => {
                out.push(OP_RANGE);
                put_str(out, name);
                (ranges.len() as u32).encode(out);
                put_words(out, ranges.iter().flat_map(|&(start, len)| [start, len]));
            }
            Request::ReconstructSlice { name, mode, index } => {
                out.push(OP_SLICE);
                put_str(out, name);
                mode.encode(out);
                index.encode(out);
            }
            Request::Element { name, idx } => {
                out.push(OP_ELEMENT);
                put_str(out, name);
                (idx.len() as u32).encode(out);
                put_words(out, idx.iter().copied());
            }
            Request::Elements {
                name,
                ndims,
                points,
            } => {
                out.push(OP_ELEMENTS);
                put_str(out, name);
                ((points.len() / (*ndims).max(1) as usize) as u32).encode(out);
                ndims.encode(out);
                put_words(out, points.iter().copied());
            }
            Request::Stats => out.push(OP_STATS),
            Request::Metrics => out.push(OP_METRICS),
        }
    }

    /// Decodes a request payload, rejecting unknown opcodes, out-of-cap
    /// counts, non-UTF-8 names, and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut d = WireReader::new(payload);
        let req = match d.u8()? {
            OP_OPEN => Request::Open {
                name: d.str32(MAX_NAME_BYTES, "artifact name")?,
            },
            OP_LIST => Request::List,
            OP_RANGE => {
                let name = d.str32(MAX_NAME_BYTES, "artifact name")?;
                let n = modes(&mut d, "range request")?;
                let flat = d.u64s(n * 2)?;
                Request::ReconstructRange {
                    name,
                    ranges: flat.chunks_exact(2).map(|c| (c[0], c[1])).collect(),
                }
            }
            OP_SLICE => Request::ReconstructSlice {
                name: d.str32(MAX_NAME_BYTES, "artifact name")?,
                mode: d.u64()?,
                index: d.u64()?,
            },
            OP_ELEMENT => {
                let name = d.str32(MAX_NAME_BYTES, "artifact name")?;
                let n = modes(&mut d, "element request")?;
                Request::Element {
                    name,
                    idx: d.u64s(n)?,
                }
            }
            OP_ELEMENTS => {
                let name = d.str32(MAX_NAME_BYTES, "artifact name")?;
                let npoints = count(&mut d, "elements batch")?;
                let ndims = modes(&mut d, "elements request")?;
                Request::Elements {
                    name,
                    ndims: ndims as u32,
                    points: d.u64s(npoints * ndims)?,
                }
            }
            OP_STATS => Request::Stats,
            OP_METRICS => Request::Metrics,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response payload (no frame prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the response as one frame, refusing payloads over
    /// [`MAX_RESPONSE_FRAME`].
    pub(crate) fn frame(&self) -> Result<Vec<u8>, NetError> {
        encode_with(MAX_RESPONSE_FRAME, |out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Open(h) => {
                out.push(RESP_OPEN);
                (h.dims.len() as u32).encode(out);
                put_words(out, h.dims.iter().chain(&h.ranks).copied());
                out.push(h.codec.id());
                h.eps.encode(out);
                h.quant_error_bound.encode(out);
                h.chunk_count.encode(out);
                h.file_bytes.encode(out);
            }
            Response::List(items) => {
                out.push(RESP_LIST);
                (items.len() as u32).encode(out);
                for item in items {
                    put_str(out, &item.name);
                    out.push(u8::from(item.opened));
                }
            }
            Response::Tensor { dims, data } => {
                out.push(RESP_TENSOR);
                (dims.len() as u32).encode(out);
                put_words(out, dims.iter().copied());
                put_words(out, data.iter().map(|v| v.to_bits()));
            }
            Response::Scalar(v) => {
                out.push(RESP_SCALAR);
                v.encode(out);
            }
            Response::Vector(vs) => {
                out.push(RESP_VECTOR);
                (vs.len() as u32).encode(out);
                put_words(out, vs.iter().map(|v| v.to_bits()));
            }
            Response::Stats(s) => {
                out.push(RESP_STATS);
                let counters = [
                    s.served,
                    s.busy_rejections,
                    s.shed_sessions,
                    s.protocol_errors,
                    s.in_flight,
                ];
                put_words(out, counters.into_iter());
                (s.artifacts.len() as u32).encode(out);
                for a in &s.artifacts {
                    put_str(out, &a.name);
                    put_words(
                        out,
                        [a.decoded_chunks, a.cache_hits, a.resident_chunks].into_iter(),
                    );
                }
            }
            Response::Metrics(text) => {
                out.push(RESP_METRICS);
                put_str(out, text);
            }
            Response::Err {
                code,
                in_flight,
                message,
            } => {
                out.push(RESP_ERR);
                out.push(*code);
                in_flight.encode(out);
                put_str(out, message);
            }
        }
    }

    /// Decodes a response payload with the same defensive posture as
    /// [`Request::decode`]; a `Tensor` additionally requires its declared
    /// dims product to match the values actually present (overflow-checked).
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut d = WireReader::new(payload);
        let resp = match d.u8()? {
            RESP_OPEN => {
                let n = modes(&mut d, "header summary")?;
                let dims = d.u64s(n)?;
                let ranks = d.u64s(n)?;
                let codec_id = d.u8()?;
                let codec = Codec::try_from_id(codec_id).map_err(|_| {
                    ProtocolError::Malformed(format!("unknown codec id {codec_id}"))
                })?;
                Response::Open(RemoteHeader {
                    dims,
                    ranks,
                    codec,
                    eps: d.f64()?,
                    quant_error_bound: d.f64()?,
                    chunk_count: d.u64()?,
                    file_bytes: d.u64()?,
                })
            }
            RESP_LIST => {
                let n = count(&mut d, "artifact listing")?;
                let mut items = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    items.push(ArtifactInfo {
                        name: d.str32(MAX_NAME_BYTES, "artifact name")?,
                        opened: d.u8()? != 0,
                    });
                }
                Response::List(items)
            }
            RESP_TENSOR => {
                let n = modes(&mut d, "tensor response")?;
                let dims = d.u64s(n)?;
                let count = dims
                    .iter()
                    .try_fold(1u64, |acc, &dim| acc.checked_mul(dim))
                    .and_then(|c| usize::try_from(c).ok())
                    .ok_or_else(|| {
                        ProtocolError::Malformed("tensor dims product overflows".into())
                    })?;
                let data = d.f64s(count)?;
                Response::Tensor { dims, data }
            }
            RESP_SCALAR => Response::Scalar(d.f64()?),
            RESP_VECTOR => {
                let n = count(&mut d, "vector")?;
                Response::Vector(d.f64s(n)?)
            }
            RESP_STATS => {
                let served = d.u64()?;
                let busy_rejections = d.u64()?;
                let shed_sessions = d.u64()?;
                let protocol_errors = d.u64()?;
                let in_flight = d.u64()?;
                let n = count(&mut d, "stats listing")?;
                let mut artifacts = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    artifacts.push(ArtifactStats {
                        name: d.str32(MAX_NAME_BYTES, "artifact name")?,
                        decoded_chunks: d.u64()?,
                        cache_hits: d.u64()?,
                        resident_chunks: d.u64()?,
                    });
                }
                Response::Stats(ServeStats {
                    served,
                    busy_rejections,
                    shed_sessions,
                    protocol_errors,
                    in_flight,
                    artifacts,
                })
            }
            RESP_METRICS => Response::Metrics(d.str32(MAX_METRICS_BYTES, "metrics exposition")?),
            RESP_ERR => Response::Err {
                code: d.u8()?,
                in_flight: d.u64()?,
                message: d.str32(MAX_MESSAGE_BYTES, "error message")?,
            },
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode();
        assert!(payload.len() <= MAX_REQUEST_FRAME as usize);
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Open { name: "sp".into() });
        round_trip_request(Request::List);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::ReconstructRange {
            name: "field".into(),
            ranges: vec![(0, 4), (2, 3), (10, 2)],
        });
        round_trip_request(Request::ReconstructSlice {
            name: "field".into(),
            mode: 2,
            index: 7,
        });
        round_trip_request(Request::Element {
            name: "x".into(),
            idx: vec![1, 2, 3],
        });
        round_trip_request(Request::Elements {
            name: "x".into(),
            ndims: 3,
            points: vec![0, 0, 0, 1, 2, 3],
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Open(RemoteHeader {
            dims: vec![16, 12, 10],
            ranks: vec![4, 4, 3],
            codec: Codec::F32,
            eps: 1e-4,
            quant_error_bound: 0.0,
            chunk_count: 10,
            file_bytes: 12345,
        }));
        round_trip_response(Response::List(vec![
            ArtifactInfo {
                name: "a".into(),
                opened: true,
            },
            ArtifactInfo {
                name: "b".into(),
                opened: false,
            },
        ]));
        round_trip_response(Response::Tensor {
            dims: vec![2, 3],
            data: vec![1.0, -2.5, 0.0, f64::MIN_POSITIVE, 4.0, 5.0],
        });
        round_trip_response(Response::Scalar(-0.25));
        round_trip_response(Response::Vector(vec![1.0, 2.0, 3.0]));
        round_trip_response(Response::Stats(ServeStats {
            served: 10,
            busy_rejections: 2,
            shed_sessions: 4,
            protocol_errors: 1,
            in_flight: 3,
            artifacts: vec![ArtifactStats {
                name: "a".into(),
                decoded_chunks: 5,
                cache_hits: 7,
                resident_chunks: 4,
            }],
        }));
        round_trip_response(Response::Metrics(
            "counter serve.requests 3\nhist serve.op.list.us count=3 sum_us=12 p50=4 p99=8\n"
                .into(),
        ));
        round_trip_response(Response::Err {
            code: ERR_BUSY,
            in_flight: 8,
            message: "at capacity".into(),
        });
    }

    #[test]
    fn oversized_metrics_exposition_is_rejected() {
        let mut bad = vec![RESP_METRICS];
        bad.extend_from_slice(&(MAX_METRICS_BYTES as u32 + 1).to_le_bytes());
        assert!(Response::decode(&bad).is_err());
    }

    #[test]
    fn unknown_opcodes_are_typed() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(ProtocolError::UnknownOpcode(0x7F))
        ));
        assert!(matches!(
            Response::decode(&[0x00]),
            Err(ProtocolError::UnknownOpcode(0x00))
        ));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        // Truncated: an Open frame whose name length runs past the bytes.
        let mut bad = vec![OP_OPEN];
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(b"abc");
        assert!(Request::decode(&bad).is_err());
        // Trailing: a valid List with junk after it.
        assert!(Request::decode(&[OP_LIST, 0xAA]).is_err());
        // Empty payload.
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn caps_are_enforced() {
        // An absurd mode count must be rejected before any allocation.
        let mut bad = vec![OP_RANGE];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(b'x');
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&bad).is_err());
        // A batch beyond MAX_POINTS likewise.
        let mut bad = vec![OP_ELEMENTS];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(b'x');
        bad.extend_from_slice(&(MAX_POINTS as u32 + 1).to_le_bytes());
        bad.extend_from_slice(&3u32.to_le_bytes());
        assert!(Request::decode(&bad).is_err());
        // A tensor response whose dims product overflows u64.
        let mut bad = vec![RESP_TENSOR];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(&bad).is_err());
        // A name longer than the cap.
        let mut bad = vec![OP_OPEN];
        bad.extend_from_slice(&(MAX_NAME_BYTES as u32 + 1).to_le_bytes());
        bad.extend_from_slice(&vec![b'n'; MAX_NAME_BYTES + 1]);
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut bad = vec![OP_OPEN];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Request::decode(&bad),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
