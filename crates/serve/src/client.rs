//! [`ServeClient`] — the blocking client side of the `tucker-serve` wire.
//!
//! One client owns one connection and issues one request at a time (the
//! protocol has no pipelining). Responses are decoded with the same
//! defensive posture as the server decodes requests — a misbehaving or
//! malicious server produces a typed [`TuckerError`], never a panic, a
//! hang (reads are bounded by a configurable timeout), or an oversized
//! allocation.
//!
//! Server-reported errors map onto the facade hierarchy so service callers
//! handle exactly the error type local callers do:
//!
//! | wire code | [`TuckerError`] |
//! |---|---|
//! | `ERR_BUSY` | [`TuckerError::Busy`] (typed backpressure; retry) |
//! | `ERR_QUERY` | [`TuckerError::Query`] with [`QueryError::Remote`] |
//! | `ERR_UNKNOWN_ARTIFACT` | [`TuckerError::Query`] with [`QueryError::Remote`] |
//! | `ERR_PROTOCOL` | [`TuckerError::Protocol`] with [`ProtocolError::Remote`] |
//! | `ERR_OPEN` | [`TuckerError::Format`] ([`FormatError::Invalid`](tucker_store::FormatError::Invalid)) |
//! | `ERR_DEADLINE` | [`TuckerError::Io`] (`TimedOut`) |
//! | `ERR_SHUTTING_DOWN` | [`TuckerError::Io`] (`ConnectionAborted`) |
//! | `ERR_INTERNAL` | [`TuckerError::Io`] (`Other`) |

use crate::proto::{
    ArtifactInfo, RemoteHeader, Request, Response, ServeStats, ERR_BUSY, ERR_DEADLINE, ERR_OPEN,
    ERR_PROTOCOL, ERR_SHUTTING_DOWN, ERR_UNKNOWN_ARTIFACT, MAX_RESPONSE_FRAME,
};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tucker_api::{ProtocolError, TuckerError};
use tucker_net::frame::read_frame;
use tucker_net::NetError;
use tucker_store::QueryError;
use tucker_tensor::DenseTensor;

/// A blocking client connection to a `tucker-serve` daemon.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects with a 30-second default IO timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = ServeClient { stream };
        client.set_timeout(Some(Duration::from_secs(30)))?;
        Ok(client)
    }

    /// Sets the per-operation read/write timeout (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Opens (or re-validates) a registered artifact, returning its header
    /// summary.
    pub fn open(&mut self, name: &str) -> Result<RemoteHeader, TuckerError> {
        match self.rpc(&Request::Open {
            name: name.to_string(),
        })? {
            Response::Open(h) => Ok(h),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists the daemon's registered artifacts.
    pub fn list(&mut self) -> Result<Vec<ArtifactInfo>, TuckerError> {
        match self.rpc(&Request::List)? {
            Response::List(items) => Ok(items),
            other => Err(unexpected(&other)),
        }
    }

    /// Service counters plus per-artifact shared-cache accounting.
    pub fn stats(&mut self) -> Result<ServeStats, TuckerError> {
        match self.rpc(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// The daemon's whole `tucker-obs` metrics registry as a text
    /// exposition: one `counter`/`gauge`/`hist` line per instrument
    /// (sorted by name), followed by per-artifact cache gauges.
    pub fn metrics(&mut self) -> Result<String, TuckerError> {
        match self.rpc(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Reconstructs the window given by one `(start, len)` pair per mode.
    pub fn reconstruct_range(
        &mut self,
        name: &str,
        ranges: &[(usize, usize)],
    ) -> Result<DenseTensor, TuckerError> {
        let req = Request::ReconstructRange {
            name: name.to_string(),
            ranges: ranges.iter().map(|&(s, l)| (s as u64, l as u64)).collect(),
        };
        self.tensor_rpc(&req)
    }

    /// Reconstructs the hyperslice `index` of `mode`.
    pub fn reconstruct_slice(
        &mut self,
        name: &str,
        mode: usize,
        index: usize,
    ) -> Result<DenseTensor, TuckerError> {
        let req = Request::ReconstructSlice {
            name: name.to_string(),
            mode: mode as u64,
            index: index as u64,
        };
        self.tensor_rpc(&req)
    }

    /// Reconstructs a single element.
    pub fn element(&mut self, name: &str, idx: &[usize]) -> Result<f64, TuckerError> {
        let req = Request::Element {
            name: name.to_string(),
            idx: idx.iter().map(|&i| i as u64).collect(),
        };
        match self.rpc(&req)? {
            Response::Scalar(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Reconstructs a batch of elements (values in request order). An
    /// empty batch answers no values without a round trip, as the
    /// in-process readers do.
    pub fn elements(&mut self, name: &str, points: &[&[usize]]) -> Result<Vec<f64>, TuckerError> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let ndims = points.first().map_or(0, |p| p.len());
        if let Some(bad) = points.iter().find(|p| p.len() != ndims) {
            return Err(TuckerError::Query(QueryError::ModeCountMismatch {
                expected: ndims,
                got: bad.len(),
            }));
        }
        let req = Request::Elements {
            name: name.to_string(),
            ndims: ndims as u32,
            points: points
                .iter()
                .flat_map(|p| p.iter().map(|&i| i as u64))
                .collect(),
        };
        match self.rpc(&req)? {
            Response::Vector(vs) => {
                if vs.len() == points.len() {
                    Ok(vs)
                } else {
                    Err(TuckerError::Protocol(ProtocolError::Malformed(format!(
                        "server answered {} values for {} points",
                        vs.len(),
                        points.len()
                    ))))
                }
            }
            other => Err(unexpected(&other)),
        }
    }

    fn tensor_rpc(&mut self, req: &Request) -> Result<DenseTensor, TuckerError> {
        match self.rpc(req)? {
            Response::Tensor { dims, data } => {
                let dims: Vec<usize> = dims
                    .iter()
                    .map(|&d| usize::try_from(d).unwrap_or(usize::MAX))
                    .collect();
                // Response::decode already pinned data.len() to the checked
                // dims product, so from_vec cannot be handed a mismatch.
                Ok(DenseTensor::from_vec(&dims, data))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// One request/response exchange, fully validated.
    fn rpc(&mut self, req: &Request) -> Result<Response, TuckerError> {
        let frame = req.frame().map_err(frame_error)?;
        self.stream.write_all(&frame).map_err(TuckerError::Io)?;
        // The socket's timeout is final anywhere in the response frame.
        let payload = read_frame(&mut self.stream, MAX_RESPONSE_FRAME, Duration::ZERO, || {
            false
        })
        .map_err(frame_error)?;
        match Response::decode(&payload)? {
            Response::Err {
                code,
                in_flight,
                message,
            } => Err(remote_error(code, in_flight, message)),
            ok => Ok(ok),
        }
    }
}

/// Maps a failure of the frame layer onto the facade hierarchy: a server
/// vanishing mid-response is a protocol event (`Truncated`), a bad length
/// prefix is `FrameLength`, and a stall is an `Io` error of kind `TimedOut`.
fn frame_error(e: NetError) -> TuckerError {
    match e {
        NetError::Closed { .. } | NetError::Truncated { .. } => {
            TuckerError::Protocol(ProtocolError::Truncated)
        }
        NetError::FrameTooLarge { len, max } => {
            TuckerError::Protocol(ProtocolError::FrameLength { len, max })
        }
        NetError::Timeout { detail } => {
            TuckerError::Io(io::Error::new(io::ErrorKind::TimedOut, detail))
        }
        other => TuckerError::Io(io::Error::other(other.to_string())),
    }
}

fn unexpected(resp: &Response) -> TuckerError {
    let label = match resp {
        Response::Open(_) => "open summary",
        Response::List(_) => "listing",
        Response::Tensor { .. } => "tensor",
        Response::Scalar(_) => "scalar",
        Response::Vector(_) => "vector",
        Response::Stats(_) => "stats",
        Response::Metrics(_) => "metrics",
        Response::Err { .. } => "error",
    };
    TuckerError::Protocol(ProtocolError::Malformed(format!(
        "server answered with an unexpected {label} response"
    )))
}

/// Maps a wire error frame onto the facade hierarchy (see the module docs
/// for the table).
fn remote_error(code: u8, in_flight: u64, message: String) -> TuckerError {
    match code {
        ERR_BUSY => TuckerError::Busy {
            in_flight: usize::try_from(in_flight).unwrap_or(usize::MAX),
        },
        ERR_PROTOCOL => TuckerError::Protocol(ProtocolError::Remote { code, message }),
        ERR_OPEN => TuckerError::Format(tucker_store::FormatError::Invalid(message)),
        ERR_DEADLINE => TuckerError::Io(io::Error::new(io::ErrorKind::TimedOut, message)),
        ERR_SHUTTING_DOWN => {
            TuckerError::Io(io::Error::new(io::ErrorKind::ConnectionAborted, message))
        }
        ERR_UNKNOWN_ARTIFACT => TuckerError::Query(QueryError::Remote { message }),
        // ERR_QUERY and any future codes degrade to a remote query error so
        // old clients survive new servers.
        _ => TuckerError::Query(QueryError::Remote { message }),
    }
}
