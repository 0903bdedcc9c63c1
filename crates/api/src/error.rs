//! [`TuckerError`] — the one error type of the public facade.
//!
//! Every fallible operation reachable through `tucker-api` funnels into this
//! hierarchy, with `From` conversions from every constituent crate's error
//! types, so callers can `?` their way through a whole compress–store–query
//! pipeline with a single error type:
//!
//! | variant | source | typical cause |
//! |---|---|---|
//! | [`TuckerError::Shape`]  | `tucker_core::validate::ShapeError`  | empty/zero-extent shape, bad mode order, bad grid |
//! | [`TuckerError::Rank`]   | `tucker_core::validate::RankError`   | ranks exceeding dims, bad tolerance |
//! | [`TuckerError::Codec`]  | `tucker_store::CodecError`           | unknown codec id |
//! | [`TuckerError::Format`] | `tucker_store::FormatError`          | container-contract violations, corrupt or truncated artifacts |
//! | [`TuckerError::Query`]  | `tucker_store::QueryError`           | out-of-range reconstruction requests |
//! | [`TuckerError::Slab`]   | `tucker_tensor::SlabRangeError`      | last-mode slab windows outside the tensor |
//! | [`TuckerError::Plan`]   | this crate                           | an unsatisfiable [`Compressor`](crate::Compressor) or [`Open`](crate::Open) configuration (no target, refine-on-streaming, zero cache) |
//! | [`TuckerError::Protocol`] | this crate                         | malformed service frames (either side of the `tucker-serve` wire) |
//! | [`TuckerError::Busy`]   | `tucker-serve`                       | a service rejecting a request at its admission cap |
//! | [`TuckerError::Io`]     | `std::io::Error`                     | filesystem failures (not found, permission, a full disk) |

use std::fmt;
use std::io;
use tucker_core::validate::{CoreError, RankError, ShapeError};
use tucker_store::{CodecError, FormatError, QueryError, StoreError};
use tucker_tensor::SlabRangeError;

/// Why a [`Compressor`](crate::Compressor) configuration cannot be planned,
/// even though each individual setting is well-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Neither [`tolerance`](crate::Compressor::tolerance) nor
    /// [`ranks`](crate::Compressor::ranks) was set — the plan has no
    /// compression target.
    NoTarget,
    /// [`refine`](crate::Compressor::refine) on a streaming source: HOOI
    /// sweeps revisit the full tensor once per mode and iteration, which
    /// defeats the out-of-core contract. Materialize the source (or skip
    /// refinement).
    RefineNeedsResident,
    /// [`cache_chunks(0)`](crate::Open::cache_chunks): a lazy reader needs
    /// at least one resident chunk, and `0` does not mean "unbounded" — the
    /// facade rejects it on both backends.
    ZeroCacheChunks,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoTarget => write!(
                f,
                "no compression target: set .tolerance(eps) or .ranks(..) before planning"
            ),
            PlanError::RefineNeedsResident => write!(
                f,
                "HOOI refinement needs a resident tensor; streaming sources cannot be refined"
            ),
            PlanError::ZeroCacheChunks => write!(
                f,
                "cache_chunks(0): a lazy reader needs at least one resident chunk"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A violation of the `tucker-serve` wire protocol, on either side of the
/// connection: the daemon answering a malformed request, or the client
/// refusing a malformed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A frame length prefix of zero or beyond the side's frame cap.
    FrameLength {
        /// The declared payload length.
        len: u64,
        /// The receiving side's cap.
        max: u64,
    },
    /// The connection ended mid-frame (or before an expected response).
    Truncated,
    /// A frame starting with an opcode this side does not know.
    UnknownOpcode(u8),
    /// A frame whose payload does not parse under its opcode.
    Malformed(String),
    /// The remote side reported a protocol violation of ours.
    Remote {
        /// The remote side's error code.
        code: u8,
        /// The remote side's diagnostic message.
        message: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameLength { len, max } => {
                write!(f, "frame length {len} outside the accepted range 1..={max}")
            }
            ProtocolError::Truncated => write!(f, "connection closed mid-frame"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ProtocolError::Remote { code, message } => {
                write!(f, "remote reported protocol error (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A body that fails the shared bounds-checked decoder
/// ([`tucker_distmem::WireReader`]) is a malformed frame.
impl From<tucker_distmem::WireError> for ProtocolError {
    fn from(e: tucker_distmem::WireError) -> Self {
        ProtocolError::Malformed(e.detail)
    }
}

/// The workspace-wide error hierarchy of the public facade.
#[derive(Debug)]
pub enum TuckerError {
    /// A structurally invalid tensor shape, mode ordering, or grid.
    Shape(ShapeError),
    /// An invalid rank selection or tolerance.
    Rank(RankError),
    /// An invalid or unsupported value encoding.
    Codec(CodecError),
    /// A `.tkr` container-contract violation or corrupt artifact.
    Format(FormatError),
    /// An out-of-range or malformed reconstruction query.
    Query(QueryError),
    /// A last-mode slab window outside the tensor (from the checked slab
    /// accessors of `tucker-tensor`).
    Slab(SlabRangeError),
    /// An unsatisfiable [`Compressor`](crate::Compressor) or
    /// [`Open`](crate::Open) configuration.
    Plan(PlanError),
    /// A malformed frame on the `tucker-serve` wire (either side).
    Protocol(ProtocolError),
    /// A `tucker-serve` daemon rejecting a request at its admission cap —
    /// transient backpressure; the request is safe to retry.
    Busy {
        /// Requests in flight when the admission cap rejected this one.
        in_flight: usize,
    },
    /// An IO failure.
    Io(io::Error),
}

impl fmt::Display for TuckerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuckerError::Shape(e) => write!(f, "shape error: {e}"),
            TuckerError::Rank(e) => write!(f, "rank error: {e}"),
            TuckerError::Codec(e) => write!(f, "codec error: {e}"),
            TuckerError::Format(e) => write!(f, "format error: {e}"),
            TuckerError::Query(e) => write!(f, "query error: {e}"),
            TuckerError::Slab(e) => write!(f, "slab error: {e}"),
            TuckerError::Plan(e) => write!(f, "plan error: {e}"),
            TuckerError::Protocol(e) => write!(f, "protocol error: {e}"),
            TuckerError::Busy { in_flight } => {
                write!(
                    f,
                    "service busy ({in_flight} requests in flight); retry later"
                )
            }
            TuckerError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TuckerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuckerError::Shape(e) => Some(e),
            TuckerError::Rank(e) => Some(e),
            TuckerError::Codec(e) => Some(e),
            TuckerError::Format(e) => Some(e),
            TuckerError::Query(e) => Some(e),
            TuckerError::Slab(e) => Some(e),
            TuckerError::Plan(e) => Some(e),
            TuckerError::Protocol(e) => Some(e),
            TuckerError::Busy { .. } => None,
            TuckerError::Io(e) => Some(e),
        }
    }
}

impl From<ShapeError> for TuckerError {
    fn from(e: ShapeError) -> Self {
        TuckerError::Shape(e)
    }
}

impl From<RankError> for TuckerError {
    fn from(e: RankError) -> Self {
        TuckerError::Rank(e)
    }
}

impl From<CoreError> for TuckerError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Shape(s) => TuckerError::Shape(s),
            CoreError::Rank(r) => TuckerError::Rank(r),
        }
    }
}

impl From<CodecError> for TuckerError {
    fn from(e: CodecError) -> Self {
        TuckerError::Codec(e)
    }
}

impl From<FormatError> for TuckerError {
    fn from(e: FormatError) -> Self {
        TuckerError::Format(e)
    }
}

impl From<StoreError> for TuckerError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Format(f) => TuckerError::Format(f),
            StoreError::Codec(c) => TuckerError::Codec(c),
            StoreError::Io(io) => TuckerError::Io(io),
        }
    }
}

impl From<QueryError> for TuckerError {
    fn from(e: QueryError) -> Self {
        TuckerError::Query(e)
    }
}

impl From<PlanError> for TuckerError {
    fn from(e: PlanError) -> Self {
        TuckerError::Plan(e)
    }
}

impl From<ProtocolError> for TuckerError {
    fn from(e: ProtocolError) -> Self {
        TuckerError::Protocol(e)
    }
}

impl From<io::Error> for TuckerError {
    fn from(e: io::Error) -> Self {
        TuckerError::Io(e)
    }
}

impl From<SlabRangeError> for TuckerError {
    fn from(e: SlabRangeError) -> Self {
        TuckerError::Slab(e)
    }
}
