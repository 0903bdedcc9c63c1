//! Input validation and the typed errors of the fallible (`try_*`) API.
//!
//! Every `try_*` entry point of this crate — [`try_dist_st_hosvd_ctx`]
//! (which [`try_st_hosvd_ctx`], [`try_dist_hooi_ctx`] and [`try_hooi_ctx`]
//! all run) and [`try_st_hosvd_streaming_ctx`] — runs the validators below
//! *before* touching a kernel, so malformed input (an empty shape, a
//! zero-length mode, fixed ranks exceeding the mode dimensions, a mode order
//! that is not a permutation, a processor grid finer than the tensor)
//! surfaces as a [`CoreError`] instead of a panic deep inside a GEMM. The
//! panicking names (`st_hosvd`, `dist_st_hosvd`, `hooi`, …) are thin
//! wrappers over the `try_*` forms that panic with the same diagnostic, so
//! the two surfaces can never drift apart.
//!
//! This module is covered by the CI panic-grep gate: no `panic!`, `unwrap`,
//! `expect`, or `assert` may appear here — every failure is a returned value.
//!
//! [`try_st_hosvd_ctx`]: crate::sthosvd::try_st_hosvd_ctx
//! [`try_hooi_ctx`]: crate::hooi::try_hooi_ctx
//! [`try_st_hosvd_streaming_ctx`]: crate::streaming::try_st_hosvd_streaming_ctx
//! [`try_dist_st_hosvd_ctx`]: crate::dist::try_dist_st_hosvd_ctx
//! [`try_dist_hooi_ctx`]: crate::dist::try_dist_hooi_ctx

use crate::ordering::ModeOrder;
use crate::rank::RankSelection;
use std::fmt;

/// A structurally invalid tensor shape or mode ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// The tensor has no modes at all (`dims == []`).
    EmptyShape,
    /// One of the modes has extent zero.
    ZeroDim {
        /// The offending mode.
        mode: usize,
    },
    /// The operation needs more modes than the tensor has (e.g. the
    /// streaming driver needs at least two).
    TooFewModes {
        /// Minimum number of modes required.
        need: usize,
        /// Number of modes of the input.
        got: usize,
    },
    /// A custom mode order that is not a permutation of `0..ndims`.
    InvalidModeOrder {
        /// The offending order, as given.
        order: Vec<usize>,
        /// Number of modes of the input.
        ndims: usize,
    },
    /// A streaming run whose resolved mode order does not process the
    /// streaming (last) mode last — its Gram couples every pair of slabs,
    /// so it can only be handled once the other modes shrank the tensor
    /// into memory.
    StreamingOrderNotLast {
        /// The resolved processing order.
        order: Vec<usize>,
        /// The streaming mode (always `ndims - 1`).
        last: usize,
    },
    /// A processor grid whose order disagrees with the tensor's.
    GridArity {
        /// Number of modes of the grid.
        grid: usize,
        /// Number of modes of the tensor.
        tensor: usize,
    },
    /// A processor grid with more processes than elements along a mode.
    GridExceedsDim {
        /// The offending mode.
        mode: usize,
        /// Grid extent in that mode.
        procs: usize,
        /// Tensor extent in that mode.
        dim: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::EmptyShape => write!(f, "tensor shape is empty (0 modes)"),
            ShapeError::ZeroDim { mode } => write!(f, "mode {mode} has extent 0"),
            ShapeError::TooFewModes { need, got } => {
                write!(f, "need at least {need} modes, got {got}")
            }
            ShapeError::InvalidModeOrder { order, ndims } => {
                write!(f, "mode order {order:?} is not a permutation of 0..{ndims}")
            }
            ShapeError::StreamingOrderNotLast { order, last } => write!(
                f,
                "streaming requires the last mode ({last}) to be processed last, \
                 but the resolved order is {order:?}"
            ),
            ShapeError::GridArity { grid, tensor } => {
                write!(f, "processor grid has {grid} modes, tensor has {tensor}")
            }
            ShapeError::GridExceedsDim { mode, procs, dim } => write!(
                f,
                "processor grid has {procs} processes along mode {mode}, \
                 but the tensor extent there is only {dim}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// An invalid rank selection or tolerance.
#[derive(Debug, Clone, PartialEq)]
pub enum RankError {
    /// A per-mode rank (or cap) list whose length disagrees with the number
    /// of tensor modes.
    Arity {
        /// Number of modes of the input.
        expected: usize,
        /// Number of entries in the rank list.
        got: usize,
    },
    /// A requested rank of zero.
    ZeroRank {
        /// The offending mode.
        mode: usize,
    },
    /// A fixed rank larger than the mode's extent — there are not enough
    /// eigenvectors to fill the factor.
    ExceedsDim {
        /// The offending mode.
        mode: usize,
        /// The requested rank.
        rank: usize,
        /// The mode's extent.
        dim: usize,
    },
    /// A tolerance that is negative, NaN, or infinite.
    BadTolerance {
        /// The offending value.
        eps: f64,
    },
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::Arity { expected, got } => {
                write!(
                    f,
                    "rank list has {got} entries for a {expected}-mode tensor"
                )
            }
            RankError::ZeroRank { mode } => write!(f, "requested rank 0 in mode {mode}"),
            RankError::ExceedsDim { mode, rank, dim } => write!(
                f,
                "requested rank {rank} exceeds the extent {dim} of mode {mode}"
            ),
            RankError::BadTolerance { eps } => {
                write!(f, "tolerance {eps} is not a finite non-negative number")
            }
        }
    }
}

impl std::error::Error for RankError {}

/// Why a `try_*` decomposition entry point rejected its input.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The tensor shape or mode ordering is invalid.
    Shape(ShapeError),
    /// The rank selection or tolerance is invalid.
    Rank(RankError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Shape(e) => write!(f, "{e}"),
            CoreError::Rank(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Shape(e) => Some(e),
            CoreError::Rank(e) => Some(e),
        }
    }
}

impl From<ShapeError> for CoreError {
    fn from(e: ShapeError) -> Self {
        CoreError::Shape(e)
    }
}

impl From<RankError> for CoreError {
    fn from(e: RankError) -> Self {
        CoreError::Rank(e)
    }
}

/// Validates that `dims` names a non-degenerate tensor: at least one mode,
/// every mode of positive extent.
pub fn validate_shape(dims: &[usize]) -> Result<(), ShapeError> {
    if dims.is_empty() {
        return Err(ShapeError::EmptyShape);
    }
    for (mode, &d) in dims.iter().enumerate() {
        if d == 0 {
            return Err(ShapeError::ZeroDim { mode });
        }
    }
    Ok(())
}

/// Validates a [`ModeOrder`] against the number of modes (a custom order
/// must be a permutation of `0..ndims`; every strategy is fine).
pub fn validate_mode_order(order: &ModeOrder, ndims: usize) -> Result<(), ShapeError> {
    if let ModeOrder::Custom(order) = order {
        let mut seen = vec![false; ndims];
        if order.len() != ndims {
            return Err(ShapeError::InvalidModeOrder {
                order: order.clone(),
                ndims,
            });
        }
        for &m in order {
            if m >= ndims || seen[m] {
                return Err(ShapeError::InvalidModeOrder {
                    order: order.clone(),
                    ndims,
                });
            }
            seen[m] = true;
        }
    }
    Ok(())
}

/// Validates a [`RankSelection`] against the tensor dims: fixed ranks must
/// name one positive rank per mode, none exceeding the mode's extent;
/// tolerances must be finite and non-negative; caps must be positive and
/// cover every mode.
pub fn validate_rank_selection(sel: &RankSelection, dims: &[usize]) -> Result<(), RankError> {
    let check_eps = |eps: f64| -> Result<(), RankError> {
        if !eps.is_finite() || eps < 0.0 {
            return Err(RankError::BadTolerance { eps });
        }
        Ok(())
    };
    match sel {
        RankSelection::Fixed(ranks) => {
            if ranks.len() != dims.len() {
                return Err(RankError::Arity {
                    expected: dims.len(),
                    got: ranks.len(),
                });
            }
            for (mode, (&r, &d)) in ranks.iter().zip(dims.iter()).enumerate() {
                if r == 0 {
                    return Err(RankError::ZeroRank { mode });
                }
                if r > d {
                    return Err(RankError::ExceedsDim {
                        mode,
                        rank: r,
                        dim: d,
                    });
                }
            }
            Ok(())
        }
        RankSelection::Tolerance(eps) => check_eps(*eps),
        RankSelection::ToleranceWithMax(eps, caps) => {
            check_eps(*eps)?;
            if caps.len() != dims.len() {
                return Err(RankError::Arity {
                    expected: dims.len(),
                    got: caps.len(),
                });
            }
            for (mode, &c) in caps.iter().enumerate() {
                if c == 0 {
                    return Err(RankError::ZeroRank { mode });
                }
            }
            Ok(())
        }
    }
}

/// Validates a processor grid against the tensor dims: matching order, and
/// no mode with more processes than elements (some ranks would own empty
/// blocks). Shared by the distributed `try_*` entry points and the
/// `tucker-api` planner, so their failure taxonomy cannot diverge.
pub fn validate_grid(dims: &[usize], grid_dims: &[usize]) -> Result<(), ShapeError> {
    if grid_dims.len() != dims.len() {
        return Err(ShapeError::GridArity {
            grid: grid_dims.len(),
            tensor: dims.len(),
        });
    }
    for (mode, (&procs, &dim)) in grid_dims.iter().zip(dims.iter()).enumerate() {
        if procs > dim {
            return Err(ShapeError::GridExceedsDim { mode, procs, dim });
        }
    }
    Ok(())
}

/// The rank hint the drivers feed to greedy mode orderings: the fixed ranks
/// when available, otherwise the dimensions themselves.
pub(crate) fn rank_hint(sel: &RankSelection, dims: &[usize]) -> Vec<usize> {
    match sel {
        RankSelection::Fixed(r) | RankSelection::ToleranceWithMax(_, r) => r.clone(),
        RankSelection::Tolerance(_) => dims.to_vec(),
    }
}

/// Shared validation of the in-memory ST-HOSVD / HOOI inputs: shape, mode
/// order, and rank selection.
pub fn validate_sthosvd_inputs(
    dims: &[usize],
    opts: &crate::sthosvd::SthosvdOptions,
) -> Result<(), CoreError> {
    validate_shape(dims)?;
    validate_mode_order(&opts.order, dims.len())?;
    validate_rank_selection(&opts.rank, dims)?;
    Ok(())
}

/// Validation of the streaming ST-HOSVD inputs: everything
/// [`validate_sthosvd_inputs`] checks, plus at least two modes and a
/// resolved processing order that ends with the streaming (last) mode.
pub fn validate_streaming_inputs(
    dims: &[usize],
    opts: &crate::sthosvd::SthosvdOptions,
) -> Result<(), CoreError> {
    validate_sthosvd_inputs(dims, opts)?;
    if dims.len() < 2 {
        return Err(ShapeError::TooFewModes {
            need: 2,
            got: dims.len(),
        }
        .into());
    }
    let last = dims.len() - 1;
    let order = opts.order.resolve(dims, &rank_hint(&opts.rank, dims));
    if order.last() != Some(&last) {
        return Err(ShapeError::StreamingOrderNotLast { order, last }.into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::SthosvdOptions;

    #[test]
    fn shape_validation() {
        assert_eq!(validate_shape(&[]), Err(ShapeError::EmptyShape));
        assert_eq!(
            validate_shape(&[3, 0, 2]),
            Err(ShapeError::ZeroDim { mode: 1 })
        );
        assert!(validate_shape(&[3, 2]).is_ok());
    }

    #[test]
    fn mode_order_validation() {
        assert!(validate_mode_order(&ModeOrder::Natural, 3).is_ok());
        assert!(validate_mode_order(&ModeOrder::Custom(vec![2, 0, 1]), 3).is_ok());
        for bad in [vec![0, 0, 1], vec![0, 1, 3], vec![0, 1]] {
            assert!(matches!(
                validate_mode_order(&ModeOrder::Custom(bad), 3),
                Err(ShapeError::InvalidModeOrder { .. })
            ));
        }
    }

    #[test]
    fn rank_validation() {
        let dims = [4usize, 5];
        assert!(validate_rank_selection(&RankSelection::Fixed(vec![4, 5]), &dims).is_ok());
        assert_eq!(
            validate_rank_selection(&RankSelection::Fixed(vec![4]), &dims),
            Err(RankError::Arity {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            validate_rank_selection(&RankSelection::Fixed(vec![4, 0]), &dims),
            Err(RankError::ZeroRank { mode: 1 })
        );
        assert_eq!(
            validate_rank_selection(&RankSelection::Fixed(vec![5, 5]), &dims),
            Err(RankError::ExceedsDim {
                mode: 0,
                rank: 5,
                dim: 4
            })
        );
        assert!(validate_rank_selection(&RankSelection::Tolerance(1e-3), &dims).is_ok());
        for bad in [-1e-3, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                validate_rank_selection(&RankSelection::Tolerance(bad), &dims),
                Err(RankError::BadTolerance { .. })
            ));
        }
        assert!(
            validate_rank_selection(&RankSelection::ToleranceWithMax(1e-3, vec![2, 9]), &dims)
                .is_ok(),
            "caps above the dims are caps, not requests — allowed"
        );
    }

    #[test]
    fn streaming_validation() {
        let opts = SthosvdOptions::with_tolerance(0.1);
        assert!(validate_streaming_inputs(&[4, 5, 6], &opts).is_ok());
        assert!(matches!(
            validate_streaming_inputs(&[4], &opts),
            Err(CoreError::Shape(ShapeError::TooFewModes { .. }))
        ));
        let bad = SthosvdOptions::with_tolerance(0.1).order(ModeOrder::Custom(vec![2, 1, 0]));
        assert!(matches!(
            validate_streaming_inputs(&[4, 5, 6], &bad),
            Err(CoreError::Shape(ShapeError::StreamingOrderNotLast { .. }))
        ));
        // SmallestFirst on a shape whose last mode is smallest: rejected.
        let sf = SthosvdOptions::with_tolerance(0.1).order(ModeOrder::SmallestFirst);
        assert!(matches!(
            validate_streaming_inputs(&[4, 5, 3], &sf),
            Err(CoreError::Shape(ShapeError::StreamingOrderNotLast { .. }))
        ));
        assert!(validate_streaming_inputs(&[4, 3, 5], &sf).is_ok());
    }

    #[test]
    fn errors_display_and_chain() {
        let e = CoreError::from(RankError::ExceedsDim {
            mode: 2,
            rank: 9,
            dim: 4,
        });
        assert!(format!("{e}").contains("mode 2"));
        assert!(std::error::Error::source(&e).is_some());
        let s = CoreError::from(ShapeError::EmptyShape);
        assert!(format!("{s}").contains("0 modes"));
    }
}
