//! Collective operations over a [`SubCommunicator`] group.
//!
//! The algorithms mirror the standard implementations whose costs the paper
//! quotes in Tab. I (following Chan et al. and Thakur et al.):
//!
//! * **broadcast** — binomial tree: `⌈log₂ P⌉` rounds.
//! * **reduce** — binomial tree (mirror of broadcast): `⌈log₂ P⌉` rounds,
//!   `α log P + (β + γ)·(P−1)/P·W` in the model.
//! * **all-gather** — ring: `P − 1` steps, bandwidth-optimal `β·(P−1)/P·W`.
//! * **reduce-scatter** — ring: `P − 1` steps, bandwidth-optimal.
//! * **all-reduce** — reduce-scatter followed by all-gather (Rabenseifner),
//!   matching the Tab. I cost `2α log P + (2β + γ)·(P−1)/P·W`.
//!
//! All reductions are elementwise sums over `f64`, the only reduction the
//! Tucker algorithms need.
//!
//! Every public collective records its wall-clock latency in a process-wide
//! `tucker-obs` histogram (`distmem.<collective>.us`). The collectives are
//! transport-agnostic, so on the in-process backend these histograms measure
//! channel/switching overhead, while on the TCP backend they are the paper's
//! per-collective α-β terms measured against *real sockets* — the
//! `table7_transport` gate prints them side by side.

use crate::subcomm::SubCommunicator;
use tucker_obs::metrics::Histogram;

static BROADCAST_US: Histogram = Histogram::new("distmem.broadcast.us");
static REDUCE_US: Histogram = Histogram::new("distmem.reduce.us");
static ALL_GATHER_US: Histogram = Histogram::new("distmem.all_gather.us");
static REDUCE_SCATTER_US: Histogram = Histogram::new("distmem.reduce_scatter.us");
static ALL_REDUCE_US: Histogram = Histogram::new("distmem.all_reduce.us");
static GATHER_US: Histogram = Histogram::new("distmem.gather.us");
static SCATTER_US: Histogram = Histogram::new("distmem.scatter.us");

/// Runs `f`, recording its wall-clock latency in `hist`.
fn timed<T>(hist: &Histogram, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    hist.observe(t0.elapsed());
    out
}

/// Broadcasts `data` from group position `root` to all members; every member
/// returns the full buffer.
pub fn broadcast(group: &SubCommunicator<'_>, root: usize, data: &[f64]) -> Vec<f64> {
    timed(&BROADCAST_US, || broadcast_inner(group, root, data))
}

fn broadcast_inner(group: &SubCommunicator<'_>, root: usize, data: &[f64]) -> Vec<f64> {
    group.note_collective();
    let p = group.size();
    assert!(root < p, "broadcast: root {root} out of range");
    if p == 1 {
        return data.to_vec();
    }
    // Re-index positions so that the root is virtual rank 0.
    let me = (group.pos() + p - root) % p;
    let mut buf: Option<Vec<f64>> = if group.pos() == root {
        Some(data.to_vec())
    } else {
        None
    };
    // Binomial tree: in round k (mask = 2^k), ranks < mask with a partner
    // (me + mask < p) send to me + mask.
    let mut mask = 1usize;
    while mask < p {
        if me < mask {
            let partner = me + mask;
            if partner < p {
                let dst = (partner + root) % p;
                group.send(dst, buf.as_ref().expect("broadcast: sender without data"));
            }
        } else if me < 2 * mask {
            let partner = me - mask;
            let src = (partner + root) % p;
            buf = Some(group.recv(src));
        }
        mask <<= 1;
    }
    buf.expect("broadcast: rank never received data")
}

/// Reduces (elementwise sum) the equal-length buffers of all members onto the
/// member at group position `root`. The root returns the sum; other members
/// return `None`.
pub fn reduce(group: &SubCommunicator<'_>, root: usize, data: &[f64]) -> Option<Vec<f64>> {
    timed(&REDUCE_US, || reduce_inner(group, root, data))
}

fn reduce_inner(group: &SubCommunicator<'_>, root: usize, data: &[f64]) -> Option<Vec<f64>> {
    group.note_collective();
    let p = group.size();
    assert!(root < p, "reduce: root {root} out of range");
    if p == 1 {
        return Some(data.to_vec());
    }
    let me = (group.pos() + p - root) % p;
    let mut acc = data.to_vec();
    // Reverse binomial tree: in the last broadcast round senders become receivers.
    // Find the highest power of two ≥ p.
    let mut mask = 1usize;
    while mask < p {
        mask <<= 1;
    }
    mask >>= 1;
    while mask >= 1 {
        if me < mask {
            let partner = me + mask;
            if partner < p {
                let src = (partner + root) % p;
                let incoming = group.recv(src);
                assert_eq!(
                    incoming.len(),
                    acc.len(),
                    "reduce: buffer length mismatch between members"
                );
                for (a, b) in acc.iter_mut().zip(incoming.iter()) {
                    *a += b;
                }
            }
        } else if me < 2 * mask {
            let partner = me - mask;
            let dst = (partner + root) % p;
            group.send(dst, &acc);
            return None;
        }
        mask >>= 1;
    }
    Some(acc)
}

/// Splits `total` elements into `parts` near-equal contiguous chunks; returns
/// the `(offset, len)` of chunk `idx`. Shared by the ring collectives.
fn chunk_range(total: usize, parts: usize, idx: usize) -> (usize, usize) {
    let base = total / parts;
    let rem = total % parts;
    let len = base + usize::from(idx < rem);
    let off = idx * base + idx.min(rem);
    (off, len)
}

/// Ring all-gather: every member contributes `data` and receives the
/// concatenation of all contributions in group order.
pub fn all_gather(group: &SubCommunicator<'_>, data: &[f64]) -> Vec<f64> {
    timed(&ALL_GATHER_US, || all_gather_inner(group, data))
}

fn all_gather_inner(group: &SubCommunicator<'_>, data: &[f64]) -> Vec<f64> {
    group.note_collective();
    let p = group.size();
    if p == 1 {
        return data.to_vec();
    }
    // Gather the (possibly unequal) lengths first so offsets are known.
    let lengths = all_gather_lengths(group, data.len());
    let total: usize = lengths.iter().sum();
    let offsets: Vec<usize> = lengths
        .iter()
        .scan(0usize, |acc, &l| {
            let o = *acc;
            *acc += l;
            Some(o)
        })
        .collect();

    let mut out = vec![0.0f64; total];
    let me = group.pos();
    out[offsets[me]..offsets[me] + lengths[me]].copy_from_slice(data);

    // Ring: in step s, send the chunk originating at (me - s) to the right
    // neighbour and receive the chunk originating at (me - s - 1) from the left.
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_owner = (me + p - s) % p;
        let recv_owner = (me + p - s - 1) % p;
        let send_chunk = &out[offsets[send_owner]..offsets[send_owner] + lengths[send_owner]];
        let received = group.sendrecv(right, send_chunk, left);
        assert_eq!(received.len(), lengths[recv_owner]);
        out[offsets[recv_owner]..offsets[recv_owner] + lengths[recv_owner]]
            .copy_from_slice(&received);
    }
    out
}

/// Exchanges a single `usize` (encoded as `f64`) around the group so every
/// member knows every member's buffer length.
fn all_gather_lengths(group: &SubCommunicator<'_>, len: usize) -> Vec<usize> {
    let p = group.size();
    let me = group.pos();
    let mut lengths = vec![0usize; p];
    lengths[me] = len;
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_owner = (me + p - s) % p;
        let recv_owner = (me + p - s - 1) % p;
        let received = group.sendrecv(right, &[lengths[send_owner] as f64], left);
        lengths[recv_owner] = received[0] as usize;
    }
    lengths
}

/// Ring reduce-scatter: the elementwise sum of all members' equal-length
/// buffers is computed, and member `i` returns the `i`-th near-equal contiguous
/// chunk of the sum.
pub fn reduce_scatter(group: &SubCommunicator<'_>, data: &[f64]) -> Vec<f64> {
    let p = group.size();
    let counts: Vec<usize> = (0..p).map(|i| chunk_range(data.len(), p, i).1).collect();
    reduce_scatter_blocks(group, data.to_vec(), &counts)
}

/// Ring reduce-scatter with caller-specified chunk boundaries: the elementwise
/// sum of all members' equal-length buffers is computed, and member `i`
/// returns the contiguous chunk of `counts[i]` elements starting at
/// `counts[..i].sum()`. This is the "mode-aware" variant used by the parallel
/// TTM (Alg. 3), where the chunks are the mode-`n` tensor blocks owned by each
/// member of a processor column and therefore not near-equal in general.
///
/// The buffer is taken by value: partial sums accumulate in it, outgoing
/// chunks are sent straight from it, and the returned chunk reuses its
/// allocation, so the collective copies no buffer of its own.
///
/// # Panics
/// Panics if `counts.len() != group.size()` or the counts do not sum to
/// `data.len()`.
pub fn reduce_scatter_blocks(
    group: &SubCommunicator<'_>,
    data: Vec<f64>,
    counts: &[usize],
) -> Vec<f64> {
    timed(&REDUCE_SCATTER_US, || {
        reduce_scatter_blocks_inner(group, data, counts)
    })
}

fn reduce_scatter_blocks_inner(
    group: &SubCommunicator<'_>,
    mut work: Vec<f64>,
    counts: &[usize],
) -> Vec<f64> {
    group.note_collective();
    let p = group.size();
    assert_eq!(
        counts.len(),
        p,
        "reduce_scatter_blocks: need one chunk size per member"
    );
    let total: usize = counts.iter().sum();
    assert_eq!(
        total,
        work.len(),
        "reduce_scatter_blocks: chunk sizes must cover the buffer"
    );
    if p == 1 {
        return work;
    }
    let offsets: Vec<usize> = counts
        .iter()
        .scan(0usize, |acc, &c| {
            let o = *acc;
            *acc += c;
            Some(o)
        })
        .collect();
    let me = group.pos();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;

    // Ring schedule chosen so that after p-1 steps each rank holds the fully
    // reduced chunk with *its own* index `me` (so the follow-up all-gather in
    // `all_reduce` reassembles chunks in group order). Step s: send chunk
    // (me - s - 1) to the right, receive chunk (me - s - 2) from the left and
    // accumulate it; the chunk received at step s is the one sent at step s+1,
    // so partial sums travel the whole ring.
    for s in 0..p - 1 {
        let send_idx = (me + 2 * p - s - 1) % p;
        let recv_idx = (me + 2 * p - s - 2) % p;
        let (soff, slen) = (offsets[send_idx], counts[send_idx]);
        let received = group.sendrecv(right, &work[soff..soff + slen], left);
        let (roff, rlen) = (offsets[recv_idx], counts[recv_idx]);
        assert_eq!(
            received.len(),
            rlen,
            "reduce_scatter_blocks: length mismatch"
        );
        for (w, r) in work[roff..roff + rlen].iter_mut().zip(received.iter()) {
            *w += r;
        }
    }
    // Keep only the owned chunk, in the buffer it was reduced in.
    work.truncate(offsets[me] + counts[me]);
    work.drain(..offsets[me]);
    work.shrink_to_fit();
    work
}

/// All-reduce (elementwise sum): every member returns the full sum.
///
/// Implemented as reduce-scatter + all-gather, which is the bandwidth-optimal
/// composition whose cost appears in Tab. I of the paper.
pub fn all_reduce(group: &SubCommunicator<'_>, data: &[f64]) -> Vec<f64> {
    timed(&ALL_REDUCE_US, || {
        group.note_collective();
        let p = group.size();
        if p == 1 {
            return data.to_vec();
        }
        let my_chunk = reduce_scatter(group, data);
        all_gather(group, &my_chunk)
    })
}

/// Gathers every member's buffer onto the root (group position `root`), which
/// returns the concatenation in group order; other members return `None`.
pub fn gather(group: &SubCommunicator<'_>, root: usize, data: &[f64]) -> Option<Vec<f64>> {
    timed(&GATHER_US, || gather_inner(group, root, data))
}

fn gather_inner(group: &SubCommunicator<'_>, root: usize, data: &[f64]) -> Option<Vec<f64>> {
    group.note_collective();
    let p = group.size();
    if p == 1 {
        return Some(data.to_vec());
    }
    if group.pos() == root {
        let mut parts: Vec<Vec<f64>> = vec![Vec::new(); p];
        parts[root] = data.to_vec();
        for (pos, part) in parts.iter_mut().enumerate() {
            if pos != root {
                *part = group.recv(pos);
            }
        }
        Some(parts.concat())
    } else {
        group.send(root, data);
        None
    }
}

/// Scatters near-equal contiguous chunks of the root's buffer to every member;
/// each member returns its chunk.
pub fn scatter(group: &SubCommunicator<'_>, root: usize, data: Option<&[f64]>) -> Vec<f64> {
    timed(&SCATTER_US, || scatter_inner(group, root, data))
}

fn scatter_inner(group: &SubCommunicator<'_>, root: usize, data: Option<&[f64]>) -> Vec<f64> {
    group.note_collective();
    let p = group.size();
    if p == 1 {
        return data.expect("scatter: root must supply data").to_vec();
    }
    if group.pos() == root {
        let data = data.expect("scatter: root must supply data");
        let total = data.len();
        let mut own = Vec::new();
        for pos in 0..p {
            let (off, len) = chunk_range(total, p, pos);
            if pos == root {
                own = data[off..off + len].to_vec();
            } else {
                group.send(pos, &data[off..off + len]);
            }
        }
        own
    } else {
        group.recv(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use crate::runtime::spmd_with_grid;

    fn with_group<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&SubCommunicator<'_>) -> R + Send + Sync,
    {
        spmd_with_grid(ProcGrid::new(&[p]), move |comm| {
            let g = SubCommunicator::world_group(&comm);
            f(&g)
        })
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let results = with_group(p, |g| {
                    let data: Vec<f64> = if g.pos() == root {
                        (0..5).map(|i| (i + 100 * root) as f64).collect()
                    } else {
                        vec![]
                    };
                    broadcast(g, root, &data)
                });
                for r in results {
                    assert_eq!(
                        r,
                        (0..5).map(|i| (i + 100 * root) as f64).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_sums_onto_root() {
        for p in [1usize, 2, 5, 8] {
            for root in [0, p - 1] {
                let results = with_group(p, |g| {
                    let data = vec![g.pos() as f64 + 1.0; 6];
                    reduce(g, root, &data)
                });
                let expected_sum = (p * (p + 1) / 2) as f64;
                for (pos, r) in results.into_iter().enumerate() {
                    if pos == root {
                        let r = r.expect("root should hold the reduction");
                        assert!(r.iter().all(|&v| (v - expected_sum).abs() < 1e-12));
                    } else {
                        assert!(r.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_equals_sum_everywhere() {
        for p in [1usize, 2, 3, 4, 6, 9] {
            let results = with_group(p, |g| {
                let data: Vec<f64> = (0..10).map(|i| (i * (g.pos() + 1)) as f64).collect();
                all_reduce(g, &data)
            });
            let sum_factor = (p * (p + 1) / 2) as f64;
            for r in results {
                for (i, &v) in r.iter().enumerate() {
                    assert!((v - i as f64 * sum_factor).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn all_gather_concatenates_in_order() {
        for p in [1usize, 2, 4, 5] {
            let results = with_group(p, |g| {
                let data = vec![g.pos() as f64; 3];
                all_gather(g, &data)
            });
            for r in results {
                let mut expected = Vec::new();
                for pos in 0..p {
                    expected.extend(std::iter::repeat_n(pos as f64, 3));
                }
                assert_eq!(r, expected);
            }
        }
    }

    #[test]
    fn all_gather_unequal_lengths() {
        let p = 4;
        let results = with_group(p, |g| {
            let data = vec![g.pos() as f64; g.pos() + 1];
            all_gather(g, &data)
        });
        let expected: Vec<f64> = (0..p)
            .flat_map(|pos| std::iter::repeat_n(pos as f64, pos + 1))
            .collect();
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn reduce_scatter_chunks_sum() {
        for p in [2usize, 3, 4, 6] {
            let total = 13; // deliberately not divisible by p
            let results = with_group(p, |g| {
                let data: Vec<f64> = (0..total).map(|i| (i * (g.pos() + 1)) as f64).collect();
                reduce_scatter(g, &data)
            });
            let sum_factor = (p * (p + 1) / 2) as f64;
            let mut reassembled = Vec::new();
            for r in results {
                reassembled.extend(r);
            }
            assert_eq!(reassembled.len(), total);
            for (i, &v) in reassembled.iter().enumerate() {
                assert!((v - i as f64 * sum_factor).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reduce_scatter_blocks_uneven_chunks() {
        // Chunk sizes 0, 5, 1, 7 (including an empty chunk) over 4 members.
        let counts = [0usize, 5, 1, 7];
        let total: usize = counts.iter().sum();
        let results = with_group(4, |g| {
            let data: Vec<f64> = (0..total).map(|i| (i * (g.pos() + 1)) as f64).collect();
            reduce_scatter_blocks(g, data, &counts)
        });
        let sum_factor = (4 * 5 / 2) as f64;
        let mut reassembled = Vec::new();
        for (pos, r) in results.iter().enumerate() {
            assert_eq!(r.len(), counts[pos]);
            reassembled.extend(r.iter().copied());
        }
        for (i, &v) in reassembled.iter().enumerate() {
            assert!((v - i as f64 * sum_factor).abs() < 1e-9);
        }
    }

    #[test]
    fn gather_and_scatter_round_trip() {
        let p = 5;
        let results = with_group(p, |g| {
            let data = vec![g.pos() as f64; 2];
            let gathered = gather(g, 0, &data);
            let scattered = scatter(g, 0, gathered.as_deref());
            (gathered.is_some(), scattered)
        });
        for (pos, (has_gather, scattered)) in results.into_iter().enumerate() {
            assert_eq!(has_gather, pos == 0);
            assert_eq!(scattered, vec![pos as f64; 2]);
        }
    }

    #[test]
    fn collectives_work_on_grid_subgroups() {
        // All-reduce within each mode-0 column of a 3x2 grid: members of the
        // same column share the same column sum.
        let results = spmd_with_grid(ProcGrid::new(&[3, 2]), |comm| {
            let col = SubCommunicator::mode_column(&comm, 0);
            let data = vec![comm.rank() as f64];
            let summed = all_reduce(&col, &data);
            (comm.rank(), summed[0])
        });
        let grid = ProcGrid::new(&[3, 2]);
        for (rank, sum) in results {
            let col = grid.mode_column(rank, 0);
            let expected: f64 = col.iter().map(|&r| r as f64).sum();
            assert!((sum - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn collective_counter_increments() {
        let results = with_group(4, |g| {
            let _ = all_reduce(g, &[1.0; 8]);
            g.world().stats().snapshot().collective_calls
        });
        // all_reduce notes itself plus its two internal phases.
        for calls in results {
            assert!(calls >= 1);
        }
    }
}
