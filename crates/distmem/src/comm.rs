//! Point-to-point communicator between ranks.
//!
//! A [`Communicator`] is handed to each rank by [`crate::runtime::spmd`] (or
//! by `tucker-net`'s multi-process launcher). It wraps a boxed
//! [`Transport`] — the in-process channel world or a TCP socket mesh — so
//! `send`/`recv` pairs between a fixed (source, destination) pair match in
//! program order exactly as MPI point-to-point messages on a single tag do.
//! Sends are eager (the transport buffers), which mirrors eager-protocol MPI
//! for the message sizes the Tucker kernels exchange and keeps the schedule
//! deadlock-free as long as every posted receive has a matching send.
//!
//! All payloads are `Vec<f64>` — every message in the Tucker algorithms is a
//! block of tensor or matrix data — and every transfer is recorded in the
//! rank's [`CommStats`]. Algorithms written against this type are transport
//! agnostic: the bits they produce do not depend on what carried the
//! messages (see [`crate::transport`] for the argument).

use crate::grid::ProcGrid;
use crate::stats::CommStats;
use crate::transport::{InProcTransport, Transport};
use std::sync::Arc;

/// Per-rank handle for point-to-point communication and synchronization.
pub struct Communicator {
    rank: usize,
    size: usize,
    grid: ProcGrid,
    transport: Box<dyn Transport>,
    stats: Arc<CommStats>,
}

impl Communicator {
    /// Creates the full set of communicators for a `grid.size()`-rank
    /// in-process world.
    ///
    /// Returned in rank order. Normally called only by [`crate::runtime::spmd`].
    pub fn create_world(grid: ProcGrid) -> Vec<Communicator> {
        InProcTransport::create_world(grid.size())
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                Communicator::from_transport(
                    grid.clone(),
                    rank,
                    Box::new(t),
                    CommStats::new_shared(),
                )
            })
            .collect()
    }

    /// The one-rank world on the `1 × … × 1` grid of order `ndims`, built on
    /// the calling thread (no [`crate::runtime::spmd`] region). Every group
    /// of it has a single member, so the kernels above it never send a
    /// message: this is the world the sequential Tucker drivers run on.
    ///
    /// # Panics
    /// Panics if `ndims == 0` (a processor grid needs at least one mode).
    pub fn single_rank(ndims: usize) -> Communicator {
        Communicator::create_world(ProcGrid::new(&vec![1; ndims]))
            .pop()
            .expect("a one-rank world has one communicator")
    }

    /// Wraps an arbitrary [`Transport`] endpoint as rank `rank` of a
    /// `grid.size()`-rank world. This is how `tucker-net` plugs its TCP mesh
    /// under the unchanged SPMD surface.
    ///
    /// # Panics
    /// Panics if `rank >= grid.size()`.
    pub fn from_transport(
        grid: ProcGrid,
        rank: usize,
        transport: Box<dyn Transport>,
        stats: Arc<CommStats>,
    ) -> Communicator {
        let size = grid.size();
        assert!(rank < size, "from_transport: rank {rank} out of range");
        Communicator {
            rank,
            size,
            grid,
            transport,
            stats,
        }
    }

    /// This rank's id in `[0, size)`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The processor grid this world was created with.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// The transport backend's short name (`"inproc"`, `"tcp"`).
    #[inline]
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// This rank's grid coordinates.
    pub fn coords(&self) -> Vec<usize> {
        self.grid.coords(self.rank)
    }

    /// Shared handle to this rank's communication counters.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    /// Sends `data` to rank `dst`. Eager (the transport buffers).
    ///
    /// # Panics
    /// Panics if `dst` is out of range or the transport reports a failure
    /// (the panic message embeds the typed [`crate::transport::TransportError`],
    /// and [`crate::runtime::try_spmd_with_grid_handle`] converts it back
    /// into a returned error).
    pub fn send(&self, dst: usize, data: &[f64]) {
        assert!(dst < self.size, "send: destination {dst} out of range");
        self.stats.record_send(data.len());
        if let Err(e) = self.transport.send(dst, data) {
            panic!("send to rank {dst} failed: {e}");
        }
    }

    /// Sends an owned buffer to rank `dst` without copying.
    pub fn send_vec(&self, dst: usize, data: Vec<f64>) {
        assert!(dst < self.size, "send_vec: destination {dst} out of range");
        self.stats.record_send(data.len());
        if let Err(e) = self.transport.send_vec(dst, data) {
            panic!("send_vec to rank {dst} failed: {e}");
        }
    }

    /// Receives the next message from rank `src` (blocking).
    pub fn recv(&self, src: usize) -> Vec<f64> {
        assert!(src < self.size, "recv: source {src} out of range");
        match self.transport.recv(src) {
            Ok(data) => {
                self.stats.record_recv(data.len());
                data
            }
            Err(e) => panic!("recv from rank {src} failed: {e}"),
        }
    }

    /// Combined send to `dst` and receive from `src` (the shifted exchange used
    /// by the parallel Gram's ring, Alg. 4 lines 9–10). Because sends are
    /// eager this cannot deadlock.
    pub fn sendrecv(&self, dst: usize, data: &[f64], src: usize) -> Vec<f64> {
        self.send(dst, data);
        self.recv(src)
    }

    /// Synchronizes all ranks in the world.
    pub fn barrier(&self) {
        if let Err(e) = self.transport.barrier() {
            panic!("barrier failed: {e}");
        }
    }

    /// Records participation in a collective (called by the collective layer).
    pub(crate) fn note_collective(&self) {
        self.stats.record_collective();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_world<R, F>(shape: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Communicator) -> R + Send + Sync,
    {
        let grid = ProcGrid::new(shape);
        let world = Communicator::create_world(grid);
        let mut out: Vec<Option<R>> = world.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for comm in world {
                let f = &f;
                handles.push(scope.spawn(move || (comm.rank(), f(comm))));
            }
            for h in handles {
                let (rank, r) = h.join().expect("rank thread panicked");
                out[rank] = Some(r);
            }
        });
        out.into_iter().map(|o| o.unwrap()).collect()
    }

    #[test]
    fn ring_pass_around() {
        let results = run_world(&[4], |comm| {
            let p = comm.size();
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            comm.send(next, &[comm.rank() as f64]);
            let got = comm.recv(prev);
            got[0] as usize
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn messages_match_in_order_per_pair() {
        let results = run_world(&[2], |comm| {
            if comm.rank() == 0 {
                comm.send(1, &[1.0]);
                comm.send(1, &[2.0, 2.0]);
                comm.send(1, &[3.0]);
                vec![]
            } else {
                let a = comm.recv(0);
                let b = comm.recv(0);
                let c = comm.recv(0);
                vec![a[0], b[0], c[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn sendrecv_shift_does_not_deadlock() {
        let results = run_world(&[5], |comm| {
            let p = comm.size();
            let dst = (comm.rank() + 1) % p;
            let src = (comm.rank() + p - 1) % p;
            let got = comm.sendrecv(dst, &[comm.rank() as f64; 10], src);
            got[0] as usize
        });
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn stats_count_words() {
        let snaps = run_world(&[2], |comm| {
            if comm.rank() == 0 {
                comm.send(1, &[0.0; 64]);
            } else {
                let _ = comm.recv(0);
            }
            comm.stats().snapshot()
        });
        assert_eq!(snaps[0].messages_sent, 1);
        assert_eq!(snaps[0].words_sent, 64);
        assert_eq!(snaps[1].messages_received, 1);
        assert_eq!(snaps[1].words_received, 64);
    }

    #[test]
    fn inproc_world_reports_no_wire_bytes() {
        let snaps = run_world(&[2], |comm| {
            assert_eq!(comm.transport_kind(), "inproc");
            comm.sendrecv((comm.rank() + 1) % 2, &[1.0; 8], (comm.rank() + 1) % 2);
            comm.stats().snapshot()
        });
        for s in snaps {
            assert_eq!(s.wire_bytes_sent, 0);
            assert_eq!(s.wire_bytes_received, 0);
        }
    }

    #[test]
    fn single_rank_world_is_the_unit_grid() {
        let comm = Communicator::single_rank(3);
        assert_eq!((comm.rank(), comm.size()), (0, 1));
        assert_eq!(comm.grid().shape(), &[1, 1, 1]);
        assert_eq!(comm.sendrecv(0, &[7.0], 0), vec![7.0]);
        comm.barrier();
    }

    #[test]
    fn coords_match_grid() {
        let results = run_world(&[2, 3], |comm| (comm.rank(), comm.coords()));
        for (rank, coords) in results {
            assert_eq!(ProcGrid::new(&[2, 3]).coords(rank), coords);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_world(&[4], |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all four increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }
}
