//! Benchmark inputs: the surrogate datasets, the seed-dependent roll, the raw
//! `f64` file of the streaming workload and the [`FileSlabSource`] over it.
//!
//! **Why the dataset seed is fixed and `--seed` only rolls it.** The
//! surrogate generators draw their whole field (kernel positions, species
//! mixing) from their seed, and the ranks ST-HOSVD picks at a fixed ε move
//! with it — `[30, 20, 5, 10]` to `[41, 40, 9, 30]` on HCCI across ten
//! seeds. A ledger whose compress time, artifact size and query latency all
//! change with the seed cannot hold a 10% bound. So the field is always
//! generated from [`DATA_SEED`] and `--seed` picks a cyclic shift of every
//! mode. A shift permutes the rows of every unfolding: Gram spectra, ranks,
//! flop counts and artifact size are invariant (up to summation-order
//! rounding), yet the library never sees the same bytes for two seeds.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::Instant;

use tucker_scidata::DatasetPreset;
use tucker_tensor::{DenseTensor, SlabSource};

use crate::ops::Rng;

/// The generator seed of every dataset (the seed the issue's sizing used).
pub const DATA_SEED: u64 = 2024;

/// Generates the normalized surrogate and rolls it by `seed`. Returns the
/// tensor and the seconds spent inside `DatasetPreset::generate` alone.
pub fn generate(preset: DatasetPreset, scale: usize, seed: u64) -> (DenseTensor, f64) {
    let t0 = Instant::now();
    let mut x = preset.generate(scale, DATA_SEED).data;
    let generate_s = t0.elapsed().as_secs_f64();
    let shifts = roll_shifts(x.dims(), seed);
    roll_in_place(&mut x, &shifts);
    (x, generate_s)
}

/// One shift per mode, derived from the seed.
pub fn roll_shifts(dims: &[usize], seed: u64) -> Vec<usize> {
    let mut rng = Rng::lane(seed, 0xda7a);
    dims.iter().map(|&d| rng.below(d)).collect()
}

/// Cyclically shifts every mode in place: `out[i_0, …] = in[(i_n + s_n) mod
/// I_n, …]`. With mode 0 fastest, a mode-`n` shift rotates each contiguous
/// `left × I_n` block by `s_n · left` elements.
pub fn roll_in_place(x: &mut DenseTensor, shifts: &[usize]) {
    let dims = x.dims().to_vec();
    assert_eq!(dims.len(), shifts.len(), "one shift per mode");
    let data = x.as_mut_slice();
    let mut left = 1usize;
    for (&d, &s) in dims.iter().zip(shifts) {
        if s % d != 0 {
            for block in data.chunks_exact_mut(left * d) {
                block.rotate_left((s % d) * left);
            }
        }
        left *= d;
    }
}

/// Writes the tensor as headerless little-endian `f64`s in natural order.
pub fn write_raw(path: &Path, x: &DenseTensor) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    for &v in x.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Loads a [`write_raw`] file (verification only — the timed streaming path
/// never holds the tensor).
pub fn read_raw(path: &Path, dims: &[usize]) -> io::Result<DenseTensor> {
    let len: usize = dims.iter().product();
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() != len * 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "raw file holds {} bytes, dims {dims:?} need {}",
                bytes.len(),
                len * 8
            ),
        ));
    }
    Ok(DenseTensor::from_vec(dims, decode_f64s(&bytes)))
}

fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect()
}

/// Last-mode slabs straight from a raw file with positioned reads: the
/// out-of-core source of `hcci_stream`. Counts its `fill_slab` calls and the
/// time inside them (`core.stream_slab_reads`, `core.stream_read_s`).
pub struct FileSlabSource {
    file: File,
    dims: Vec<usize>,
    bytes: RefCell<Vec<u8>>,
    reads: Cell<u64>,
    read_ns: Cell<u64>,
}

impl FileSlabSource {
    pub fn open(path: &Path, dims: &[usize]) -> io::Result<FileSlabSource> {
        let file = File::open(path)?;
        let want = dims.iter().product::<usize>() as u64 * 8;
        let have = file.metadata()?.len();
        if have != want {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("raw file holds {have} bytes, dims {dims:?} need {want}"),
            ));
        }
        Ok(FileSlabSource {
            file,
            dims: dims.to_vec(),
            bytes: RefCell::new(Vec::new()),
            reads: Cell::new(0),
            read_ns: Cell::new(0),
        })
    }

    /// `(fill_slab calls, seconds inside them)` since the last call.
    pub fn take_read_stats(&self) -> (u64, f64) {
        (self.reads.replace(0), self.read_ns.replace(0) as f64 * 1e-9)
    }
}

impl SlabSource for FileSlabSource {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn fill_slab(&self, start: usize, len: usize, out: &mut [f64]) {
        let t0 = Instant::now();
        let stride = self.slab_stride();
        assert!(start + len <= self.last_dim(), "slab range out of bounds");
        assert_eq!(out.len(), len * stride, "slab buffer has the wrong length");
        let mut bytes = self.bytes.borrow_mut();
        bytes.resize(out.len() * 8, 0);
        self.file
            .read_exact_at(&mut bytes, (start * stride * 8) as u64)
            .expect("raw slab read");
        for (dst, src) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *dst = f64::from_le_bytes(src.try_into().expect("chunks_exact(8)"));
        }
        self.reads.set(self.reads.get() + 1);
        self.read_ns
            .set(self.read_ns.get() + t0.elapsed().as_nanos() as u64);
    }
}

/// Slab-wise `‖X − X̂‖ / ‖X‖` of a reconstruction against the raw file,
/// without ever holding `X`.
pub fn slabwise_rel_error(src: &FileSlabSource, approx: &DenseTensor) -> f64 {
    assert_eq!(src.dims(), approx.dims());
    let mut slab = vec![0.0; src.slab_stride()];
    let (mut diff_sq, mut norm_sq) = (0.0f64, 0.0f64);
    for t in 0..src.last_dim() {
        src.fill_slab(t, 1, &mut slab);
        for (&x, &y) in slab.iter().zip(approx.last_mode_slab(t, 1)) {
            diff_sq += (x - y) * (x - y);
            norm_sq += x * x;
        }
    }
    (diff_sq / norm_sq).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ramp(dims: &[usize]) -> DenseTensor {
        let mut n = 0.0;
        DenseTensor::from_fn(dims, |_| {
            n += 1.0;
            n
        })
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "bench_e2e_test_{}_{tag}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn roll_matches_the_index_definition() {
        let dims = [5, 3, 4];
        let x = ramp(&dims);
        let shifts = [2, 1, 3];
        let mut rolled = x.clone();
        roll_in_place(&mut rolled, &shifts);
        for i in 0..5 {
            for j in 0..3 {
                for k in 0..4 {
                    let src = [(i + 2) % 5, (j + 1) % 3, (k + 3) % 4];
                    assert_eq!(rolled.get(&[i, j, k]), x.get(&src));
                }
            }
        }
        // A roll permutes: same multiset, hence the same norm up to rounding.
        let mut a = x.as_slice().to_vec();
        let mut b = rolled.as_slice().to_vec();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
        let mut id = x.clone();
        roll_in_place(&mut id, &[0, 3, 8]);
        assert_eq!(id, x);
    }

    #[test]
    fn shifts_depend_on_the_seed_only() {
        let dims = [72, 72, 72, 8, 16];
        assert_eq!(roll_shifts(&dims, 5), roll_shifts(&dims, 5));
        assert_ne!(roll_shifts(&dims, 5), roll_shifts(&dims, 6));
        assert!(roll_shifts(&dims, 5).iter().zip(dims).all(|(&s, d)| s < d));
    }

    #[test]
    fn file_slab_source_serves_exactly_the_dense_slabs() {
        let dims = [4, 3, 6];
        let x = ramp(&dims);
        let path = temp_file("raw");
        write_raw(&path, &x).unwrap();
        assert_eq!(read_raw(&path, &dims).unwrap(), x);
        assert!(read_raw(&path, &[4, 3, 5]).is_err());
        assert!(FileSlabSource::open(&path, &[4, 3, 7]).is_err());

        let src = FileSlabSource::open(&path, &dims).unwrap();
        assert_eq!(src.slab_stride(), 12);
        assert_eq!(src.last_dim(), 6);
        for (start, len) in [(0, 1), (2, 3), (5, 1), (0, 6)] {
            let mut out = vec![0.0; len * 12];
            src.fill_slab(start, len, &mut out);
            assert_eq!(out, x.last_mode_slab(start, len));
        }
        let (reads, secs) = src.take_read_stats();
        assert_eq!(reads, 4);
        assert!(secs >= 0.0);
        assert_eq!(src.take_read_stats().0, 0);

        assert_eq!(slabwise_rel_error(&src, &x), 0.0);
        let mut y = x.clone();
        y.scale(1.5);
        assert!((slabwise_rel_error(&src, &y) - 0.5).abs() < 1e-12);
        std::fs::remove_file(&path).ok();
    }
}
