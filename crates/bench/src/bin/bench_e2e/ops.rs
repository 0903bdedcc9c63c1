//! The seeded query traffic: op sequences, their execution against a daemon
//! client or a direct reader, and response fingerprints.
//!
//! The mix is 60% single elements, 25% small ranges, 15% hyperslices — but
//! **stratified**: every block of 20 ops holds exactly 12/5/3 of them in a
//! seed-shuffled order, and slices walk the modes round-robin. Only *where*
//! an op lands in the tensor is random. Op classes differ in cost by two
//! orders of magnitude (and slices by mode), so a binomial draw of the mix
//! would put seed-to-seed noise into every latency percentile; stratifying
//! keeps the percentiles a property of the system, not of the draw.
//!
//! 60/25/15 rather than 50/35/15 so that the median op is an element
//! whichever of element and range is cheaper (ranges are cheaper on the HCCI
//! artifact, elements on the SP ones): with half the ops elements the p50
//! sat on the boundary between two classes and jumped between them.

use tucker_api::TuckerError;
use tucker_serve::ServeClient;
use tucker_store::TkrReader;
use tucker_tensor::DenseTensor;

/// SplitMix64: every random choice of the benchmark flows from `--seed`
/// through one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Element,
    Range,
    Slice,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Element, Class::Range, Class::Slice];

    pub fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Element(Vec<usize>),
    Range(Vec<(usize, usize)>),
    Slice { mode: usize, index: usize },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Element(_) => Class::Element,
            Op::Range(_) => Class::Range,
            Op::Slice { .. } => Class::Slice,
        }
    }
}

/// Ops per stratum block and the class counts inside one.
const BLOCK: usize = 20;
const BLOCK_MIX: [(Class, usize); 3] = [(Class::Element, 12), (Class::Range, 5), (Class::Slice, 3)];
/// Extent of a range query in every mode (clipped to the mode).
const RANGE_EXTENT: usize = 4;
/// Hyperslices above this many values (8 MB) are not requested: on SP x3 a
/// mode-3 slice is 48 MB, and a handful of those would be the whole phase.
const MAX_SLICE_VALUES: usize = 1 << 20;

/// One client's endless op sequence — a pure function of `(seed, client,
/// dims)`, so verification can regenerate any op by index.
pub struct OpStream {
    rng: Rng,
    dims: Vec<usize>,
    block: Vec<Class>,
    /// The modes slices are taken in, and the next one's position in it.
    slice_modes: Vec<usize>,
    next_slice: usize,
}

impl OpStream {
    pub fn new(seed: u64, client: usize, dims: &[usize]) -> OpStream {
        let mut rng = Rng::lane(seed, 0x0b5 + client as u64);
        let total: usize = dims.iter().product();
        let mut slice_modes: Vec<usize> = (0..dims.len())
            .filter(|&n| total / dims[n] <= MAX_SLICE_VALUES)
            .collect();
        if slice_modes.is_empty() {
            // Every slice is over the cap: keep the smallest.
            slice_modes.extend((0..dims.len()).max_by_key(|&n| dims[n]));
        }
        let next_slice = rng.below(slice_modes.len());
        OpStream {
            rng,
            dims: dims.to_vec(),
            block: Vec::new(),
            slice_modes,
            next_slice,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            for (class, count) in BLOCK_MIX {
                self.block.extend(std::iter::repeat_n(class, count));
            }
            debug_assert_eq!(self.block.len(), BLOCK);
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        match self.block.pop().expect("block was just refilled") {
            Class::Element => Op::Element(self.dims.iter().map(|&d| self.rng.below(d)).collect()),
            Class::Range => Op::Range(
                self.dims
                    .iter()
                    .map(|&d| {
                        let len = d.min(RANGE_EXTENT);
                        (self.rng.below(d - len + 1), len)
                    })
                    .collect(),
            ),
            Class::Slice => {
                let mode = self.slice_modes[self.next_slice];
                self.next_slice = (self.next_slice + 1) % self.slice_modes.len();
                Op::Slice {
                    mode,
                    index: self.rng.below(self.dims[mode]),
                }
            }
        }
    }
}

/// What came back: an FNV-1a fingerprint of the exact response bits plus the
/// payload size. Two responses are bit-identical iff their `Reply`s are equal
/// (up to hash collision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub hash: u64,
    pub values: usize,
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn mix_word(h: u64, w: u64) -> u64 {
    // Word-at-a-time variant: responses reach megabytes, and the sampled
    // fingerprints run between timed ops.
    (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(23)
}

fn reply_of_tensor(t: &DenseTensor) -> Reply {
    let mut h = FNV_OFFSET;
    for &d in t.dims() {
        h = mix_word(h, d as u64);
    }
    for &v in t.as_slice() {
        h = mix_word(h, v.to_bits());
    }
    Reply {
        hash: h,
        values: t.len(),
    }
}

fn reply_of_scalar(v: f64) -> Reply {
    Reply {
        hash: mix_word(FNV_OFFSET, v.to_bits()),
        values: 1,
    }
}

/// A response as it came off the wire or out of the reader, not yet hashed —
/// so the caller can stop its latency clock before fingerprinting.
pub enum Raw {
    Scalar(f64),
    Tensor(DenseTensor),
}

impl Raw {
    pub fn values(&self) -> usize {
        match self {
            Raw::Scalar(_) => 1,
            Raw::Tensor(t) => t.len(),
        }
    }

    pub fn reply(&self) -> Reply {
        match self {
            Raw::Scalar(v) => reply_of_scalar(*v),
            Raw::Tensor(t) => reply_of_tensor(t),
        }
    }
}

pub fn run_on_client(op: &Op, client: &mut ServeClient, name: &str) -> Result<Raw, TuckerError> {
    Ok(match op {
        Op::Element(idx) => Raw::Scalar(client.element(name, idx)?),
        Op::Range(ranges) => Raw::Tensor(client.reconstruct_range(name, ranges)?),
        Op::Slice { mode, index } => Raw::Tensor(client.reconstruct_slice(name, *mode, *index)?),
    })
}

pub fn run_on_reader(op: &Op, reader: &TkrReader) -> Result<Raw, tucker_store::QueryError> {
    Ok(match op {
        Op::Element(idx) => Raw::Scalar(reader.element(idx)?),
        Op::Range(ranges) => Raw::Tensor(reader.reconstruct_range(ranges)?),
        Op::Slice { mode, index } => Raw::Tensor(reader.reconstruct_slice(*mode, *index)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: [usize; 4] = [12, 9, 4, 7];

    fn take(seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(seed, client, &DIMS);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(take(7, 0, 200), take(7, 0, 200));
        assert_ne!(take(7, 0, 200), take(8, 0, 200));
        assert_ne!(take(7, 0, 200), take(7, 1, 200));
    }

    #[test]
    fn every_block_holds_the_exact_mix_and_ops_stay_in_bounds() {
        let ops = take(2024, 1, 10 * BLOCK);
        for block in ops.chunks(BLOCK) {
            for (class, count) in BLOCK_MIX {
                assert_eq!(block.iter().filter(|o| o.class() == class).count(), count);
            }
        }
        let mut slice_modes = Vec::new();
        for op in &ops {
            match op {
                Op::Element(idx) => assert!(idx.iter().zip(DIMS).all(|(&i, d)| i < d)),
                Op::Range(r) => {
                    assert!(r.iter().zip(DIMS).all(|(&(s, l), d)| l >= 1 && s + l <= d))
                }
                Op::Slice { mode, index } => {
                    assert!(*index < DIMS[*mode]);
                    slice_modes.push(*mode);
                }
            }
        }
        // Slices walk the modes round-robin.
        for w in slice_modes.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % DIMS.len());
        }
    }

    #[test]
    fn oversized_slices_are_never_requested() {
        // SP x3: slices of modes 3 and 4 hold 6.0 M and 3.0 M values.
        let dims = [72, 72, 72, 8, 16];
        let mut s = OpStream::new(3, 0, &dims);
        let modes: Vec<usize> = (0..200)
            .filter_map(|_| match s.next_op() {
                Op::Slice { mode, .. } => Some(mode),
                _ => None,
            })
            .collect();
        assert_eq!(modes.len(), 30);
        assert!(modes.iter().all(|&m| m <= 2));
        assert!((0..=2).all(|m| modes.contains(&m)));
        // All over the cap: the largest mode, i.e. the smallest slice.
        let mut s = OpStream::new(3, 0, &[4096, 2048, 2048]);
        assert!((0..40).all(|_| !matches!(s.next_op(), Op::Slice { mode, .. } if mode != 0)));
    }

    #[test]
    fn fingerprints_see_every_bit() {
        let a = DenseTensor::from_fn(&[3, 2], |i| (i[0] + 10 * i[1]) as f64);
        let mut b = a.clone();
        assert_eq!(reply_of_tensor(&a), reply_of_tensor(&b));
        b.as_mut_slice()[4] = f64::from_bits(b.as_slice()[4].to_bits() ^ 1);
        assert_ne!(reply_of_tensor(&a).hash, reply_of_tensor(&b).hash);
        // Same values, different shape.
        let c = DenseTensor::from_vec(&[2, 3], a.as_slice().to_vec());
        assert_ne!(reply_of_tensor(&a).hash, reply_of_tensor(&c).hash);
        assert_ne!(reply_of_scalar(0.0).hash, reply_of_scalar(-0.0).hash);
        assert_ne!(fnv1a(FNV_OFFSET, b"ab"), fnv1a(FNV_OFFSET, b"ba"));
    }
}
