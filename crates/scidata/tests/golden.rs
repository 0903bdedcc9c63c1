//! Golden hashes of the surrogate datasets.
//!
//! The presets feed every benchmark workload and every paper table, and the
//! slab-source docs promise that historical datasets stay stable. These
//! hashes pin that promise: any change to the generated bits — the
//! structural field, the noise draws and where they land, or the
//! normalization statistics — fails here. The suite also runs under several
//! `TUCKER_THREADS` values, so the pin covers thread-count independence of
//! the generator too.

use tucker_scidata::DatasetPreset;
use tucker_tensor::SlabSource;

/// FNV-1a over the 64-bit patterns of `values`.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const SEED: u64 = 2024;

#[test]
fn presets_generate_their_historical_bits() {
    // (preset, hash of the normalized data, hash of means ‖ stds)
    let golden = [
        (
            DatasetPreset::Hcci,
            0xd4cf_a550_d41f_66d7,
            0xf1c7_7f3e_93a1_2533,
        ),
        (
            DatasetPreset::Tjlr,
            0x55e5_db6f_b4c3_5287,
            0xfff3_38e0_3e5c_a68e,
        ),
        (
            DatasetPreset::Sp,
            0x3e83_9952_c023_1c25,
            0xe997_da91_38e3_a339,
        ),
    ];
    for (preset, data_hash, stats_hash) in golden {
        let ds = preset.generate(1, SEED);
        let data = fnv1a(ds.data.as_slice().iter().copied());
        let stats = fnv1a(
            ds.normalization
                .means
                .iter()
                .chain(ds.normalization.stds.iter())
                .copied(),
        );
        assert_eq!(data, data_hash, "{} data bits moved", preset.name());
        assert_eq!(stats, stats_hash, "{} statistics moved", preset.name());
    }
}

#[test]
fn slab_sources_generate_their_historical_bits() {
    let golden = [
        (DatasetPreset::Hcci, 0x53c2_3102_1292_7437),
        (DatasetPreset::Tjlr, 0x64b0_b0d4_373f_6560),
        (DatasetPreset::Sp, 0x2e9f_e46e_c6d6_9f6d),
    ];
    for (preset, hash) in golden {
        let src = preset.slab_source(1, SEED);
        let full = src.materialize();
        assert_eq!(full.dims(), SlabSource::dims(&src));
        let h = fnv1a(full.as_slice().iter().copied());
        assert_eq!(h, hash, "{} slab-source bits moved", preset.name());
    }
}
