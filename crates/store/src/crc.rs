//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial): slice-by-8 in four
//! interleaved lanes.
//!
//! Vendored-in because the build environment has no crates.io access.
//! The algorithm is the reflected 0xEDB88320 form over eight
//! compile-time tables: each step folds eight input bytes into the
//! state with eight independent lookups instead of eight dependent
//! ones. Each step still needs the state the step before produced, so
//! one slice-by-8 chain runs at the latency of its table lookups, not
//! at the machine's throughput.
//!
//! So every whole 1 KiB block of the input is cut into four 256-byte
//! lanes, and each lane runs its own slice-by-8 chain, in step with the
//! other three: lane 0 starts from the running state, lanes 1–3 from 0.
//! The four chains share no data, so their lookups overlap. The lanes
//! are then folded back in order. CRC-32 is linear, so the state after
//! a lane is the lane's own state xor the state that entered it pushed
//! through 256 zero bytes, and one 4 × 256 compile-time table (`SHIFT`)
//! does that push in four lookups: `shift(shift(shift(a) ^ b) ^ c) ^ d`.
//! A tail under 1 KiB runs the one plain chain.
//!
//! Why 256 bytes: four lanes already cover the lookups' latency, and a
//! short lane lets inputs from 1 KiB up take the lanes too. Medians of
//! 15 runs on a 2-core x86-64 host, per input: a 4 KiB page took
//! 2.95 µs in one chain, 1.06 µs in 256-byte lanes and 1.14 µs in
//! 1 KiB lanes (one 4 KiB block); 2 KiB took 1.59 µs, 0.73 µs and,
//! with 1 KiB lanes still on the one chain, 1.59 µs.
//!
//! The lanes change the schedule, not the function: output matches
//! `crc32fast`/zlib bit for bit (check value:
//! `crc32(b"123456789") == 0xCBF4_3926`), and no checksum value
//! changed with them, so every checksum on disk is the one the
//! byte-at-a-time loop wrote.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is
/// the CRC state after byte `i` followed by `k` zero bytes, which is
/// what lets eight bytes be folded at once. The tables are statics, not
/// consts: an unoptimized build copies a const array at every index,
/// which made a debug-build CRC about 40 × slower.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Bytes per lane; a block is four lanes.
const LANE: usize = 256;
const BLOCK: usize = 4 * LANE;

/// `SHIFT[k][i]` is the state `i << 8k` after [`LANE`] zero bytes, so
/// [`shift`] is four lookups. Pushing a state through zeros is linear,
/// so each entry is the xor of the images of its set bits, and only
/// the 32 one-bit states are pushed through the zeros.
static SHIFT: [[u32; 256]; 4] = {
    let mut bit = [0u32; 32];
    let mut b = 0;
    while b < 32 {
        let mut state = 1u32 << b;
        let mut n = 0;
        while n < LANE / 8 {
            state = fold8(state, [0; 8]);
            n += 1;
        }
        bit[b] = state;
        b += 1;
    }
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let mut j = 0;
            while j < 8 {
                if i >> j & 1 != 0 {
                    shift[k][i] ^= bit[8 * k + j];
                }
                j += 1;
            }
            i += 1;
        }
        k += 1;
    }
    shift
};

/// One slice-by-8 step: `state` after the eight bytes `w`.
#[inline]
const fn fold8(state: u32, w: [u8; 8]) -> u32 {
    let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// `state` after [`LANE`] zero bytes.
#[inline]
fn shift(state: u32) -> u32 {
    SHIFT[0][(state & 0xFF) as usize]
        ^ SHIFT[1][((state >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((state >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(state >> 24) as usize]
}

/// CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed the raw (pre-inverted) state through successive
/// chunks. Start from `0xFFFF_FFFF`, xor with `0xFFFF_FFFF` at the end.
pub(crate) fn update(mut state: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<BLOCK>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        let (a, rest) = words.split_at(LANE / 8);
        let (b, rest) = rest.split_at(LANE / 8);
        let (c, d) = rest.split_at(LANE / 8);
        let mut lanes = [state, 0, 0, 0];
        for i in 0..LANE / 8 {
            lanes[0] = fold8(lanes[0], a[i]);
            lanes[1] = fold8(lanes[1], b[i]);
            lanes[2] = fold8(lanes[2], c[i]);
            lanes[3] = fold8(lanes[3], d[i]);
        }
        let [a, b, c, d] = lanes;
        state = shift(shift(shift(a) ^ b) ^ c) ^ d;
    }
    let (words, bytes) = tail.as_chunks::<8>();
    for &w in words {
        state = fold8(state, w);
    }
    for &b in bytes {
        state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slice-by-8 kernel replaced, kept as
    /// the reference every test below compares against.
    fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Deterministic byte source (splitmix64), so failures reproduce.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut z = seed;
        (0..len)
            .map(|_| {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (x ^ (x >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn check_value_matches_zlib() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    /// Zero, one and two whole blocks, each with every tail length.
    #[test]
    fn every_short_length_at_every_alignment_matches_bytewise() {
        let max = 2 * BLOCK + 64;
        let backing = random_bytes(1, max + 8);
        for align in 0..8 {
            // The reference state of each prefix, one byte at a time.
            let mut want = 0xFFFF_FFFF;
            for len in 0..=max {
                let data = &backing[align..align + len];
                if let Some(&last) = data.last() {
                    want = update_bytewise(want, &[last]);
                }
                assert_eq!(
                    crc32(data),
                    want ^ 0xFFFF_FFFF,
                    "len {len} at alignment {align}"
                );
            }
        }
    }

    #[test]
    fn random_pages_match_bytewise() {
        for seed in 0..32 {
            let page = random_bytes(0x5eed + seed, 4096);
            assert_eq!(crc32(&page), crc32_bytewise(&page), "seed {seed}");
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = random_bytes(7, 10_000);
        let whole = crc32_bytewise(&data);
        // 255 … 2 048 cut inside a lane, inside a block and on a block
        // boundary.
        for step in [
            1usize, 3, 7, 8, 9, 64, 255, 257, 1000, 1023, 1025, 2048, 4096,
        ] {
            let mut state = 0xFFFF_FFFF;
            for chunk in data.chunks(step) {
                state = update(state, chunk);
            }
            assert_eq!(state ^ 0xFFFF_FFFF, whole, "chunks of {step}");
        }
        // Uneven splits at seeded cut points.
        let mut state = 0xFFFF_FFFF;
        let mut rest = &data[..];
        let mut cuts = random_bytes(11, 256).into_iter();
        while !rest.is_empty() {
            let n = (cuts.next().unwrap_or(255) as usize % 97).min(rest.len());
            state = update(state, &rest[..n]);
            rest = &rest[n..];
        }
        assert_eq!(state ^ 0xFFFF_FFFF, whole);
    }

    /// One bit in each lane of each block of a page: every lane's chain
    /// and every fold reaches the result.
    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xA5u8; 4096];
        let before = crc32(&data);
        for block in 0..4096 / BLOCK {
            for lane in 0..4 {
                let at = block * BLOCK + lane * LANE + 37 * (block + lane);
                data[at] ^= 0x10;
                let flipped = crc32(&data);
                assert_ne!(flipped, before, "block {block} lane {lane}");
                assert_eq!(flipped, crc32_bytewise(&data), "block {block} lane {lane}");
                data[at] ^= 0x10;
            }
        }
        assert_eq!(crc32(&data), before);
    }
}
