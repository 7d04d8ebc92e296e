//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slice-by-8.
//!
//! Vendored-in because the build environment has no crates.io access;
//! the algorithm is the reflected 0xEDB88320 form over eight
//! compile-time tables: each step folds eight input bytes into the
//! state with eight independent lookups instead of eight dependent
//! ones. Matches `crc32fast`/zlib output bit for bit (check value:
//! `crc32(b"123456789") == 0xCBF4_3926`), so every checksum on disk is
//! the one the byte-at-a-time loop wrote.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is
/// the CRC state after byte `i` followed by `k` zero bytes, which is
/// what lets eight bytes be folded at once.
const TABLES: [[u32; 256]; 8] = {
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

/// CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed the raw (pre-inverted) state through successive
/// chunks. Start from `0xFFFF_FFFF`, xor with `0xFFFF_FFFF` at the end.
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
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

    #[test]
    fn every_short_length_at_every_alignment_matches_bytewise() {
        let backing = random_bytes(1, 64 + 8);
        for align in 0..8 {
            for len in 0..=64 {
                let data = &backing[align..align + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
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
        for step in [1usize, 3, 7, 8, 9, 64, 1000, 4096] {
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

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0xA5u8; 4096];
        let before = crc32(&data);
        data[1234] ^= 0x10;
        assert_ne!(crc32(&data), before);
    }
}
