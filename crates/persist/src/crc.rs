//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) used to frame WAL
//! records and seal snapshots. Table-driven and sliced by 16: sixteen
//! 256-entry tables, computed once at first use, fold sixteen input bytes
//! per step; the tail shorter than a slice runs the classic one-byte loop
//! over the first table. Both paths compute the same checksum.

use std::sync::OnceLock;

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// `t[0]` is the classic byte table; `t[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; SLICE] {
    static TABLES: OnceLock<[[u32; 256]; SLICE]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICE];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..SLICE {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Advance the (pre-inverted) register `c` over `data` one byte at a time.
#[inline]
fn bytewise(t: &[u32; 256], mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut slices = data.chunks_exact(SLICE);
    for s in &mut slices {
        // The register folds into the first four bytes; byte `i` is then
        // followed by `SLICE - 1 - i` more, which picks its table.
        let mut block: [u8; SLICE] = s.try_into().expect("chunks_exact yields full slices");
        for (b, r) in block.iter_mut().zip(c.to_le_bytes()) {
            *b ^= r;
        }
        c = block
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc ^ t[SLICE - 1 - i][usize::from(b)]);
    }
    bytewise(&t[0], c, slices.remainder()) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Long enough to take the sliced path.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"orchestra epoch payload");
        let b = crc32(b"orchestra epoch paylobd");
        assert_ne!(a, b);
    }

    #[test]
    fn sliced_loop_matches_the_bytewise_loop() {
        // xorshift64: deterministic pseudo-random lengths, offsets, bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..400).map(|_| next() as u8).collect();
        for _ in 0..2000 {
            let start = (next() % 16) as usize;
            let len = (next() % 301) as usize;
            let data = &buf[start..start + len];
            let reference = bytewise(&tables()[0], 0xFFFF_FFFF, data) ^ 0xFFFF_FFFF;
            assert_eq!(crc32(data), reference, "len {len} at offset {start}");
        }
    }
}
