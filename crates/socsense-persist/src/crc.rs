//! CRC-32 (IEEE 802.3 polynomial), hand-rolled so the storage layer
//! stays dependency-free.

/// Slice-by-8 lookup tables for the reflected polynomial, computed at
/// compile time. `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][i]` is the CRC register after byte `i` followed by `k`
/// zero bytes, so one step folds eight input bytes with eight lookups.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte-at-a-time step of the register.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// The CRC-32 checksum of `bytes` (IEEE polynomial, as used by gzip and
/// PNG — easy to cross-check with external tools).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    !words.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn eight_byte_steps_match_the_bytewise_register() {
        let bytes: Vec<u8> = (0u32..300)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length and start offset a 300-byte buffer allows up to
        // 40: each remainder length and alignment, and several words.
        for start in 0..9 {
            for len in 0..=40 {
                let slice = &bytes[start..start + len];
                let bytewise = !slice.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b));
                assert_eq!(crc32(slice), bytewise, "start {start}, len {len}");
            }
        }
        let bytewise = !bytes.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b));
        assert_eq!(crc32(&bytes), bytewise);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"{\"seq\":1}");
        let b = crc32(b"{\"seq\":2}");
        assert_ne!(a, b);
    }
}
