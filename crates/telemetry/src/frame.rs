//! The word container every byte format in the workspace shares:
//! checkpoints (`accel::checkpoint`, magic `"QTACCKPT"`) and QTACWIRE
//! frames ([`crate::wire`], magic `"QTACWIRE"`).
//!
//! ```text
//! word 0       magic
//! word 1       format version
//! word 2..n    format-defined header words and payload
//! word n       CRC-32/ISO-HDLC of words 0..n, zero-extended to 64 bits
//! ```
//!
//! Words are little-endian `u64`s, floats IEEE-754 bit patterns, and
//! strings a byte-length word followed by the bytes zero-padded to a
//! word boundary. Each format keeps only its header words, payload
//! layout and error enum, onto which it maps [`ReadError`]. The
//! [`WordReader`] never panics and never allocates from a count it has
//! not bounded by the words left.

/// The reflected CRC-32/ISO-HDLC polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `[0]` is the byte-at-a-time table, and `[k]`
/// advances `[k - 1]`'s entry by one more zero byte, so one step folds
/// eight input bytes through eight independent table loads.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC32_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = t[k - 1][n];
            t[k][n] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial, reflected), eight bytes per
/// step (slicing-by-8) over tables built at compile time, then the tail a
/// byte at a time — no dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Every event counter and clock a decoder restores must be below this.
/// Counters grow from zero by small steps, so no run reaches 2^63; a
/// larger value is forged, and the next unchecked increment would
/// overflow it.
pub const COUNTER_LIMIT: u64 = 1 << 63;

/// Word `i` of `bytes`, little-endian.
///
/// # Panics
/// If `bytes` holds fewer than `i + 1` whole words.
pub fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    u64::from_le_bytes(w)
}

/// Whether the last word of `sealed` is the CRC of every byte before
/// it. `sealed` must be at least one word long.
pub fn crc_ok(sealed: &[u8]) -> bool {
    let body = sealed.len() - 8;
    word(&sealed[body..], 0) == crc32(&sealed[..body]) as u64
}

/// Builds a container: the magic and version words first, then whatever
/// the format pushes, then [`seal`](Self::seal) appends the CRC word.
#[derive(Debug)]
pub struct WordWriter {
    bytes: Vec<u8>,
}

impl WordWriter {
    /// A writer with the `magic` and `version` words already pushed.
    pub fn new(magic: u64, version: u64) -> Self {
        let mut w = Self { bytes: Vec::new() };
        w.push(magic);
        w.push(version);
        w
    }

    /// Append one word.
    pub fn push(&mut self, word: u64) {
        self.bytes.extend_from_slice(&word.to_le_bytes());
    }

    /// Append a float as its IEEE-754 bit pattern.
    pub fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }

    /// Append a length-prefixed UTF-8 string, zero-padded to whole words.
    pub fn push_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(word));
        }
    }

    /// Words written so far, header included.
    pub fn words(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Overwrite word `i` (a length the format only knows once its
    /// payload is written).
    ///
    /// # Panics
    /// If word `i` has not been written.
    pub fn set(&mut self, i: usize, word: u64) {
        self.bytes[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }

    /// Append the CRC word and return the container's bytes.
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.bytes) as u64;
        self.push(crc);
        self.bytes
    }
}

/// Why a [`WordReader`] read failed. Each format maps this onto its own
/// error enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// A read ran past the last word, or a count or string length
    /// declared more than the words left can hold.
    Short,
    /// A string's bytes are not UTF-8.
    NotUtf8,
    /// [`WordReader::finish`] found unread words.
    Trailing,
}

/// Walks the payload words of a verified container, borrowing its
/// bytes.
#[derive(Debug)]
pub struct WordReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// A reader over `payload`, which must hold whole words (a trailing
    /// partial word is never read).
    pub fn new(payload: &'a [u8]) -> Self {
        Self {
            bytes: payload,
            pos: 0,
        }
    }

    /// Words not yet read. Lets a decoder treat a trailing optional
    /// section as absent when an older writer never wrote it.
    pub fn remaining(&self) -> usize {
        self.bytes.len() / 8 - self.pos
    }

    /// The next word.
    pub fn take(&mut self) -> Result<u64, ReadError> {
        if self.remaining() == 0 {
            return Err(ReadError::Short);
        }
        let w = word(self.bytes, self.pos);
        self.pos += 1;
        Ok(w)
    }

    /// The next word as an IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, ReadError> {
        Ok(f64::from_bits(self.take()?))
    }

    /// The next word as a count of items that take at least
    /// `words_per_item` words each. A count the words left cannot hold
    /// is [`ReadError::Short`], so the result is safe to allocate from.
    pub fn take_count(&mut self, words_per_item: usize) -> Result<usize, ReadError> {
        let n = self.take()?;
        if n > (self.remaining() / words_per_item.max(1)) as u64 {
            return Err(ReadError::Short);
        }
        Ok(n as usize)
    }

    /// A string written by [`WordWriter::push_str`].
    pub fn take_str(&mut self) -> Result<String, ReadError> {
        let len = self.take()?;
        if len.div_ceil(8) > self.remaining() as u64 {
            return Err(ReadError::Short);
        }
        let start = self.pos * 8;
        let len = len as usize;
        self.pos += len.div_ceil(8);
        String::from_utf8(self.bytes[start..start + len].to_vec()).map_err(|_| ReadError::NotUtf8)
    }

    /// Succeed only if every word has been read.
    pub fn finish(self) -> Result<(), ReadError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ReadError::Trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A sealed container holding `words` after a test header.
    fn sealed(words: &[u64]) -> Vec<u8> {
        let mut w = WordWriter::new(u64::from_le_bytes(*b"TESTTEST"), 1);
        words.iter().for_each(|&x| w.push(x));
        w.seal()
    }

    /// The CRC one bit at a time, straight from the polynomial.
    fn crc32_bit_serial(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC32_POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_a_bit_serial_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..4097),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bit_serial(&bytes));
        }

        #[test]
        fn crc_ok_refuses_every_single_bit_flip(
            words in prop::collection::vec(any::<u64>(), 0..64),
            bit in any::<usize>(),
        ) {
            let mut bytes = sealed(&words);
            prop_assert!(crc_ok(&bytes));
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!crc_ok(&bytes), "flip of bit {bit} passed");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = WordWriter::new(7, 1);
        w.push(0);
        w.push_f64(0.125);
        w.push_str("Q8.8");
        w.push_str("a longer string spanning words");
        w.set(2, w.words() as u64);
        let bytes = w.seal();
        assert!(crc_ok(&bytes));
        assert_eq!((word(&bytes, 0), word(&bytes, 1)), (7, 1));
        let mut r = WordReader::new(&bytes[16..bytes.len() - 8]);
        assert_eq!(r.take(), Ok(11), "set patched the word");
        assert_eq!(r.take_f64(), Ok(0.125));
        assert_eq!(r.take_str().as_deref(), Ok("Q8.8"));
        assert_eq!(
            r.take_str().as_deref(),
            Ok("a longer string spanning words")
        );
        assert_eq!((r.remaining(), r.take()), (0, Err(ReadError::Short)));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn damaged_containers_and_forged_words_are_typed() {
        let bytes = sealed(&[1]);
        assert!(!crc_ok(&bytes[..bytes.len() - 8]), "CRC word dropped");
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert!(!crc_ok(&flipped), "flip at byte {i}");
        }
        // A count or string length the words left cannot hold.
        for forged in [17u64, 1 << 40, u64::MAX] {
            let bytes = sealed(&[forged, 0, 0]);
            let payload = &bytes[16..bytes.len() - 8];
            assert_eq!(
                WordReader::new(payload).take_count(1),
                Err(ReadError::Short)
            );
            assert_eq!(WordReader::new(payload).take_str(), Err(ReadError::Short));
        }
        // Two two-word items fit in four words, not in three.
        let bytes = sealed(&[2, 0, 0, 0, 0]);
        assert_eq!(WordReader::new(&bytes[16..56]).take_count(2), Ok(2));
        assert_eq!(
            WordReader::new(&bytes[16..48]).take_count(2),
            Err(ReadError::Short)
        );
        // Bytes that are not UTF-8, then an unread word.
        let bytes = sealed(&[2, 0x28C3, 5]);
        let mut r = WordReader::new(&bytes[16..bytes.len() - 8]);
        assert_eq!(r.take_str(), Err(ReadError::NotUtf8));
        assert_eq!(r.finish(), Err(ReadError::Trailing));
    }
}
