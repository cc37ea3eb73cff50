//! Common page infrastructure: the 8 KB page buffer, header codec, and
//! checksum.
//!
//! Pages mirror SQL Server's 8 KB unit (the paper's host DBMS). Every page
//! carries a small header with a layout tag, tuple count, and a checksum
//! that stands in for the integrity checks a real device's ECC path
//! provides end-to-end.

use bytes::Bytes;
use std::fmt;

/// Page size in bytes (SQL Server uses 8 KB pages).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved for the page header.
pub const PAGE_HEADER_SIZE: usize = 32;

/// Magic bytes identifying a formatted page.
pub const PAGE_MAGIC: [u8; 4] = *b"SSPG";

/// On-page record organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// N-ary storage model: whole tuples in a slotted page (SQL Server's
    /// default heap layout).
    Nsm,
    /// Partition Attributes Across: per-column minipages within the page,
    /// implemented by the paper for the Smart SSD path.
    Pax,
}

impl Layout {
    fn tag(self) -> u8 {
        match self {
            Layout::Nsm => 0,
            Layout::Pax => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Layout> {
        match tag {
            0 => Some(Layout::Nsm),
            1 => Some(Layout::Pax),
            _ => None,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::Nsm => write!(f, "NSM"),
            Layout::Pax => write!(f, "PAX"),
        }
    }
}

/// An immutable, reference-counted 8 KB page image.
///
/// Cloning a `PageBuf` is O(1) (shared `Bytes`), which lets the flash store,
/// device DRAM, and host buffer pool pass pages around without copying —
/// the *timing* cost of each copy is charged by the simulation layer, not
/// by actual memcpys.
#[derive(Debug, Clone)]
pub struct PageBuf {
    data: Bytes,
}

/// Errors surfaced when validating a page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// Page is not `PAGE_SIZE` bytes.
    BadLength(usize),
    /// Magic bytes missing — the page was never formatted.
    BadMagic,
    /// Unknown layout tag.
    BadLayout(u8),
    /// Checksum mismatch (simulated media corruption / ECC escape).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum recomputed over the body.
        computed: u32,
    },
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::BadLength(n) => write!(f, "page has {n} bytes, expected {PAGE_SIZE}"),
            PageError::BadMagic => write!(f, "page magic missing"),
            PageError::BadLayout(t) => write!(f, "unknown layout tag {t}"),
            PageError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
        }
    }
}

impl std::error::Error for PageError {}

impl PageBuf {
    /// Wraps raw bytes as a page, validating length, magic, layout tag, and
    /// checksum.
    pub fn from_bytes(data: Bytes) -> Result<Self, PageError> {
        if data.len() != PAGE_SIZE {
            return Err(PageError::BadLength(data.len()));
        }
        if data[0..4] != PAGE_MAGIC {
            return Err(PageError::BadMagic);
        }
        let tag = data[4];
        if Layout::from_tag(tag).is_none() {
            return Err(PageError::BadLayout(tag));
        }
        let stored = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        let computed = checksum(&data[PAGE_HEADER_SIZE..]);
        if stored != computed {
            return Err(PageError::ChecksumMismatch { stored, computed });
        }
        Ok(Self { data })
    }

    /// Formats a fresh page image from a body and header fields.
    pub(crate) fn format(layout: Layout, tuple_count: u16, body: &[u8]) -> Self {
        assert!(body.len() <= PAGE_SIZE - PAGE_HEADER_SIZE);
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + body.len()].copy_from_slice(body);
        raw[0..4].copy_from_slice(&PAGE_MAGIC);
        raw[4] = layout.tag();
        raw[5..7].copy_from_slice(&tuple_count.to_le_bytes());
        let sum = checksum(&raw[PAGE_HEADER_SIZE..]);
        raw[8..12].copy_from_slice(&sum.to_le_bytes());
        Self {
            data: Bytes::from(raw),
        }
    }

    /// The page's layout tag.
    pub fn layout(&self) -> Layout {
        Layout::from_tag(self.data[4]).expect("validated at construction")
    }

    /// Number of tuples stored on the page.
    pub fn tuple_count(&self) -> u16 {
        u16::from_le_bytes(self.data[5..7].try_into().expect("2 bytes"))
    }

    /// The stored checksum.
    pub fn stored_checksum(&self) -> u32 {
        u32::from_le_bytes(self.data[8..12].try_into().expect("4 bytes"))
    }

    /// Verifies the body against the stored checksum.
    pub fn verify(&self) -> Result<(), PageError> {
        let computed = checksum(&self.data[PAGE_HEADER_SIZE..]);
        let stored = self.stored_checksum();
        if stored == computed {
            Ok(())
        } else {
            Err(PageError::ChecksumMismatch { stored, computed })
        }
    }

    /// The page body (everything after the header).
    pub fn body(&self) -> &[u8] {
        &self.data[PAGE_HEADER_SIZE..]
    }

    /// The full raw page, header included.
    pub fn raw(&self) -> &Bytes {
        &self.data
    }

    /// Returns a copy of this page with `nbytes` bytes flipped starting at
    /// `offset` within the body — used by tests and failure-injection to
    /// simulate media corruption that slipped past ECC.
    pub fn corrupted(&self, offset: usize, nbytes: usize) -> PageBuf {
        self.corrupted_by(offset, nbytes, 0xFF)
    }

    /// Like [`Self::corrupted`], but XORs each of the `nbytes` body bytes
    /// at `offset` with `mask` instead of inverting them.
    pub fn corrupted_by(&self, offset: usize, nbytes: usize, mask: u8) -> PageBuf {
        let mut raw = self.data.to_vec();
        for b in raw.iter_mut().skip(PAGE_HEADER_SIZE + offset).take(nbytes) {
            *b ^= mask;
        }
        PageBuf {
            data: Bytes::from(raw),
        }
    }
}

/// Memoizes [`PageBuf::from_bytes`] validation per LBA.
///
/// Re-checksumming an unchanged 8 KB page on every read is wasted work: a
/// page that is byte-for-byte the same buffer as last time (the common
/// case: [`bytes::Bytes`] hands out clones of one allocation) must validate
/// the same way. The cache keys on *pointer identity*: a hit means the
/// flash returned a clone of the exact allocation we already validated, so
/// the stored result is reused without re-hashing. Any rewrite, corruption
/// injection, or scrub produces a fresh allocation, misses the pointer
/// check, and is validated from scratch — so behaviour is bit-identical to
/// calling [`PageBuf::from_bytes`] every time.
///
/// Holding the validated [`PageBuf`] (and with it the `Bytes` allocation)
/// alive in the cache also rules out ABA reuse of a freed address.
#[derive(Debug, Clone, Default)]
pub struct PageDecodeCache {
    pages: std::collections::HashMap<u64, PageBuf>,
}

impl PageDecodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates `data` as the page at `lba`, reusing the previous result
    /// when `data` is pointer-identical to the buffer validated last time.
    pub fn decode(&mut self, lba: u64, data: Bytes) -> Result<PageBuf, PageError> {
        if let Some(hit) = self.pages.get(&lba) {
            if Bytes::ptr_eq(hit.raw(), &data) {
                return Ok(hit.clone());
            }
        }
        let page = PageBuf::from_bytes(data)?;
        self.pages.insert(lba, page.clone());
        Ok(page)
    }

    /// Forgets the memo for `lba` (its page was trimmed), releasing the
    /// cached buffer.
    pub fn evict(&mut self, lba: u64) {
        self.pages.remove(&lba);
    }

    /// Drops all memoized validations.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

/// Independent multiply chains in [`checksum`]. One chain is bound by
/// multiply latency; eight keep the multiplier busy every cycle.
const LANES: usize = 8;

/// Odd 64-bit multiplier (the golden ratio), so each lane step is a
/// bijection of the lane state.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One lane step: xor in a word, multiply, rotate. Multiplying carries a
/// bit change only upwards; the rotate brings high bits back down so two
/// flips of the same high bit in successive words cannot cancel.
fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(MUL).rotate_left(31)
}

/// Checksum of a page body: word-at-a-time over eight interleaved lanes.
///
/// A real SSD corrects errors with BCH/LDPC ECC in the flash controller;
/// the checksum here plays the same detect-bad-reads role for the
/// emulator's failure-injection tests. Words are explicit little-endian
/// loads, so the value is the same on every platform. Every lane step
/// and the lane fold are bijections, so changing any one word of the
/// body always changes the 64-bit state; the body length is folded in
/// (the zero-padded tail word is then unambiguous) and a full 64-bit
/// avalanche runs before the fold to 32 bits. About 0.5 µs per 8 KB page
/// on a 2-core x86-64 VM (`kernel/page_checksum` in the bench crate).
pub fn checksum(body: &[u8]) -> u32 {
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| MUL.wrapping_mul(i as u64 + 1));
    let mut blocks = body.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    // Fewer than 8 * LANES bytes remain: at most one word per lane, the
    // last one zero-padded.
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut buf = [0u8; 8];
        buf[..word.len()].copy_from_slice(word);
        *lane = mix(*lane, u64::from_le_bytes(buf));
    }
    let mut h = lanes.into_iter().fold(body.len() as u64, mix);
    // Murmur3's fmix64 finalizer: every input bit reaches every output bit.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_and_validate_round_trip() {
        let page = PageBuf::format(Layout::Nsm, 7, b"hello");
        let back = PageBuf::from_bytes(page.raw().clone()).unwrap();
        assert_eq!(back.layout(), Layout::Nsm);
        assert_eq!(back.tuple_count(), 7);
        assert!(back.verify().is_ok());
    }

    #[test]
    fn corruption_detected() {
        let page = PageBuf::format(Layout::Pax, 3, b"body bytes");
        let bad = page.corrupted(2, 1);
        match bad.verify() {
            Err(PageError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert!(PageBuf::from_bytes(bad.raw().clone()).is_err());
    }

    #[test]
    fn wrong_length_rejected() {
        let err = PageBuf::from_bytes(Bytes::from_static(b"short")).unwrap_err();
        assert_eq!(err, PageError::BadLength(5));
    }

    #[test]
    fn missing_magic_rejected() {
        let raw = vec![0u8; PAGE_SIZE];
        assert_eq!(
            PageBuf::from_bytes(Bytes::from(raw)).unwrap_err(),
            PageError::BadMagic
        );
    }

    #[test]
    fn unknown_layout_rejected() {
        let page = PageBuf::format(Layout::Nsm, 0, b"");
        let mut raw = page.raw().to_vec();
        raw[4] = 9;
        assert_eq!(
            PageBuf::from_bytes(Bytes::from(raw)).unwrap_err(),
            PageError::BadLayout(9)
        );
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        // Known answers: any change to the function must show up here.
        assert_eq!(checksum(b""), 0x9470_4E1C);
        let pattern: Vec<u8> = (0..PAGE_SIZE - PAGE_HEADER_SIZE)
            .map(|i| (i * 31 + 7) as u8)
            .collect();
        assert_eq!(checksum(&pattern), 0x5EA1_6C07);
        assert_ne!(checksum(b"a"), checksum(b"b"));
        // Zero padding of the tail word is disambiguated by the length.
        assert_ne!(checksum(b"a"), checksum(b"a\0"));
        assert_ne!(checksum(b""), checksum(&[0u8; 8]));
    }

    #[test]
    fn checksum_sees_every_tail_length() {
        // Bodies of every length around the lane and word boundaries
        // checksum differently, and a flip in the last byte is caught.
        let body: Vec<u8> = (0..200u32).map(|i| (i * 7 + 1) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..body.len() {
            assert!(seen.insert(checksum(&body[..len])), "collision at {len}");
            if len > 0 {
                let mut bad = body[..len].to_vec();
                bad[len - 1] ^= 0x80;
                assert_ne!(checksum(&bad), checksum(&body[..len]), "len {len}");
            }
        }
    }

    #[test]
    fn decode_cache_matches_from_bytes() {
        let mut cache = PageDecodeCache::new();
        let page = PageBuf::format(Layout::Pax, 3, b"cached body");

        // First decode validates; second decode of the same allocation hits.
        let a = cache.decode(7, page.raw().clone()).unwrap();
        let b = cache.decode(7, page.raw().clone()).unwrap();
        assert!(Bytes::ptr_eq(a.raw(), b.raw()));

        // A different allocation with corrupt contents must be re-validated
        // even though the cache holds a good entry for the LBA.
        let bad = page.corrupted(1, 2);
        assert!(cache.decode(7, bad.raw().clone()).is_err());

        // A rewrite (fresh allocation, valid contents) replaces the entry.
        let page2 = PageBuf::format(Layout::Nsm, 9, b"new body");
        let c = cache.decode(7, page2.raw().clone()).unwrap();
        assert_eq!(c.tuple_count(), 9);
        let d = cache.decode(7, page2.raw().clone()).unwrap();
        assert!(Bytes::ptr_eq(c.raw(), d.raw()));

        // Eviction forgets the LBA (and is a no-op for an unknown one); the
        // next decode validates from scratch and repopulates the memo.
        cache.evict(7);
        cache.evict(8);
        assert!(cache.pages.is_empty());
        let e = cache.decode(7, page2.raw().clone()).unwrap();
        assert_eq!(e.tuple_count(), 9);
        assert_eq!(cache.pages.len(), 1);
    }
}
