//! Bit- and byte-level stream primitives for the Gompresso codecs.
//!
//! The Gompresso/Bit format (like DEFLATE) packs variable-length Huffman code
//! words into a bitstream. This crate provides the low-level readers and
//! writers shared by the compressor, the decompressor and the file-format
//! layer:
//!
//! * [`BitWriter`] / [`BitReader`] — LSB-first bit packing, the convention
//!   used by DEFLATE and by Gompresso/Bit.
//! * [`ByteWriter`] / [`ByteReader`] — bounds-checked little-endian scalar
//!   and slice access used by the file header and the byte-level
//!   (Gompresso/Byte, LZ4-style) formats.
//! * Variable-length integer encoding (`write_varint` / `read_varint`) used
//!   for token counts and sub-block size lists.
//!
//! All readers are fallible: truncated or corrupt input surfaces as
//! [`StreamError`], never as a panic. This is part of the failure-injection
//! contract tested by the property suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitreader;
pub mod bitwriter;
pub mod bytereader;
pub mod bytewriter;
pub mod error;
pub mod varint;

pub use bitreader::{refill_bits, BitReader};
pub use bitwriter::BitWriter;
pub use bytereader::ByteReader;
pub use bytewriter::ByteWriter;
pub use error::StreamError;
pub use varint::{read_varint, varint_len, write_varint, MAX_VARINT_LEN};

/// Result alias used throughout the stream primitives.
pub type Result<T> = std::result::Result<T, StreamError>;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Writing a sequence of (value, width) pairs and reading them back
        /// must reproduce the values exactly, regardless of how the widths
        /// straddle byte boundaries.
        #[test]
        fn bit_roundtrip(pairs in proptest::collection::vec((0u32..u32::MAX, 1u32..=32u32), 0..256)) {
            let mut w = BitWriter::new();
            let mut expected = Vec::with_capacity(pairs.len());
            for &(v, width) in &pairs {
                let masked = if width == 32 { v } else { v & ((1u32 << width) - 1) };
                w.write_bits(masked, width);
                expected.push((masked, width));
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, width) in &expected {
                prop_assert_eq!(r.read_bits(width).unwrap(), v);
            }
        }

        /// Varints round-trip for the full u64 range.
        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut w = ByteWriter::new();
            write_varint(&mut w, v);
            let bytes = w.finish();
            prop_assert_eq!(bytes.len(), varint_len(v));
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(read_varint(&mut r).unwrap(), v);
            prop_assert!(r.is_empty());
        }

        /// Truncating a bitstream never panics; it yields an error once the
        /// requested bits exceed what is available.
        #[test]
        fn truncated_bitstream_errors(data in proptest::collection::vec(any::<u8>(), 0..64),
                                      cut in 0usize..64) {
            let cut = cut.min(data.len());
            let mut r = BitReader::new(&data[..cut]);
            // Read 9 bits at a time until error; must not panic and must
            // terminate.
            let mut total = 0usize;
            while r.read_bits(9).is_ok() {
                total += 9;
                prop_assert!(total <= cut * 8);
            }
        }

        /// Byte reader scalar round-trips.
        #[test]
        fn scalar_roundtrip(a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>()) {
            let mut w = ByteWriter::new();
            w.write_u8(a);
            w.write_u16_le(b);
            w.write_u32_le(c);
            w.write_u64_le(d);
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes);
            prop_assert_eq!(r.read_u8().unwrap(), a);
            prop_assert_eq!(r.read_u16_le().unwrap(), b);
            prop_assert_eq!(r.read_u32_le().unwrap(), c);
            prop_assert_eq!(r.read_u64_le().unwrap(), d);
            prop_assert!(r.is_empty());
        }
    }
}
