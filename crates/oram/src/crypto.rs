//! Block payloads.
//!
//! The real Palermo hardware re-encrypts every block with a fresh key and
//! counter before it is written back to untrusted DRAM. The timing model
//! charges decryption as a fixed latency per `ReadPath` phase, and no DRAM
//! address depends on a ciphertext, so the engines carry each block's
//! plaintext.

use crate::params::BLOCK_BYTES;
use std::fmt;

/// The contents of one [`BLOCK_BYTES`]-byte block.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Payload(pub [u8; BLOCK_BYTES as usize]);

impl Payload {
    /// A payload of all zero bytes (what an untouched block reads as).
    pub fn zeroed() -> Self {
        Payload([0u8; BLOCK_BYTES as usize])
    }

    /// Builds a payload whose first eight bytes hold `value` (little endian)
    /// and whose remaining bytes are zero. Convenient for tests.
    pub fn from_u64(value: u64) -> Self {
        let mut bytes = [0u8; BLOCK_BYTES as usize];
        bytes[..8].copy_from_slice(&value.to_le_bytes());
        Payload(bytes)
    }

    /// Reads back the `u64` stored by [`Payload::from_u64`].
    pub fn as_u64(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[..8]);
        u64::from_le_bytes(b)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::zeroed()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload(0x{:016x}..)", self.as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_u64_round_trip() {
        for v in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(Payload::from_u64(v).as_u64(), v);
        }
        assert_eq!(Payload::zeroed().as_u64(), 0);
        assert_eq!(Payload::default(), Payload::zeroed());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Payload::from_u64(5));
        assert!(s.contains("Payload"));
    }
}
