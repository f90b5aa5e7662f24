//! The datapack — LoopLynx's unit of data movement.
//!
//! "The DMA engine runs in burst mode to load concatenated
//! `n_group × 8-bit` datapacks onto the chip. We set `n_group = 32` to
//! ensure a sufficient burst size" (paper Section III-D). Routers forward
//! the same 32-byte packs between nodes.

/// Bytes per datapack (`n_group × 8 bit`).
pub const DATAPACK_BYTES: usize = 32;

/// Number of datapacks needed to carry `bytes` (rounded up).
pub const fn datapacks_for(bytes: usize) -> usize {
    bytes.div_ceil(DATAPACK_BYTES)
}

/// A 32-byte pack of int8 payload as moved by DMA engines and routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPack {
    payload: Vec<i8>,
}

impl DataPack {
    /// Wraps exactly one pack of data.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() != DATAPACK_BYTES`.
    pub fn new(payload: Vec<i8>) -> Self {
        assert_eq!(payload.len(), DATAPACK_BYTES, "datapack must be 32 bytes");
        DataPack { payload }
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[i8] {
        &self.payload
    }

    /// Splits a byte stream into datapacks, zero-padding the tail.
    pub fn pack_stream(data: &[i8]) -> Vec<DataPack> {
        data.chunks(DATAPACK_BYTES)
            .map(|chunk| {
                let mut payload = chunk.to_vec();
                payload.resize(DATAPACK_BYTES, 0);
                DataPack { payload }
            })
            .collect()
    }

    /// Reassembles a byte stream from packs, truncating to `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the packs carry fewer than `len` bytes.
    pub fn unpack_stream(packs: &[DataPack], len: usize) -> Vec<i8> {
        let mut out: Vec<i8> = packs
            .iter()
            .flat_map(|p| p.payload.iter().copied())
            .collect();
        assert!(out.len() >= len, "stream shorter than requested length");
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datapack_count_rounds_up() {
        assert_eq!(datapacks_for(0), 0);
        assert_eq!(datapacks_for(1), 1);
        assert_eq!(datapacks_for(32), 1);
        assert_eq!(datapacks_for(33), 2);
        assert_eq!(datapacks_for(1024), 32);
    }

    #[test]
    fn pack_unpack_round_trips() {
        let data: Vec<i8> = (0..77).map(|i| (i % 127) as i8 - 63).collect();
        let packs = DataPack::pack_stream(&data);
        assert_eq!(packs.len(), 3);
        let back = DataPack::unpack_stream(&packs, data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn tail_is_zero_padded() {
        let packs = DataPack::pack_stream(&[1i8, 2, 3]);
        assert_eq!(packs.len(), 1);
        assert_eq!(&packs[0].payload()[..3], &[1, 2, 3]);
        assert!(packs[0].payload()[3..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "32 bytes")]
    fn wrong_size_rejected() {
        let _ = DataPack::new(vec![0i8; 16]);
    }

    #[test]
    #[should_panic(expected = "shorter than requested")]
    fn unpack_checks_length() {
        let packs = DataPack::pack_stream(&[1i8; 10]);
        let _ = DataPack::unpack_stream(&packs, 100);
    }
}
