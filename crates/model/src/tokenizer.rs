//! Byte-level tokenizer.
//!
//! GPT-2's BPE vocabulary is unavailable offline; a byte-level tokenizer
//! (every byte is one token, ids 0‥255) preserves everything the
//! reproduction needs — prompt/generation lengths drive all timing results,
//! and the functional model is exercised with real token streams.

/// Byte-level tokenizer: token id = byte value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteTokenizer;

impl ByteTokenizer {
    /// Creates a tokenizer.
    pub fn new() -> Self {
        ByteTokenizer
    }

    /// Encodes a string as one token per UTF-8 byte.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        text.bytes().map(u32::from).collect()
    }

    /// Decodes tokens back to a string; ids ≥ 256 and invalid UTF-8
    /// sequences are replaced with `\u{FFFD}`.
    pub fn decode(&self, tokens: &[u32]) -> String {
        let bytes: Vec<u8> = tokens
            .iter()
            .map(|&t| u8::try_from(t).unwrap_or(b'?'))
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_round_trips() {
        let tok = ByteTokenizer::new();
        let ids = tok.encode("Earth is the");
        assert_eq!(ids.len(), 12);
        assert_eq!(tok.decode(&ids), "Earth is the");
    }

    #[test]
    fn utf8_round_trips() {
        let tok = ByteTokenizer::new();
        let ids = tok.encode("héllo ✓");
        assert_eq!(tok.decode(&ids), "héllo ✓");
    }

    #[test]
    fn out_of_range_tokens_degrade_gracefully() {
        let tok = ByteTokenizer::new();
        let s = tok.decode(&[72, 105, 9999]);
        assert!(s.starts_with("Hi"));
    }

    #[test]
    fn ids_are_bytes() {
        let tok = ByteTokenizer::new();
        assert!(tok.encode("anything").iter().all(|&t| t < 256));
    }

    #[test]
    fn empty_string_is_empty() {
        let tok = ByteTokenizer::new();
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.decode(&[]), "");
    }
}
