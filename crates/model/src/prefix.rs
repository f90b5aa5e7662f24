//! Content-addressed prefix index for the paged KV arena.
//!
//! Multi-turn chat re-prefills the same token prefixes on every request.
//! This module gives those prefixes an *identity* so the engine can find
//! already-computed KV pages and share them instead of recomputing: a
//! page's identity is the hash of its token span chained with its
//! predecessor's identity, so two sequences agree on page `i` exactly
//! when they agree on every token up to and including that page.
//!
//! The index is pure bookkeeping — it never touches the arena. The engine
//! owns the pairing: it pins registered pages with
//! [`crate::paged::PagedKvArena::retain_page`] (one pin per entry), maps
//! hits with [`crate::paged::PagedKvArena::map_shared`], and drops pins
//! for pages returned by [`PrefixIndex::evict_lru`].
//!
//! # Hash chain
//!
//! Identities are a seeded FNV-1a fold ([`chain_hash`]): the predecessor
//! hash (the fixed [`PREFIX_SEED`] at the root) is folded with the span
//! length and then each token's little-endian bytes. Folding the length
//! first keeps the chain *prefix-free*: without it, `hash(h, [a, b])`
//! and `hash(hash(h, [a]), [b])` would collapse to the same fold and a
//! partial boundary entry could alias a deeper full-page entry. The
//! chain is fully deterministic — no `DefaultHasher`, no per-process
//! seeding — so every node of a lock-stepped engine computes identical
//! identities (the `determinism` lint rule covers this module).
//!
//! Hashing is an accelerator only: [`PrefixIndex::lookup`] verifies the
//! stored token span byte-for-byte before reporting a hit, so a 64-bit
//! collision costs a cache miss, never a wrong answer.
//!
//! # Entry lifecycle
//!
//! Entries are registered from a slot's finished pages: every *full*
//! page once its span can no longer change, plus (at release time) the
//! final partially-filled page as a chain *terminator*. Each new entry
//! pins its page (the caller holds one arena refcount on its behalf);
//! duplicate registrations refresh recency instead of re-pinning.
//! Eviction picks the least-recently-hit entry whose page is held by
//! nothing but the cache pin (arena refcount 1) and cascades over its
//! descendants, keeping every stored chain contiguous from the root —
//! a lookup can therefore walk pages greedily and stop at the first gap.

use std::collections::BTreeMap;

/// Root of every hash chain: the FNV-1a 64-bit offset basis.
pub const PREFIX_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extend a chain identity `prev` with the token span of one page.
///
/// Deterministic seeded FNV-1a: folds the span length, then each
/// token's little-endian bytes. `chain_hash(PREFIX_SEED, span)` is the
/// identity of a first page; deeper pages chain on their predecessor.
#[must_use]
pub fn chain_hash(prev: u64, tokens: &[u32]) -> u64 {
    let mut h = prev;
    for byte in (tokens.len() as u64).to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    for t in tokens {
        for byte in t.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// One cached page span: the chain link stored under its identity hash.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    /// Exact token span of the page — verified on every lookup.
    tokens: Vec<u32>,
    /// Arena page holding the span's KV rows (pinned by the cache).
    page: usize,
    /// Predecessor identity ([`PREFIX_SEED`] for a first page).
    prev: u64,
    /// Logical recency tick of the last lookup hit (or registration).
    last_hit: u64,
}

/// A resolved prefix hit: pages to map and how many tokens they cover.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Cached arena pages covering the matched prefix, in order.
    pub pages: Vec<usize>,
    /// Matched token count; always `< prompt.len()` so at least one
    /// novel token remains to prefill (the model must produce logits).
    pub tokens: usize,
}

/// Counters describing index traffic, for engine-level stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixIndexStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that matched at least one page.
    pub hits: u64,
    /// Tokens whose prefill was skipped thanks to matched pages.
    pub reused_tokens: u64,
    /// Entries created by [`PrefixIndex::register`].
    pub inserted: u64,
    /// Registration links skipped because an identical span was cached.
    pub deduped: u64,
    /// Entries removed by [`PrefixIndex::evict_lru`] (incl. cascades).
    pub evicted: u64,
}

/// Content-addressed registry of cached KV page spans.
///
/// Deterministic by construction: `BTreeMap` ordering, a seeded hash
/// chain, and a logical tick (no wall clock) for recency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixIndex {
    entries: BTreeMap<u64, Entry>,
    page_tokens: usize,
    tick: u64,
    stats: PrefixIndexStats,
}

impl PrefixIndex {
    /// New empty index for an arena with `page_tokens` tokens per page.
    #[must_use]
    pub fn new(page_tokens: usize) -> Self {
        assert!(page_tokens > 0, "page_tokens must be positive");
        Self {
            entries: BTreeMap::new(),
            page_tokens,
            tick: 0,
            stats: PrefixIndexStats::default(),
        }
    }

    /// Number of cached entries (pages pinned by the cache).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The arena page each entry pins, one per entry — the pins an
    /// arena audit ([`crate::paged::PagedKvArena::audit`]) counts.
    pub fn pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.values().map(|e| e.page)
    }

    /// Traffic counters since construction.
    #[must_use]
    pub fn stats(&self) -> PrefixIndexStats {
        self.stats
    }

    /// Resolve the longest cached prefix of `prompt`.
    ///
    /// Walks full-page links from the root, then tries partial
    /// terminator lengths (longest first) for the boundary. The match
    /// is capped at `prompt.len() - 1` tokens and every link's stored
    /// span is verified against `prompt`, so the result is exact, not
    /// probabilistic. Matched links have their recency refreshed.
    pub fn lookup(&mut self, prompt: &[u32]) -> PrefixMatch {
        self.tick += 1;
        self.stats.lookups += 1;
        let cap = prompt.len().saturating_sub(1);
        let mut m = PrefixMatch::default();
        let mut h = PREFIX_SEED;
        // Full pages first: greedy is safe because eviction keeps every
        // chain contiguous from the root (no gaps to skip over).
        while m.tokens + self.page_tokens <= cap {
            let span = &prompt[m.tokens..m.tokens + self.page_tokens];
            let next = chain_hash(h, span);
            match self.entries.get_mut(&next) {
                Some(e) if e.tokens == span => {
                    e.last_hit = self.tick;
                    m.pages.push(e.page);
                    m.tokens += self.page_tokens;
                    h = next;
                }
                _ => break,
            }
        }
        // Boundary: longest partial terminator that still fits the cap.
        let room = (cap - m.tokens).min(self.page_tokens - 1);
        for len in (1..=room).rev() {
            let span = &prompt[m.tokens..m.tokens + len];
            let next = chain_hash(h, span);
            if let Some(e) = self.entries.get_mut(&next) {
                if e.tokens == span {
                    e.last_hit = self.tick;
                    m.pages.push(e.page);
                    m.tokens += len;
                    break;
                }
            }
        }
        if m.tokens > 0 {
            self.stats.hits += 1;
            self.stats.reused_tokens += m.tokens as u64;
        }
        m
    }

    /// Register the pages holding `tokens` (a slot's fed history).
    ///
    /// `pages` is the slot's block table over that span: one link per
    /// full page, plus — iff `tokens` doesn't end on a page boundary —
    /// a final partial terminator. Links that already exist with the
    /// identical span are refreshed, not re-inserted; a hash collision
    /// with a *different* span stops the chain (nothing past it could
    /// ever be looked up). Returns the pages of newly created entries —
    /// the caller must pin exactly these (one arena refcount each).
    pub fn register(&mut self, tokens: &[u32], pages: &[usize]) -> Vec<usize> {
        let full = tokens.len() / self.page_tokens;
        let rem = tokens.len() % self.page_tokens;
        let want = full + usize::from(rem > 0);
        assert!(
            pages.len() >= want,
            "{} pages cannot hold {} tokens",
            pages.len(),
            tokens.len()
        );
        self.tick += 1;
        let mut pinned = Vec::new();
        let mut h = PREFIX_SEED;
        for (i, &page) in pages.iter().enumerate().take(want) {
            let lo = i * self.page_tokens;
            let span = &tokens[lo..(lo + self.page_tokens).min(tokens.len())];
            let next = chain_hash(h, span);
            match self.entries.get_mut(&next) {
                Some(e) if e.tokens == span => {
                    e.last_hit = self.tick;
                    self.stats.deduped += 1;
                }
                Some(_) => break, // collision: an unreachable tail is useless
                None => {
                    let e = Entry {
                        tokens: span.to_vec(),
                        page,
                        prev: h,
                        last_hit: self.tick,
                    };
                    self.entries.insert(next, e);
                    self.stats.inserted += 1;
                    pinned.push(page);
                }
            }
            if span.len() < self.page_tokens {
                break; // partial links are chain terminators
            }
            h = next;
        }
        pinned
    }

    /// Pages that eviction could release right now: entries whose page
    /// is held by nothing but the cache pin (`refcounts[page] == 1`).
    #[must_use]
    pub fn evictable_pages(&self, refcounts: &[u32]) -> usize {
        self.entries
            .values()
            .filter(|e| refcounts[e.page] == 1)
            .count()
    }

    /// Evict the least-recently-hit entry whose page only the cache
    /// still holds, cascading over its descendants so surviving chains
    /// stay contiguous from the root. Returns the evicted entries'
    /// pages — the caller must drop one pin per page. Empty when no
    /// entry is evictable (every cached page is also mapped by a slot).
    pub fn evict_lru(&mut self, refcounts: &[u32]) -> Vec<usize> {
        // Both lookup and register refresh chains root-first, so an
        // ancestor is never colder than its descendants and the global
        // minimum is always reachable at a leaf of an equally-cold
        // subtree. Descend ties so a cold chain sheds its deepest page
        // first, keeping the shorter (more sharable) prefix cached.
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| refcounts[e.page] == 1)
            .min_by_key(|(hash, e)| (e.last_hit, **hash))
            .map(|(hash, _)| *hash);
        let Some(mut root) = victim else {
            return Vec::new();
        };
        let cold = self.entries[&root].last_hit;
        loop {
            let deeper = self
                .entries
                .iter()
                .filter(|(_, e)| e.prev == root && e.last_hit == cold && refcounts[e.page] == 1)
                .map(|(hash, _)| *hash)
                .min();
            match deeper {
                Some(h) => root = h,
                None => break,
            }
        }
        let mut doomed = vec![root];
        let mut i = 0;
        while i < doomed.len() {
            let parent = doomed[i];
            doomed.extend(
                self.entries
                    .iter()
                    .filter(|(_, e)| e.prev == parent)
                    .map(|(hash, _)| *hash),
            );
            i += 1;
        }
        let mut pages = Vec::with_capacity(doomed.len());
        for hash in doomed {
            let e = self
                .entries
                .remove(&hash)
                .expect("doomed entry vanished mid-cascade");
            self.stats.evicted += 1;
            pages.push(e.page);
        }
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(lo: u32, n: usize) -> Vec<u32> {
        (lo..lo + n as u32).collect()
    }

    #[test]
    fn chain_hash_is_length_disambiguated() {
        // Without length folding these two would collapse to one fold.
        let whole = chain_hash(PREFIX_SEED, &[7, 8]);
        let split = chain_hash(chain_hash(PREFIX_SEED, &[7]), &[8]);
        assert_ne!(whole, split);
        // And it is a pure function of (prev, span).
        assert_eq!(chain_hash(PREFIX_SEED, &[7, 8]), whole);
    }

    #[test]
    fn register_then_lookup_round_trips_full_pages() {
        let mut ix = PrefixIndex::new(4);
        let prompt = toks(10, 8);
        assert_eq!(ix.register(&prompt, &[3, 5]), vec![3, 5]);
        // Identical prompt: both pages hit, capped below prompt length.
        let mut longer = prompt.clone();
        longer.push(99);
        let m = ix.lookup(&longer);
        assert_eq!(
            m,
            PrefixMatch {
                pages: vec![3, 5],
                tokens: 8
            }
        );
        // Exact-length prompt: cap forbids consuming the whole prompt.
        let m = ix.lookup(&prompt);
        assert_eq!(m.tokens, 4);
        assert_eq!(m.pages, vec![3]);
    }

    #[test]
    fn partial_terminator_matches_longest_first() {
        let mut ix = PrefixIndex::new(4);
        // 6 tokens: one full page + a 2-token terminator.
        assert_eq!(ix.register(&toks(0, 6), &[1, 0]), vec![1, 0]);
        let mut prompt = toks(0, 6);
        prompt.extend([50, 51]);
        let m = ix.lookup(&prompt);
        assert_eq!(
            m,
            PrefixMatch {
                pages: vec![1, 0],
                tokens: 6
            }
        );
        // A diverging prompt only matches the full page.
        let mut div = toks(0, 4);
        div.extend([90, 91, 92]);
        let m = ix.lookup(&div);
        assert_eq!(
            m,
            PrefixMatch {
                pages: vec![1],
                tokens: 4
            }
        );
    }

    #[test]
    fn register_dedups_shared_prefixes() {
        let mut ix = PrefixIndex::new(4);
        assert_eq!(ix.register(&toks(0, 8), &[2, 4]), vec![2, 4]);
        // Same first page from another slot: only the novel tail pins.
        let mut other = toks(0, 4);
        other.extend(toks(100, 4));
        assert_eq!(ix.register(&other, &[9, 6]), vec![6]);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.stats().deduped, 1);
        // Lookup of the second prompt routes through the *first* copy.
        let mut probe = other.clone();
        probe.push(1);
        assert_eq!(ix.lookup(&probe).pages, vec![2, 6]);
    }

    #[test]
    fn eviction_is_lru_over_sole_owner_pages_and_cascades() {
        let mut ix = PrefixIndex::new(2);
        // Chain A: pages 0,1 — chain B: page 2.
        ix.register(&toks(0, 4), &[0, 1]);
        ix.register(&toks(50, 2), &[2]);
        // Touch chain B so chain A is the LRU.
        let mut probe = toks(50, 2);
        probe.push(9);
        assert_eq!(ix.lookup(&probe).tokens, 2);
        // All pages sole-owned: chain A is coldest, and its *deepest*
        // page goes first so the sharable shorter prefix survives.
        let mut rc = vec![1u32; 3];
        assert_eq!(ix.evictable_pages(&rc), 3);
        assert_eq!(ix.evict_lru(&rc), vec![1]);
        assert_eq!(ix.evict_lru(&rc), vec![0]);
        assert_eq!(ix.len(), 1);
        // Chain B's page gains a slot mapping: nothing left to evict.
        rc[2] = 2;
        assert_eq!(ix.evictable_pages(&rc), 0);
        assert!(ix.evict_lru(&rc).is_empty());
    }

    #[test]
    fn refreshed_chain_outlives_colder_sibling() {
        let mut ix = PrefixIndex::new(2);
        ix.register(&toks(0, 2), &[0]);
        ix.register(&toks(10, 2), &[1]);
        // Hit the older chain; the sibling becomes the LRU victim.
        let mut probe = toks(0, 2);
        probe.push(7);
        assert_eq!(ix.lookup(&probe).pages, vec![0]);
        assert_eq!(ix.evict_lru(&[1, 1]), vec![1]);
        assert_eq!(ix.lookup(&probe).pages, vec![0]);
    }

    #[test]
    fn collision_with_different_span_is_a_miss_not_a_wrong_answer() {
        let mut ix = PrefixIndex::new(4);
        ix.register(&toks(0, 4), &[3]);
        // Forge an entry whose hash matches some other prompt's first
        // page by registering under the victim hash directly.
        let other = toks(200, 4);
        let h = chain_hash(PREFIX_SEED, &other);
        ix.entries.insert(
            h,
            Entry {
                tokens: toks(0, 4),
                page: 5,
                prev: PREFIX_SEED,
                last_hit: 0,
            },
        );
        let mut probe = other.clone();
        probe.push(1);
        // Token verification rejects the forged span.
        assert_eq!(ix.lookup(&probe).tokens, 0);
        // And registration refuses to chain past the collision.
        assert_eq!(ix.register(&other, &[7]), Vec::<usize>::new());
    }

    #[test]
    fn stats_track_traffic() {
        let mut ix = PrefixIndex::new(2);
        ix.register(&toks(0, 4), &[0, 1]);
        let mut probe = toks(0, 4);
        probe.push(9);
        ix.lookup(&probe);
        ix.lookup(&[99, 98, 97]);
        let s = ix.stats();
        assert_eq!(
            (s.lookups, s.hits, s.reused_tokens, s.inserted),
            (2, 1, 4, 2)
        );
    }
}
