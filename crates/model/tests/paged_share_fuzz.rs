//! Sharing fuzz: random acquire/feed/pin/share/release scripts against
//! [`PagedKvArena`] with page sharing in play, auditing the refcount
//! ledger ([`PagedKvArena::audit`]) after every op — a page's count must
//! equal the slot tables holding it plus its cache-style pins, free
//! pages are exactly the zero-count pages, and copy-on-write forks the
//! boundary page out of a shared chain without touching the original.
//!
//! This suite is the Miri-facing wall for the shared-page lifecycle:
//! it drives every grant/map/fork/release path with no model compute,
//! so the interpreter can afford full scripts.

use proptest::prelude::*;

use looplynx_model::paged::PagedKvArena;

const LAYERS: usize = 2;
const D_HEAD: usize = 4;
const HEADS: usize = 2;
const SLOTS: usize = 4;
const CAPACITY: usize = 24;

/// A released slot's pinned page chain, available for `map_shared`.
struct Cached {
    pages: Vec<usize>,
    tokens: usize,
}

fn kv(seed: usize, t: usize) -> (Vec<f32>, Vec<f32>) {
    let n = HEADS * D_HEAD;
    (
        (0..n)
            .map(|i| ((seed * 131 + t * 17 + i) as f32 * 0.23).sin())
            .collect(),
        (0..n)
            .map(|i| ((seed * 37 + t * 5 + i + 1) as f32 * 0.19).cos())
            .collect(),
    )
}

/// Feeds `len` tokens into `slot`, reserving token by token (each
/// reserve may copy-on-write a shared boundary page first).
fn feed(a: &mut PagedKvArena, slot: usize, seed: usize, len: usize) {
    for _ in 0..len {
        a.try_reserve(slot, 1).expect("pool sized for script");
        let t = a.pos(slot);
        let (k, v) = kv(seed, t);
        for l in 0..a.layers() {
            a.append_at(slot, l, t, &k, &v);
        }
        a.advance(slot, 1);
    }
}

const CASES: u32 = if cfg!(miri) { 4 } else { 48 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// For any op script over shared pages: the refcount ledger always
    /// matches ground truth, releases free exactly the sole-owner
    /// pages, copy-on-write evicts the shared boundary page from the
    /// writer's table (and only the writer's), and dropping every pin
    /// and slot drains the pool back to its initial free count.
    #[test]
    fn shared_page_lifecycle_holds_under_any_script(
        ops in proptest::collection::vec((0u8..5, 0usize..4, 1usize..7), 0..50),
        page_idx in 0usize..3,
    ) {
        let page_tokens = [2usize, 4, 8][page_idx];
        let pool = CAPACITY.div_ceil(page_tokens) * 2 + 4;
        let mut a = PagedKvArena::new(
            LAYERS, D_HEAD, HEADS, SLOTS, CAPACITY, page_tokens, pool,
        );
        let mut pins = vec![0u32; pool];
        let mut cached: Vec<Cached> = Vec::new();
        let mut seed = 1usize;

        for (op, pick, amount) in ops {
            match op {
                // Admit a fresh sequence.
                0 => {
                    a.acquire();
                }
                // Feed tokens; through a shared boundary page this is
                // the copy-on-write path.
                1 => {
                    let slot = pick % SLOTS;
                    if a.in_use(slot) && a.pos(slot) + amount <= CAPACITY {
                        let needed = a.pages_needed(slot, amount);
                        if needed <= a.free_pages() {
                            let boundary = a.pos(slot) / page_tokens;
                            let shared_boundary = a
                                .slot_pages(slot)
                                .get(boundary)
                                .copied()
                                .filter(|&p| a.page_refcount(p) > 1);
                            seed += 1;
                            feed(&mut a, slot, seed, amount);
                            if let Some(old) = shared_boundary {
                                let now = a.slot_pages(slot)[boundary];
                                // Append through a shared page must fork it.
                                prop_assert_ne!(now, old);
                                prop_assert!(
                                    a.page_refcount(old) > 0,
                                    "the original kept its other holders"
                                );
                            }
                        }
                    }
                }
                // Release, pinning the chain first (the cache's move):
                // the freed count must be exactly the sole-owner pages.
                2 => {
                    let slot = pick % SLOTS;
                    if a.in_use(slot) {
                        let table = a.slot_pages(slot).to_vec();
                        let tokens = a.pos(slot);
                        let keep = amount % 2 == 0 && tokens > 0;
                        if keep {
                            for &p in &table {
                                a.retain_page(p);
                                pins[p] += 1;
                            }
                        }
                        let sole = table
                            .iter()
                            .filter(|&&p| a.page_refcount(p) == 1)
                            .count();
                        let free_before = a.free_pages();
                        let freed = a.release(slot);
                        prop_assert_eq!(freed, sole, "release freed the wrong pages");
                        prop_assert_eq!(a.free_pages(), free_before + freed);
                        if keep {
                            cached.push(Cached { pages: table, tokens });
                        }
                    }
                }
                // Map a pinned chain under a fresh slot, read-only.
                3 => {
                    if !cached.is_empty() {
                        let c = &cached[pick % cached.len()];
                        if let Some(slot) = a.acquire() {
                            a.map_shared(slot, &c.pages, c.tokens);
                            prop_assert_eq!(a.pos(slot), c.tokens);
                        }
                    }
                }
                // Drop one cached chain's pins (cache eviction).
                _ => {
                    if !cached.is_empty() {
                        let c = cached.swap_remove(pick % cached.len());
                        for p in c.pages {
                            a.release_page(p);
                            pins[p] -= 1;
                        }
                    }
                }
            }
            a.audit(&pins);
        }

        // Drain everything: the pool must come back whole.
        for c in cached.drain(..) {
            for p in c.pages {
                a.release_page(p);
                pins[p] -= 1;
            }
        }
        for slot in 0..SLOTS {
            if a.in_use(slot) {
                a.release(slot);
            }
        }
        a.audit(&pins);
        prop_assert_eq!(a.free_pages(), pool, "drained pool leaked pages");
    }

    /// Sharing is content-transparent: a slot that maps a cached chain
    /// and appends a continuation materializes bit-identically to a
    /// slot fed the same tokens from scratch — including when the
    /// continuation forks a partially-filled boundary page.
    #[test]
    fn mapped_continuation_matches_from_scratch_bitwise(
        prefix in 1usize..12,
        extra in 1usize..8,
        page_idx in 0usize..3,
    ) {
        let page_tokens = [2usize, 4, 8][page_idx];
        let pool = 24usize.div_ceil(page_tokens) * 3;
        let mut a = PagedKvArena::new(
            LAYERS, D_HEAD, HEADS, SLOTS, CAPACITY, page_tokens, pool,
        );

        // Build the prefix, pin it, release the builder.
        let s0 = a.acquire().unwrap();
        feed(&mut a, s0, 7, prefix);
        let chain = a.slot_pages(s0).to_vec();
        for &p in &chain {
            a.retain_page(p);
        }
        a.release(s0);

        // Map + continue in one slot; replay everything in another.
        let hit = a.acquire().unwrap();
        a.map_shared(hit, &chain, prefix);
        for t in 0..extra {
            a.try_reserve(hit, 1).unwrap();
            let (k, v) = kv(7, prefix + t);
            for l in 0..LAYERS {
                a.append_at(hit, l, prefix + t, &k, &v);
            }
            a.advance(hit, 1);
        }
        let replay = a.acquire().unwrap();
        feed(&mut a, replay, 7, prefix + extra);

        for l in 0..LAYERS {
            prop_assert_eq!(
                a.materialize(hit, l),
                a.materialize(replay, l),
                "mapped continuation diverged at layer {}",
                l
            );
        }
    }
}
