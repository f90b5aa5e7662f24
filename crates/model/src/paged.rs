//! Paged (block-table) multi-sequence KV allocator.
//!
//! Preallocating `capacity` tokens per slot makes KV memory scale with
//! `slots × worst-case context` and caps resident concurrency long
//! before admission control does. The paged arena decouples the two: KV
//! storage is a pool of fixed-size **pages**
//! (`page_tokens` tokens each), slots hold a **page table** instead of a
//! private arena, and pages are granted on demand as a sequence grows.
//! Many short sequences can then share the bytes one worst-case sequence
//! would have monopolized — the oversubscription that lets the serving
//! gateway admit bursts instead of rejecting them.
//!
//! # Layout
//!
//! Storage is one pool *per layer* (`LayerPool`), each holding `pages`
//! pages. Within a page the layout is head-major, exactly like the
//! contiguous arena:
//!
//! ```text
//! keys[((page * heads + h) * page_tokens + t) * d_head + j]   (int8)
//! key_scales[(page * heads + h) * page_tokens + t]            (f32)
//! ```
//!
//! so one `(page, head)` pair is a contiguous strip of `page_tokens`
//! tokens — a [`KvSegment`] the attention core iterates directly.
//!
//! Page *indices* form a single space shared by all layers: because every
//! layer of a slot appends the same tokens in lockstep, one grant hands
//! page `p` of **every** layer's pool to the slot, and one per-slot page
//! table serves all layers. Grants take the lowest free index first and
//! releases restore sort order, so identical operation sequences always
//! produce identical page tables (reproducible schedules, and replayed
//! computations stay bit-identical).
//!
//! # Bit-exactness
//!
//! Appends quantize with the same per-head math as the contiguous cache
//! ([`crate::kv_cache`]'s `quantize_chunk`) and attention walks pages in
//! token order through the segment-generic core
//! ([`crate::attention::attend_heads_segments_into`]); per-token dot
//! products are independent, so splitting a sequence across pages changes
//! *where* bytes live but not one arithmetic operation. Paged decode is
//! therefore byte-identical to the contiguous arena by construction — and
//! by the engine-level exactness harness (`core/tests/harness/mod.rs`).
//!
//! # Sharing and copy-on-write
//!
//! Pages carry a **reference count** so one physical page can back the
//! same token span in many readers at once — the substrate of the
//! engine-level prefix cache ([`crate::prefix`] holds the
//! content-addressing). Three kinds of reference exist: a slot's page
//! table entry (granted pages start at count 1), an extra table entry
//! from [`PagedKvArena::map_shared`] (a second sequence mapping a cached
//! prefix), and a cache pin from [`PagedKvArena::retain_page`]. A page
//! returns to the free list only when its count reaches zero, and
//! [`PagedKvArena::release`] reports how many pages a release actually
//! freed so callers can audit conservation.
//!
//! Shared pages are strictly read-only: attention iterates them through
//! [`PagedLayerView`] without writing, and the only writer,
//! [`PagedKvArena::append_at`], requires exclusive ownership. The one
//! legal write into shared territory is appending to a partially-filled
//! boundary page, and [`PagedKvArena::try_reserve`] handles it by
//! **copy-on-write**: it counts one extra page, copies the shared page's
//! bytes across every layer pool into a fresh page, swaps the slot's
//! table entry, and drops one reference on the original — after which
//! the append is an ordinary exclusive write. The fork allocates from
//! the same descending free list as any grant, so replayed schedules
//! still produce identical page tables.

use crate::attention::KvSegment;
use crate::kv_cache::{quantize_chunk, LayerKvCache};

/// A page grant could not be satisfied: the pool has fewer free pages
/// than the operation needs. Nothing was modified — the caller can wait
/// for releases, evict a resident, or surface a typed backend error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagesExhausted {
    /// Pages the operation needed (per layer; layers grant in lockstep).
    pub needed: usize,
    /// Pages free when the grant was attempted.
    pub free: usize,
}

impl std::fmt::Display for PagesExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "page pool exhausted: need {} page(s), {} free",
            self.needed, self.free
        )
    }
}

impl std::error::Error for PagesExhausted {}

/// One layer's page pool: `pages` fixed-size pages of head-major int8
/// keys/values plus per-(head, token) scales.
#[derive(Debug, Clone)]
struct LayerPool {
    keys: Vec<i8>,
    values: Vec<i8>,
    key_scales: Vec<f32>,
    value_scales: Vec<f32>,
}

/// One resident sequence's bookkeeping: its page table and position.
#[derive(Debug, Clone)]
struct PagedSlot {
    /// `table[i]` backs tokens `[i * page_tokens, (i + 1) * page_tokens)`
    /// in every layer's pool.
    table: Vec<usize>,
    /// Tokens this sequence has processed (all layers stay in step).
    pos: usize,
    /// Whether a sequence currently owns this slot.
    in_use: bool,
}

/// The paged multi-sequence KV arena behind the engine's
/// continuous-batching path, with storage decoupled from slot count. See
/// the module docs for layout and invariants.
#[derive(Debug, Clone)]
pub struct PagedKvArena {
    layers: usize,
    d_head: usize,
    heads: usize,
    /// Per-slot token bound (admission-checked worst case).
    capacity: usize,
    /// Tokens per page.
    page_tokens: usize,
    /// Pages per layer pool.
    pages: usize,
    pools: Vec<LayerPool>,
    /// Free page indices, sorted descending so `pop()` yields the lowest
    /// free index (deterministic allocation order).
    free: Vec<usize>,
    /// References per page: table entries holding it (grants and shared
    /// mappings) plus cache pins. Zero exactly when the page is free.
    refcount: Vec<u32>,
    slots: Vec<PagedSlot>,
}

impl PagedKvArena {
    /// Creates an arena of `slots` sequences over a pool of `pages` pages
    /// of `page_tokens` tokens per layer. `capacity` bounds any single
    /// sequence; the pool may hold fewer tokens than `slots × capacity`
    /// (oversubscription) or more (never exhausts).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or a single sequence at `capacity`
    /// could not fit in the pool.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        layers: usize,
        d_head: usize,
        heads: usize,
        slots: usize,
        capacity: usize,
        page_tokens: usize,
        pages: usize,
    ) -> Self {
        assert!(layers > 0, "layers must be positive");
        assert!(d_head > 0, "d_head must be positive");
        assert!(heads > 0, "heads must be positive");
        assert!(slots > 0, "slots must be positive");
        assert!(capacity > 0, "capacity must be positive");
        assert!(page_tokens > 0, "page_tokens must be positive");
        assert!(pages > 0, "pages must be positive");
        assert!(
            pages >= pages_for(capacity, page_tokens),
            "pool too small for one sequence at capacity"
        );
        let cells = pages * heads * page_tokens;
        PagedKvArena {
            layers,
            d_head,
            heads,
            capacity,
            page_tokens,
            pages,
            pools: (0..layers)
                .map(|_| LayerPool {
                    keys: vec![0; cells * d_head],
                    values: vec![0; cells * d_head],
                    key_scales: vec![0.0; cells],
                    value_scales: vec![0.0; cells],
                })
                .collect(),
            free: (0..pages).rev().collect(),
            refcount: vec![0; pages],
            slots: (0..slots)
                .map(|_| PagedSlot {
                    table: Vec::new(),
                    pos: 0,
                    in_use: false,
                })
                .collect(),
        }
    }

    /// Total slots (resident-sequence capacity).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Token bound of any single sequence.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Layers per slot.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// Pages in each layer's pool.
    pub fn total_pages(&self) -> usize {
        self.pages
    }

    /// Currently free pages (per layer; layers grant in lockstep).
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// The block table of `slot`: page indices in token order (entry `i`
    /// backs tokens `[i * page_tokens, (i + 1) * page_tokens)`). Exposed
    /// for allocator audits — no double-grant, deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_pages(&self, slot: usize) -> &[usize] {
        &self.slots[slot].table
    }

    /// Currently free slots.
    pub fn free_slots(&self) -> usize {
        self.slots.iter().filter(|s| !s.in_use).count()
    }

    /// Whether `slot` is owned by a resident sequence.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn in_use(&self, slot: usize) -> bool {
        self.slots[slot].in_use
    }

    /// Claims the lowest-index free slot (empty page table, position 0),
    /// or `None` when every slot is resident. Claims **no pages**; the
    /// first [`PagedKvArena::try_reserve`] does.
    pub fn acquire(&mut self) -> Option<usize> {
        let slot = self.slots.iter().position(|s| !s.in_use)?;
        let state = &mut self.slots[slot];
        state.in_use = true;
        state.pos = 0;
        debug_assert!(state.table.is_empty(), "released slot kept pages");
        Some(slot)
    }

    /// Returns `slot` to the free list and drops one reference on each of
    /// its pages; pages whose count reaches zero return to the pool. Also
    /// the eviction primitive: a preempted sequence releases exactly like
    /// a finished one and is later rebuilt by re-prefill. Returns how many
    /// pages were actually freed (shared pages survive their other
    /// holders), so double-release bugs cannot hide inside aggregate
    /// free-page counts.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or not in use.
    pub fn release(&mut self, slot: usize) -> usize {
        let state = &mut self.slots[slot];
        assert!(state.in_use, "slot {slot} not in use");
        state.in_use = false;
        state.pos = 0;
        let mut freed = 0;
        for page in state.table.drain(..) {
            assert!(self.refcount[page] > 0, "page {page} already free");
            self.refcount[page] -= 1;
            if self.refcount[page] == 0 {
                self.free.push(page);
                freed += 1;
            }
        }
        // Restore descending order so future grants stay lowest-first
        // regardless of release order (deterministic allocation).
        self.free.sort_unstable_by(|a, b| b.cmp(a));
        self.debug_assert_conserved();
        freed
    }

    /// Pool conservation: every page is either free or referenced, never
    /// both, never neither. Debug builds re-check after every lifecycle
    /// transition so a double-free of a shared page can never pass
    /// silently.
    fn debug_assert_conserved(&self) {
        debug_assert_eq!(
            self.free.len() + self.refcount.iter().filter(|&&r| r > 0).count(),
            self.pages,
            "page pool not conserved: free + referenced != total"
        );
        debug_assert!(
            self.free.iter().all(|&p| self.refcount[p] == 0),
            "a free page still carries references"
        );
    }

    /// Reference count of `page` (0 = free).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_refcount(&self, page: usize) -> u32 {
        self.refcount[page]
    }

    /// The per-page reference counts, indexed by page — the snapshot the
    /// prefix cache's eviction bookkeeping reads.
    pub fn refcounts(&self) -> &[u32] {
        &self.refcount
    }

    /// Audits the refcount ledger against ground truth: each page's count
    /// equals the in-use slot tables holding it plus `pins[page]` (the
    /// references held outside the arena: prefix-cache pins), and the free
    /// list is exactly the zero-count pages. A test hook that walks every
    /// slot and page; keep it off hot paths.
    ///
    /// # Panics
    ///
    /// Panics on the first drifted entry, or unless `pins` holds one count
    /// per page.
    pub fn audit(&self, pins: &[u32]) {
        assert_eq!(pins.len(), self.pages, "one pin count per page");
        let mut expected = pins.to_vec();
        for state in self.slots.iter().filter(|s| s.in_use) {
            for &page in &state.table {
                expected[page] += 1;
            }
        }
        for (page, (&want, &got)) in expected.iter().zip(&self.refcount).enumerate() {
            assert_eq!(got, want, "page {page} refcount ledger drifted");
        }
        let zero: Vec<usize> = (0..self.pages)
            .rev()
            .filter(|&p| expected[p] == 0)
            .collect();
        assert_eq!(self.free, zero, "free list disagrees with refcounts");
    }

    /// Pages in `slot`'s table that only it references — what a
    /// preemption of this slot would actually return to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn unshared_pages(&self, slot: usize) -> usize {
        self.slots[slot]
            .table
            .iter()
            .filter(|&&p| self.refcount[p] == 1)
            .count()
    }

    /// Adds a cache pin to a live page (reference count +1). The caller —
    /// the prefix cache — promises to balance it with
    /// [`PagedKvArena::release_page`].
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or free (a free page has no
    /// content to pin).
    pub fn retain_page(&mut self, page: usize) {
        assert!(self.refcount[page] > 0, "cannot pin free page {page}");
        self.refcount[page] += 1;
    }

    /// Drops one reference on `page`; when the count reaches zero the
    /// page returns to the free list. Returns whether this call freed it.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or already free.
    pub fn release_page(&mut self, page: usize) -> bool {
        assert!(self.refcount[page] > 0, "page {page} already free");
        self.refcount[page] -= 1;
        if self.refcount[page] > 0 {
            return false;
        }
        self.free.push(page);
        self.free.sort_unstable_by(|a, b| b.cmp(a));
        self.debug_assert_conserved();
        true
    }

    /// Maps already-populated pages into a freshly acquired `slot` as a
    /// shared read-only prefix covering `tokens` tokens: each page gains a
    /// reference, the slot's table adopts them in order, and its position
    /// jumps to `tokens` as if it had appended them itself. The caller
    /// guarantees the pages hold exactly the KV bytes a prefill of those
    /// tokens would have produced (the prefix cache verifies token spans
    /// before handing pages out).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, not in use, or has any history
    /// (mapping goes under a sequence, never into one); if `tokens`
    /// exceeds the slot capacity or does not fit `pages`'s span; or if
    /// any page is out of range or free.
    pub fn map_shared(&mut self, slot: usize, pages: &[usize], tokens: usize) {
        let state = &self.slots[slot];
        assert!(state.in_use, "slot {slot} not in use");
        assert!(
            state.table.is_empty() && state.pos == 0,
            "slot {slot} already has history; shared prefixes map under a fresh sequence"
        );
        assert!(
            tokens <= self.capacity,
            "shared prefix overflows capacity {}",
            self.capacity
        );
        assert_eq!(
            pages.len(),
            pages_for(tokens, self.page_tokens),
            "page list does not match the token span"
        );
        for &page in pages {
            assert!(self.refcount[page] > 0, "cannot share free page {page}");
        }
        for &page in pages {
            self.refcount[page] += 1;
            self.slots[slot].table.push(page);
        }
        self.slots[slot].pos = tokens;
        self.debug_assert_conserved();
    }

    /// Tokens processed by the sequence in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn pos(&self, slot: usize) -> usize {
        self.slots[slot].pos
    }

    /// Tokens `slot`'s granted pages can hold.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn granted_tokens(&self, slot: usize) -> usize {
        self.slots[slot].table.len() * self.page_tokens
    }

    /// Pages a grant for `additional` more tokens in `slot` would need —
    /// including the extra page a copy-on-write fork of a shared boundary
    /// page costs (see [`PagedKvArena::try_reserve`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn pages_needed(&self, slot: usize, additional: usize) -> usize {
        let state = &self.slots[slot];
        pages_for(state.pos + additional, self.page_tokens).saturating_sub(state.table.len())
            + usize::from(self.needs_cow(slot, additional))
    }

    /// Whether appending `additional` tokens to `slot` would write into a
    /// shared page — only ever the partially-filled boundary page of a
    /// mapped prefix, since fully-written pages are never appended again.
    fn needs_cow(&self, slot: usize, additional: usize) -> bool {
        let state = &self.slots[slot];
        if additional == 0 {
            return false;
        }
        let first = state.pos / self.page_tokens;
        first < state.table.len() && self.refcount[state.table[first]] > 1
    }

    /// Grants pages so `slot` can hold `additional` more tokens. Grants
    /// are all-or-nothing: on [`PagesExhausted`] nothing was modified.
    ///
    /// When the append would land inside a **shared** boundary page (a
    /// mapped prefix ending mid-page), the grant also forks that page
    /// copy-on-write: one extra page is claimed, the shared page's bytes
    /// are copied across every layer pool, the slot's table entry swaps
    /// to the copy, and one reference on the original is dropped. The
    /// slot then owns its whole writable frontier exclusively.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, not in use, or the request would
    /// exceed the per-slot `capacity` (callers screen lengths at
    /// admission, exactly as with the fixed-stride arena).
    pub fn try_reserve(&mut self, slot: usize, additional: usize) -> Result<(), PagesExhausted> {
        assert!(self.slots[slot].in_use, "slot {slot} not in use");
        assert!(
            self.slots[slot].pos + additional <= self.capacity,
            "slot {slot} overflows capacity {}",
            self.capacity
        );
        let needed = self.pages_needed(slot, additional);
        if needed > self.free.len() {
            return Err(PagesExhausted {
                needed,
                free: self.free.len(),
            });
        }
        if self.needs_cow(slot, additional) {
            self.cow_fork(slot);
        }
        let grow = pages_for(self.slots[slot].pos + additional, self.page_tokens)
            - self.slots[slot].table.len();
        for _ in 0..grow {
            let page = self.free.pop().expect("free count checked above");
            debug_assert_eq!(self.refcount[page], 0, "free page was referenced");
            self.refcount[page] = 1;
            self.slots[slot].table.push(page);
        }
        self.debug_assert_conserved();
        Ok(())
    }

    /// Copy-on-write fork of `slot`'s boundary page: claims a free page,
    /// copies the boundary page's bytes (keys, values, both scale planes)
    /// in every layer pool, swaps the table entry and drops one reference
    /// on the shared original. Caller has verified a free page exists.
    fn cow_fork(&mut self, slot: usize) {
        let idx = self.slots[slot].pos / self.page_tokens;
        let src = self.slots[slot].table[idx];
        let dst = self.free.pop().expect("caller checked a free page exists");
        debug_assert_eq!(self.refcount[dst], 0, "free page was referenced");
        let cells = self.heads * self.page_tokens;
        let bytes = cells * self.d_head;
        for pool in &mut self.pools {
            pool.keys
                .copy_within(src * bytes..(src + 1) * bytes, dst * bytes);
            pool.values
                .copy_within(src * bytes..(src + 1) * bytes, dst * bytes);
            pool.key_scales
                .copy_within(src * cells..(src + 1) * cells, dst * cells);
            pool.value_scales
                .copy_within(src * cells..(src + 1) * cells, dst * cells);
        }
        self.refcount[dst] = 1;
        self.refcount[src] -= 1;
        debug_assert!(self.refcount[src] > 0, "fork of an exclusive page");
        self.slots[slot].table[idx] = dst;
    }

    /// Grants pages for a *batch* of `(slot, additional)` requests,
    /// all-or-nothing across the whole batch: on [`PagesExhausted`]
    /// nothing was modified — the error-atomicity the backend's
    /// "on `Err` no state changed" contract requires.
    ///
    /// # Panics
    ///
    /// As [`PagedKvArena::try_reserve`], for any entry.
    pub fn try_reserve_batch(&mut self, entries: &[(usize, usize)]) -> Result<(), PagesExhausted> {
        let needed = entries
            .iter()
            .map(|&(slot, additional)| self.pages_needed(slot, additional))
            .sum();
        if needed > self.free.len() {
            return Err(PagesExhausted {
                needed,
                free: self.free.len(),
            });
        }
        for &(slot, additional) in entries {
            self.try_reserve(slot, additional)
                .expect("batch total checked above");
        }
        Ok(())
    }

    /// Advances `slot`'s position by `tokens` (call after the token walk
    /// appended to every layer).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, the position would exceed the
    /// slot capacity, or the tokens were never granted pages.
    pub fn advance(&mut self, slot: usize, tokens: usize) {
        let granted = self.granted_tokens(slot);
        let state = &mut self.slots[slot];
        assert!(
            state.pos + tokens <= self.capacity,
            "slot {slot} overflows capacity {}",
            self.capacity
        );
        assert!(
            state.pos + tokens <= granted,
            "slot {slot} advanced past its granted pages (reserve first)"
        );
        state.pos += tokens;
    }

    /// Quantizes and appends one token's key/value vectors at absolute
    /// token index `t` of `slot` in `layer` — the same per-head
    /// quantization as [`LayerKvCache::append`], writing into the granted
    /// page instead of a private arena.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `t` has no granted page.
    /// Debug builds additionally assert the vector geometry and the
    /// slot's in-use flag — both loop-invariant caller contracts on the
    /// per-token append path, so release builds skip the re-check (a
    /// violation still cannot write out of bounds: the page-table lookup
    /// below and the pool slices bound every index).
    pub fn append_at(&mut self, slot: usize, layer: usize, t: usize, k: &[f32], v: &[f32]) {
        debug_assert_eq!(k.len(), v.len(), "key/value length mismatch");
        debug_assert_eq!(
            k.len(),
            self.heads * self.d_head,
            "vector geometry mismatch"
        );
        let state = &self.slots[slot];
        debug_assert!(state.in_use, "slot {slot} not in use");
        let (pt, d, heads) = (self.page_tokens, self.d_head, self.heads);
        let page = *state
            .table
            .get(t / pt)
            .unwrap_or_else(|| panic!("token {t} of slot {slot} has no granted page"));
        let local = t % pt;
        debug_assert_eq!(
            self.refcount[page], 1,
            "append into shared page {page} — reserve must copy-on-write first"
        );
        let pool = &mut self.pools[layer];
        for h in 0..heads {
            let cell = (page * heads + h) * pt + local;
            let dst = cell * d;
            pool.key_scales[cell] =
                quantize_chunk(&k[h * d..(h + 1) * d], &mut pool.keys[dst..dst + d]);
            pool.value_scales[cell] =
                quantize_chunk(&v[h * d..(h + 1) * d], &mut pool.values[dst..dst + d]);
        }
    }

    /// A borrowed view of `slot`'s cached tokens in `layer`, iterable as
    /// per-head [`KvSegment`]s (one per page, token order).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn layer_view(&self, slot: usize, layer: usize) -> PagedLayerView<'_> {
        PagedLayerView {
            pool: &self.pools[layer],
            table: &self.slots[slot].table,
            d_head: self.d_head,
            heads: self.heads,
            page_tokens: self.page_tokens,
        }
    }

    /// Copies `slot`'s live tokens in `layer` into a contiguous
    /// [`LayerKvCache`] **without requantizing** — for differential tests
    /// comparing paged content against the fixed-stride reference via
    /// content equality.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn materialize(&self, slot: usize, layer: usize) -> LayerKvCache {
        let pos = self.slots[slot].pos;
        let (d, heads) = (self.d_head, self.heads);
        let mut out = LayerKvCache::with_capacity(d, heads, pos.max(1));
        let view = self.layer_view(slot, layer);
        let mut k = vec![0i8; heads * d];
        let mut v = vec![0i8; heads * d];
        let mut ks = vec![0f32; heads];
        let mut vs = vec![0f32; heads];
        for t in 0..pos {
            for h in 0..heads {
                let (page_idx, local) = (t / self.page_tokens, t % self.page_tokens);
                let page = view.table[page_idx];
                let cell = (page * heads + h) * self.page_tokens + local;
                let src = cell * d;
                k[h * d..(h + 1) * d].copy_from_slice(&view.pool.keys[src..src + d]);
                v[h * d..(h + 1) * d].copy_from_slice(&view.pool.values[src..src + d]);
                ks[h] = view.pool.key_scales[cell];
                vs[h] = view.pool.value_scales[cell];
            }
            out.append_quantized(&k, &ks, &v, &vs);
        }
        out
    }

    /// Live int8 bytes across all resident sequences and layers (keys +
    /// values), counting tokens actually cached — the same accounting as
    /// the fixed-stride arena.
    pub fn byte_len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.in_use)
            .map(|s| 2 * s.pos * self.layers * self.heads * self.d_head)
            .sum()
    }
}

/// Content equality: same geometry bound (`d_head`, `heads`, `layers`)
/// and the same live sequences (occupancy, positions, cached tokens).
/// Pool size, page size and which physical pages back which tokens are
/// ignored — two arenas are equal when attention would read the same
/// bytes from both.
impl PartialEq for PagedKvArena {
    fn eq(&self, other: &Self) -> bool {
        if self.layers != other.layers
            || self.d_head != other.d_head
            || self.heads != other.heads
            || self.slots.len() != other.slots.len()
        {
            return false;
        }
        self.slots
            .iter()
            .zip(&other.slots)
            .enumerate()
            .all(|(slot, (a, b))| {
                a.in_use == b.in_use
                    && a.pos == b.pos
                    && (!a.in_use
                        || (0..self.layers)
                            .all(|l| self.materialize(slot, l) == other.materialize(slot, l)))
            })
    }
}

/// Pages required to hold `tokens` tokens at `page_tokens` per page.
fn pages_for(tokens: usize, page_tokens: usize) -> usize {
    tokens.div_ceil(page_tokens)
}

/// A borrowed view of one slot's cached tokens in one layer. The segment
/// iterator covers every *granted* token slot in token order; callers
/// bound reads with their `valid_len` exactly as with a contiguous cache.
#[derive(Debug, Clone, Copy)]
pub struct PagedLayerView<'a> {
    pool: &'a LayerPool,
    table: &'a [usize],
    d_head: usize,
    heads: usize,
    page_tokens: usize,
}

impl PagedLayerView<'_> {
    /// Head `h`'s cached tokens as contiguous segments, one per page, in
    /// token order.
    ///
    /// # Panics
    ///
    /// The iterator panics on a head out of range.
    pub fn segments(&self, h: usize) -> impl Iterator<Item = KvSegment<'_>> + '_ {
        assert!(h < self.heads, "head {h} out of range");
        let (pt, d, heads) = (self.page_tokens, self.d_head, self.heads);
        let pool = self.pool;
        self.table.iter().map(move |&page| {
            let cell = (page * heads + h) * pt;
            let base = cell * d;
            KvSegment {
                keys: &pool.keys[base..base + pt * d],
                values: &pool.values[base..base + pt * d],
                key_scales: &pool.key_scales[cell..cell + pt],
                value_scales: &pool.value_scales[cell..cell + pt],
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(seed: usize, t: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        (
            (0..n)
                .map(|i| ((seed * 131 + t * 17 + i) as f32 * 0.23).sin())
                .collect(),
            (0..n)
                .map(|i| ((seed * 37 + t * 5 + i + 1) as f32 * 0.19).cos())
                .collect(),
        )
    }

    /// Feeds `len` tokens into `slot`, reserving page by page.
    fn feed(a: &mut PagedKvArena, slot: usize, seed: usize, len: usize) {
        let n = a.heads * 4;
        for t in 0..len {
            a.try_reserve(slot, 1).expect("pool sized for test");
            let (k, v) = tok(seed, t, n);
            for l in 0..a.layers() {
                a.append_at(slot, l, a.pos(slot), &k, &v);
            }
            a.advance(slot, 1);
        }
    }

    #[test]
    fn paged_content_matches_contiguous_cache_bitwise() {
        // The foundational property: a paged slot holds byte-identical
        // content to a LayerKvCache fed the same tokens.
        let mut a = PagedKvArena::new(2, 4, 2, 2, 16, 3, 16);
        let slot = a.acquire().unwrap();
        let mut lone = LayerKvCache::with_capacity(4, 2, 16);
        for t in 0..7 {
            a.try_reserve(slot, 1).unwrap();
            let (k, v) = tok(9, t, 8);
            for l in 0..2 {
                a.append_at(slot, l, t, &k, &v);
            }
            a.advance(slot, 1);
            lone.append(&k, &v);
        }
        assert_eq!(a.materialize(slot, 0), lone);
        assert_eq!(a.materialize(slot, 1), lone);
    }

    #[test]
    fn grants_are_lowest_index_first_and_lazy() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 12, 4, 3);
        let s0 = a.acquire().unwrap();
        assert_eq!(a.free_pages(), 3, "acquire claims no pages");
        a.try_reserve(s0, 1).unwrap();
        assert_eq!(a.free_pages(), 2);
        assert_eq!(a.granted_tokens(s0), 4);
        // Tokens 2..4 fit the granted page: no further grant.
        a.try_reserve(s0, 4).unwrap();
        assert_eq!(a.free_pages(), 2);
        let s1 = a.acquire().unwrap();
        a.try_reserve(s1, 5).unwrap();
        assert_eq!(a.free_pages(), 0);
        assert_eq!(a.slots[s0].table, vec![0]);
        assert_eq!(a.slots[s1].table, vec![1, 2], "lowest free pages first");
    }

    #[test]
    fn no_double_grant_across_slots() {
        let mut a = PagedKvArena::new(1, 4, 1, 4, 8, 2, 8);
        let slots: Vec<usize> = (0..4).map(|_| a.acquire().unwrap()).collect();
        for (i, &s) in slots.iter().enumerate() {
            a.try_reserve(s, 1 + 2 * (i % 2)).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for s in &a.slots {
            for &p in &s.table {
                assert!(seen.insert(p), "page {p} granted twice");
            }
        }
        assert_eq!(seen.len() + a.free_pages(), a.total_pages());
    }

    #[test]
    fn release_returns_pool_to_initial_free_count() {
        let mut a = PagedKvArena::new(2, 4, 2, 3, 16, 4, 12);
        let initial = a.free_pages();
        let s0 = a.acquire().unwrap();
        let s1 = a.acquire().unwrap();
        feed(&mut a, s0, 1, 10);
        feed(&mut a, s1, 2, 5);
        assert!(a.free_pages() < initial);
        a.release(s1);
        a.release(s0);
        assert_eq!(a.free_pages(), initial, "pages leaked");
        assert_eq!(a.byte_len(), 0);
        // And the free list is back in lowest-first order.
        let s = a.acquire().unwrap();
        a.try_reserve(s, 1).unwrap();
        assert_eq!(a.slots[s].table, vec![0]);
    }

    #[test]
    fn allocation_order_is_deterministic() {
        // Two arenas replaying the same acquire/feed/release sequence end
        // with identical page tables — reproducible schedules.
        let run = |a: &mut PagedKvArena| {
            let s0 = a.acquire().unwrap();
            let s1 = a.acquire().unwrap();
            feed(a, s0, 3, 6);
            feed(a, s1, 4, 3);
            a.release(s0);
            let s2 = a.acquire().unwrap();
            feed(a, s2, 5, 4);
            (
                a.slots.iter().map(|s| s.table.clone()).collect::<Vec<_>>(),
                a.free.clone(),
            )
        };
        let mut a = PagedKvArena::new(1, 4, 2, 3, 16, 2, 12);
        let mut b = PagedKvArena::new(1, 4, 2, 3, 16, 2, 12);
        assert_eq!(run(&mut a), run(&mut b));
    }

    #[test]
    fn pages_exhausted_exactly_at_exhaustion() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 8, 2, 4);
        let s0 = a.acquire().unwrap();
        let s1 = a.acquire().unwrap();
        a.try_reserve(s0, 6).unwrap(); // 3 pages
        a.try_reserve(s1, 2).unwrap(); // 1 page → pool dry
        assert_eq!(a.free_pages(), 0);
        // Within granted pages: still fine.
        assert!(a.try_reserve(s1, 2).is_ok());
        // One token past the granted page: exhausted, nothing changed.
        let before = a.slots[s1].table.clone();
        let err = a.try_reserve(s1, 3).unwrap_err();
        assert_eq!(err, PagesExhausted { needed: 1, free: 0 });
        assert_eq!(a.slots[s1].table, before);
        assert_eq!(a.free_pages(), 0);
        // Releasing the big slot makes the same grant succeed.
        a.release(s0);
        assert!(a.try_reserve(s1, 3).is_ok());
    }

    #[test]
    fn batch_reserve_is_all_or_nothing() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 4, 2, 2);
        let s0 = a.acquire().unwrap();
        let s1 = a.acquire().unwrap();
        a.try_reserve_batch(&[(s0, 2), (s1, 2)]).unwrap();
        assert_eq!(a.free_pages(), 0);
        // Both slots full: a batch needing 2 pages fails without granting
        // the first entry's page.
        let err = a.try_reserve_batch(&[(s0, 3), (s1, 3)]).unwrap_err();
        assert_eq!(err.needed, 2);
        assert_eq!(a.granted_tokens(s0), 2);
        assert_eq!(a.granted_tokens(s1), 2);
    }

    #[test]
    fn attention_over_pages_matches_contiguous() {
        use crate::attention::{attend_all, attend_heads_segments_into, AttnScratch};
        let (d_head, heads) = (4, 2);
        let mut a = PagedKvArena::new(1, d_head, heads, 1, 32, 3, 11);
        let slot = a.acquire().unwrap();
        let mut lone = LayerKvCache::with_capacity(d_head, heads, 32);
        for t in 0..10 {
            a.try_reserve(slot, 1).unwrap();
            let (k, v) = tok(7, t, heads * d_head);
            a.append_at(slot, 0, t, &k, &v);
            a.advance(slot, 1);
            lone.append(&k, &v);
        }
        let q: Vec<f32> = (0..heads * d_head)
            .map(|i| (i as f32 * 0.41).cos())
            .collect();
        for valid in [1usize, 3, 4, 7, 10] {
            let reference = attend_all(&q, &lone, heads, d_head, valid);
            let view = a.layer_view(slot, 0);
            let mut scratch = AttnScratch::new();
            let mut out = Vec::new();
            attend_heads_segments_into(
                &q,
                |h| view.segments(h),
                0..heads,
                0,
                d_head,
                valid,
                &mut scratch,
                &mut out,
            );
            assert_eq!(out, reference, "valid_len {valid} diverged");
        }
    }

    #[test]
    fn slot_reuse_after_long_sequence_is_clean() {
        // Regression for the stale-state bug class: a slot that held a
        // long sequence must serve a shorter one with content identical
        // to a never-used arena (no stale positions, scales or page
        // mappings bleeding through).
        let mut a = PagedKvArena::new(2, 4, 2, 2, 32, 4, 16);
        let s = a.acquire().unwrap();
        feed(&mut a, s, 11, 30);
        a.release(s);
        let s2 = a.acquire().unwrap();
        assert_eq!(s2, s, "lowest slot recycled");
        assert_eq!(a.pos(s2), 0, "stale position");
        assert_eq!(a.granted_tokens(s2), 0, "stale page table");
        feed(&mut a, s2, 12, 5);

        let mut fresh = PagedKvArena::new(2, 4, 2, 2, 32, 4, 16);
        let f = fresh.acquire().unwrap();
        feed(&mut fresh, f, 12, 5);
        for l in 0..2 {
            assert_eq!(
                a.materialize(s2, l),
                fresh.materialize(f, l),
                "layer {l} differs from fresh arena"
            );
        }
        assert_eq!(a, fresh, "arena content equality");
    }

    #[test]
    fn equality_ignores_page_geometry() {
        let mut a = PagedKvArena::new(1, 4, 2, 2, 16, 2, 16);
        let mut b = PagedKvArena::new(1, 4, 2, 2, 16, 5, 7);
        let sa = a.acquire().unwrap();
        let sb = b.acquire().unwrap();
        feed(&mut a, sa, 21, 6);
        feed(&mut b, sb, 21, 6);
        assert_eq!(a, b);
        feed(&mut b, sb, 21, 1);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "overflows capacity")]
    fn reserve_past_capacity_panics() {
        let mut a = PagedKvArena::new(1, 4, 1, 1, 4, 2, 4);
        let s = a.acquire().unwrap();
        let _ = a.try_reserve(s, 5);
    }

    #[test]
    #[should_panic(expected = "advanced past its granted pages")]
    fn advance_without_reserve_panics() {
        let mut a = PagedKvArena::new(1, 4, 1, 1, 8, 2, 4);
        let s = a.acquire().unwrap();
        a.advance(s, 1);
    }

    #[test]
    #[should_panic(expected = "no granted page")]
    fn append_without_reserve_panics() {
        let mut a = PagedKvArena::new(1, 4, 1, 1, 8, 2, 4);
        let s = a.acquire().unwrap();
        a.append_at(s, 0, 0, &[0.5; 4], &[0.5; 4]);
    }

    #[test]
    #[should_panic(expected = "not in use")]
    fn releasing_free_slot_panics() {
        let mut a = PagedKvArena::new(1, 4, 1, 1, 8, 2, 4);
        a.release(0);
    }

    #[test]
    fn release_reports_freed_pages_and_conserves_pool() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 16, 4, 8);
        let s = a.acquire().unwrap();
        feed(&mut a, s, 1, 9); // 3 pages
        assert_eq!(a.release(s), 3, "exclusive pages all free on release");
        assert_eq!(a.free_pages(), 8);
    }

    #[test]
    fn shared_pages_survive_one_release_and_free_on_the_last() {
        let mut a = PagedKvArena::new(2, 4, 2, 3, 16, 4, 8);
        let s0 = a.acquire().unwrap();
        feed(&mut a, s0, 5, 8); // exactly 2 full pages
        let pages = a.slot_pages(s0).to_vec();
        // Pin both pages as a cache would, then map them under s1.
        for &p in &pages {
            a.retain_page(p);
        }
        let s1 = a.acquire().unwrap();
        a.map_shared(s1, &pages, 8);
        assert_eq!(a.pos(s1), 8);
        for &p in &pages {
            assert_eq!(a.page_refcount(p), 3, "owner + pin + shared mapping");
        }
        // Owner leaves: nothing freed, s1 still reads identical bytes.
        assert_eq!(a.release(s0), 0);
        for l in 0..2 {
            let m = a.materialize(s1, l);
            assert_eq!(m.len(), 8);
        }
        // Shared reader leaves: still pinned by the cache.
        assert_eq!(a.release(s1), 0);
        // Cache unpins: pages finally free.
        assert!(a.release_page(pages[0]));
        assert!(a.release_page(pages[1]));
        assert_eq!(a.free_pages(), 8);
    }

    #[test]
    fn unshared_page_count_sees_through_sharing() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 16, 4, 8);
        let s0 = a.acquire().unwrap();
        feed(&mut a, s0, 2, 8); // 2 pages
        let pages = a.slot_pages(s0).to_vec();
        for &p in &pages {
            a.retain_page(p);
        }
        assert_eq!(a.unshared_pages(s0), 0, "every page pinned by the cache");
        let s1 = a.acquire().unwrap();
        a.map_shared(s1, &pages, 8);
        a.try_reserve(s1, 4).unwrap(); // grows one exclusive page
        assert_eq!(a.unshared_pages(s1), 1);
    }

    #[test]
    fn cow_fork_splits_partial_boundary_page_bitwise() {
        // Fill 6 tokens (1.5 pages of 4), share both pages into s1, then
        // append through the boundary: the fork must copy the 2 valid
        // boundary tokens bit-exactly and leave the original untouched.
        let mut a = PagedKvArena::new(2, 4, 2, 2, 16, 4, 8);
        let s0 = a.acquire().unwrap();
        feed(&mut a, s0, 9, 6);
        let pages = a.slot_pages(s0).to_vec();
        for &p in &pages {
            a.retain_page(p);
        }
        let before: Vec<LayerKvCache> = (0..2).map(|l| a.materialize(s0, l)).collect();

        let s1 = a.acquire().unwrap();
        a.map_shared(s1, &pages, 6);
        // Appending one token needs no new span page but must COW the
        // boundary page.
        assert_eq!(a.pages_needed(s1, 1), 1, "COW page counted");
        let free_before = a.free_pages();
        a.try_reserve(s1, 1).unwrap();
        assert_eq!(a.free_pages(), free_before - 1);
        assert_ne!(a.slot_pages(s1)[1], pages[1], "boundary page forked");
        assert_eq!(a.slot_pages(s1)[0], pages[0], "full page still shared");
        assert_eq!(a.page_refcount(pages[1]), 2, "owner + pin, mapping gone");

        // Continue the sequence in s1 identically to a lone arena.
        let n = a.heads * 4;
        for t in 6..9 {
            a.try_reserve(s1, 1).unwrap();
            let (k, v) = tok(9, t, n);
            for l in 0..a.layers() {
                a.append_at(s1, l, t, &k, &v);
            }
            a.advance(s1, 1);
        }
        let mut fresh = PagedKvArena::new(2, 4, 2, 2, 16, 4, 8);
        let f = fresh.acquire().unwrap();
        feed(&mut fresh, f, 9, 9);
        for (l, kept) in before.iter().enumerate() {
            assert_eq!(
                a.materialize(s1, l),
                fresh.materialize(f, l),
                "layer {l}: COW continuation diverged"
            );
            assert_eq!(
                &a.materialize(s0, l),
                kept,
                "layer {l}: original mutated by the fork"
            );
        }
    }

    #[test]
    fn map_shared_at_page_boundary_needs_no_cow() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 16, 4, 8);
        let s0 = a.acquire().unwrap();
        feed(&mut a, s0, 3, 4); // exactly one full page
        let pages = a.slot_pages(s0).to_vec();
        a.retain_page(pages[0]);
        let s1 = a.acquire().unwrap();
        a.map_shared(s1, &pages, 4);
        assert_eq!(a.pages_needed(s1, 1), 1, "just the new span page");
        a.try_reserve(s1, 1).unwrap();
        assert_eq!(a.slot_pages(s1)[0], pages[0], "boundary-aligned share kept");
    }

    #[test]
    #[should_panic(expected = "already has history")]
    fn map_shared_into_running_sequence_panics() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 16, 4, 8);
        let s0 = a.acquire().unwrap();
        feed(&mut a, s0, 3, 4);
        let pages = a.slot_pages(s0).to_vec();
        a.retain_page(pages[0]);
        let s1 = a.acquire().unwrap();
        feed(&mut a, s1, 4, 1);
        a.map_shared(s1, &pages, 4);
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn double_release_of_cache_pin_panics() {
        let mut a = PagedKvArena::new(1, 4, 1, 1, 16, 4, 8);
        let s = a.acquire().unwrap();
        feed(&mut a, s, 1, 4);
        let page = a.slot_pages(s)[0];
        a.retain_page(page);
        a.release(s);
        assert!(a.release_page(page));
        let _ = a.release_page(page);
    }

    #[test]
    fn audit_passes_a_balanced_ledger_with_pins() {
        let mut a = PagedKvArena::new(1, 4, 1, 2, 16, 4, 8);
        let s = a.acquire().unwrap();
        feed(&mut a, s, 1, 6);
        let mut pins = vec![0; 8];
        let page = a.slot_pages(s)[0];
        a.retain_page(page);
        pins[page] += 1;
        a.audit(&pins);
        a.release(s);
        a.audit(&pins);
    }

    #[test]
    #[should_panic(expected = "refcount ledger drifted")]
    fn audit_catches_a_stray_pin() {
        let mut a = PagedKvArena::new(1, 4, 1, 1, 16, 4, 8);
        let s = a.acquire().unwrap();
        feed(&mut a, s, 1, 4);
        a.retain_page(a.slot_pages(s)[0]);
        a.audit(&[0; 8]);
    }

    #[test]
    fn byte_accounting_counts_live_tokens_only() {
        let mut a = PagedKvArena::new(2, 4, 2, 2, 8, 4, 4);
        assert_eq!(a.byte_len(), 0);
        let s = a.acquire().unwrap();
        feed(&mut a, s, 1, 1);
        // 1 token × 2 layers × 2 heads × 4 d_head × 2 sides
        assert_eq!(a.byte_len(), 32);
    }
}
