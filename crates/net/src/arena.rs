//! Arena co-location of neighbour state.
//!
//! [`NeighborTable`] gives every node two heap `Vec`s (plus an inline key
//! mirror sized for the worst case); at fleet scale that is millions of
//! scattered allocations, and the `observe` path — the hottest call in the
//! megacity bench — pays a dependent cache miss into each node's own little
//! heap islands. [`NeighborArena`] replaces all of that with **one
//! contiguous slab** shared by the whole fleet: entries live in fixed-size
//! blocks (index-linked, ascending by [`NodeId`] across a node's chain),
//! nodes hold a 16-byte [`ArenaTable`] handle instead of owning storage,
//! and blocks freed by neighbour churn go on a free list for O(1) reuse.
//! Observe/purge walks touch a handful of adjacent cache lines in one
//! region the hardware prefetcher understands, and the per-node handle
//! shrinks the fleet's node array by two orders of magnitude.
//!
//! The eager [`NeighborTable`] remains the reference implementation: the
//! property tests in this module drive both through randomised churn and
//! pin identical observe results, iteration order, loss observations and
//! deadline evolution — the same technique that pinned lazy expiry and the
//! incremental grid.
//!
//! Protocols never mutate neighbour state, so they read through
//! [`NeighborView`], a copyable facade over either backing store with the
//! exact read API (`contains` / `get` / `iter` / `closest_to` /
//! `greedy_next_hop` / `ranked_by`) and the same ascending-id iteration
//! order the deterministic driver depends on.

// lint: hot-path

use crate::neighbor::{NeighborInfo, NeighborTable};
use vanet_mobility::geometry::distance;
use vanet_mobility::{Position, Vec2, Velocity};
use vanet_sim::{NodeId, SimDuration, SimTime};

/// Entries per block. Thirty-two 56-byte entries keep a realistic urban
/// density (~50 neighbours) to a two-to-three block chain, so a lookup's
/// pointer-chase is bounded by a couple of dependent loads; the compact key
/// mirror at the front of the block means the in-block scan touches two
/// cache lines before any payload is read. (Narrower blocks were measured
/// slower: with 8 entries the same density chained ~7 scattered blocks and
/// the dependent misses dominated the refresh path.)
const BLOCK_ENTRIES: usize = 32;

/// Null block index (the slab can therefore hold up to `u32::MAX - 1`
/// blocks, far beyond any fleet this simulates).
const NIL: u32 = u32::MAX;

/// Filler for unoccupied entry slots; never observable through the API.
const EMPTY_INFO: NeighborInfo = NeighborInfo {
    id: NodeId(0),
    position: Vec2::ZERO,
    velocity: Vec2::ZERO,
    last_heard: SimTime::ZERO,
    expires_at: SimTime::ZERO,
};

/// One slab block: up to [`BLOCK_ENTRIES`] entries sorted ascending by id,
/// with the ids mirrored in a compact key array so lookups scan keys
/// without striding through payloads (the same layout trick the reference
/// table uses, applied per block).
#[derive(Debug, Clone)]
struct Block {
    /// `keys[i] == entries[i].id` for `i < len`.
    keys: [NodeId; BLOCK_ENTRIES],
    /// Occupied entry count (≥ 1 for every block linked into a chain).
    len: u32,
    /// Next block in this node's chain, or — for blocks on the free list —
    /// the next free block. [`NIL`] terminates both lists.
    next: u32,
    /// Entry payloads.
    entries: [NeighborInfo; BLOCK_ENTRIES],
}

impl Block {
    fn empty() -> Self {
        Block {
            keys: [NodeId(0); BLOCK_ENTRIES],
            len: 0,
            next: NIL,
            entries: [EMPTY_INFO; BLOCK_ENTRIES],
        }
    }
}

/// A node's handle into the [`NeighborArena`]: the head of its block chain
/// plus the cached entry count and the lazy-expiry deadline bound. 16 bytes
/// where the owning [`NeighborTable`] was hundreds — the fleet's node array
/// stays dense.
#[derive(Debug, Clone, Copy)]
pub struct ArenaTable {
    head: u32,
    len: u32,
    /// Lower bound on the earliest `expires_at` among live entries, or
    /// [`SimTime::MAX`] when empty — identical semantics (and evolution) to
    /// [`NeighborTable::next_deadline`].
    next_deadline: SimTime,
}

impl Default for ArenaTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ArenaTable {
    /// Creates an empty handle.
    #[must_use]
    pub fn new() -> Self {
        ArenaTable {
            head: NIL,
            len: 0,
            next_deadline: SimTime::MAX,
        }
    }

    /// Number of neighbours.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lazy-expiry deadline bound (see [`NeighborTable::next_deadline`]).
    #[must_use]
    pub fn next_deadline(&self) -> SimTime {
        self.next_deadline
    }
}

/// The shared neighbour-state slab: one `Vec<Block>` for the whole fleet,
/// with an intrusive free list recycling blocks vacated by churn.
#[derive(Debug, Clone, Default)]
pub struct NeighborArena {
    blocks: Vec<Block>,
    free_head: u32,
    free_len: usize,
}

impl NeighborArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        NeighborArena {
            // lint: allow(P1) — construction, once per simulation; the slab
            // itself is what makes the steady state alloc-free.
            blocks: Vec::new(),
            free_head: NIL,
            free_len: 0,
        }
    }

    /// Creates an arena with room for `blocks` blocks before the slab has
    /// to reallocate — sized from the scenario's node count and expected
    /// neighbour density so fleet start-up never pays a doubling ramp over
    /// a multi-gigabyte slab.
    #[must_use]
    pub fn with_block_capacity(blocks: usize) -> Self {
        NeighborArena {
            // lint: allow(P1) — pre-sizing at scenario setup: this is the
            // one allocation that prevents the doubling ramp later.
            blocks: Vec::with_capacity(blocks),
            free_head: NIL,
            free_len: 0,
        }
    }

    /// How many blocks a fleet of `nodes` nodes needs if each averages
    /// `expected_neighbors` entries (rounded up per node, plus one spill
    /// block each).
    #[must_use]
    pub fn blocks_for(nodes: usize, expected_neighbors: f64) -> usize {
        let per_node = (expected_neighbors.max(0.0) / BLOCK_ENTRIES as f64).ceil() as usize + 1;
        nodes.saturating_mul(per_node)
    }

    /// Total slab blocks (live + free).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks currently parked on the free list.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free_len
    }

    fn alloc_block(&mut self) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let b = &mut self.blocks[idx as usize];
            self.free_head = b.next;
            self.free_len -= 1;
            b.len = 0;
            b.next = NIL;
            idx
        } else {
            let idx = u32::try_from(self.blocks.len()).expect("arena slab outgrew u32 indices");
            assert!(idx != NIL, "arena slab outgrew u32 indices");
            self.blocks.push(Block::empty());
            idx
        }
    }

    fn free_block(&mut self, idx: u32) {
        let b = &mut self.blocks[idx as usize];
        b.len = 0;
        b.next = self.free_head;
        self.free_head = idx;
        self.free_len += 1;
    }

    /// Inserts or refreshes a neighbour — identical contract to
    /// [`NeighborTable::observe`], including the conservative deadline
    /// bound update. Returns `true` when the neighbour was newly inserted.
    pub fn observe(
        &mut self,
        table: &mut ArenaTable,
        id: NodeId,
        position: Position,
        velocity: Velocity,
        now: SimTime,
        lifetime: SimDuration,
    ) -> bool {
        let expires_at = now + lifetime;
        let info = NeighborInfo {
            id,
            position,
            velocity,
            last_heard: now,
            expires_at,
        };
        let inserted = self.upsert(table, info);
        if expires_at < table.next_deadline {
            table.next_deadline = expires_at;
        }
        inserted
    }

    /// Inserts `info` keeping the chain sorted ascending by id, or replaces
    /// the existing entry in place. Full blocks split in half (classic
    /// unrolled-list insert); appends past a full tail block link a fresh
    /// block instead, which keeps the monotonically-growing case dense.
    fn upsert(&mut self, table: &mut ArenaTable, info: NeighborInfo) -> bool {
        let id = info.id;
        if table.head == NIL {
            let nb = self.alloc_block();
            let blk = &mut self.blocks[nb as usize];
            blk.keys[0] = id;
            blk.entries[0] = info;
            blk.len = 1;
            table.head = nb;
            table.len = 1;
            return true;
        }
        // Target: the first block whose last key is >= id, else the tail.
        let mut cur = table.head;
        loop {
            let blk = &self.blocks[cur as usize];
            if blk.keys[blk.len as usize - 1] >= id || blk.next == NIL {
                break;
            }
            cur = blk.next;
        }
        let blk = &self.blocks[cur as usize];
        let n = blk.len as usize;
        let pos = blk.keys[..n].iter().position(|&k| k >= id).unwrap_or(n);
        if pos < n && blk.keys[pos] == id {
            self.blocks[cur as usize].entries[pos] = info;
            return false;
        }
        table.len += 1;
        if n < BLOCK_ENTRIES {
            let blk = &mut self.blocks[cur as usize];
            for i in (pos..n).rev() {
                blk.keys[i + 1] = blk.keys[i];
                blk.entries[i + 1] = blk.entries[i];
            }
            blk.keys[pos] = id;
            blk.entries[pos] = info;
            blk.len += 1;
            return true;
        }
        if pos == BLOCK_ENTRIES {
            // Appending past a full tail block (the selection loop only
            // leaves pos == n on the tail): link a fresh block.
            let nb = self.alloc_block();
            let blk = &mut self.blocks[nb as usize];
            blk.keys[0] = id;
            blk.entries[0] = info;
            blk.len = 1;
            self.blocks[cur as usize].next = nb;
            return true;
        }
        // Split: upper half moves to a recycled/new block linked after cur.
        const HALF: usize = BLOCK_ENTRIES / 2;
        let nb = self.alloc_block();
        let mut upper_keys = [NodeId(0); HALF];
        let mut upper_entries = [EMPTY_INFO; HALF];
        {
            let blk = &mut self.blocks[cur as usize];
            upper_keys.copy_from_slice(&blk.keys[HALF..]);
            upper_entries.copy_from_slice(&blk.entries[HALF..]);
            blk.len = HALF as u32;
        }
        let old_next = self.blocks[cur as usize].next;
        {
            let blk = &mut self.blocks[nb as usize];
            blk.keys[..HALF].copy_from_slice(&upper_keys);
            blk.entries[..HALF].copy_from_slice(&upper_entries);
            blk.len = HALF as u32;
            blk.next = old_next;
        }
        self.blocks[cur as usize].next = nb;
        let (target, at) = if pos <= HALF {
            (cur, pos)
        } else {
            (nb, pos - HALF)
        };
        let blk = &mut self.blocks[target as usize];
        let n = blk.len as usize;
        for i in (at..n).rev() {
            blk.keys[i + 1] = blk.keys[i];
            blk.entries[i + 1] = blk.entries[i];
        }
        blk.keys[at] = id;
        blk.entries[at] = info;
        blk.len += 1;
        true
    }

    /// Lazy purge with the exact [`NeighborTable::purge_due`] contract:
    /// O(1) until the deadline bound falls due, then one chain scan that
    /// appends expired ids (ascending) to `out`, frees emptied blocks to
    /// the free list and tightens the bound.
    pub fn purge_due(&mut self, table: &mut ArenaTable, now: SimTime, out: &mut Vec<NodeId>) {
        if table.next_deadline >= now {
            return;
        }
        self.scan_and_purge(table, now, out);
    }

    /// Eager purge mirroring [`NeighborTable::purge_expired`]; used by the
    /// equivalence tests.
    pub fn purge_expired(&mut self, table: &mut ArenaTable, now: SimTime) -> Vec<NodeId> {
        // lint: allow(P1) — reference form for the equivalence tests only;
        // the sim drives `purge_due` with a caller-owned buffer.
        let mut out = Vec::new();
        self.scan_and_purge(table, now, &mut out);
        out
    }

    fn scan_and_purge(&mut self, table: &mut ArenaTable, now: SimTime, out: &mut Vec<NodeId>) {
        let mut earliest = SimTime::MAX;
        let mut live = 0u32;
        let mut prev = NIL;
        let mut cur = table.head;
        while cur != NIL {
            let blk = &mut self.blocks[cur as usize];
            let next = blk.next;
            let n = blk.len as usize;
            let mut write = 0;
            for read in 0..n {
                let e = blk.entries[read];
                if e.expires_at < now {
                    out.push(e.id);
                } else {
                    if e.expires_at < earliest {
                        earliest = e.expires_at;
                    }
                    blk.keys[write] = blk.keys[read];
                    blk.entries[write] = e;
                    write += 1;
                }
            }
            blk.len = write as u32;
            live += write as u32;
            if write == 0 {
                if prev == NIL {
                    table.head = next;
                } else {
                    self.blocks[prev as usize].next = next;
                }
                self.free_block(cur);
            } else {
                prev = cur;
            }
            cur = next;
        }
        table.len = live;
        table.next_deadline = earliest;
    }

    /// Removes a specific neighbour, freeing its block if that empties it.
    pub fn remove(&mut self, table: &mut ArenaTable, id: NodeId) -> Option<NeighborInfo> {
        let mut prev = NIL;
        let mut cur = table.head;
        while cur != NIL {
            let blk = &self.blocks[cur as usize];
            let next = blk.next;
            let n = blk.len as usize;
            if id <= blk.keys[n - 1] {
                let i = blk.keys[..n].iter().position(|&k| k == id)?;
                let blk = &mut self.blocks[cur as usize];
                let removed = blk.entries[i];
                for j in i..n - 1 {
                    blk.keys[j] = blk.keys[j + 1];
                    blk.entries[j] = blk.entries[j + 1];
                }
                blk.len -= 1;
                table.len -= 1;
                if blk.len == 0 {
                    if prev == NIL {
                        table.head = next;
                    } else {
                        self.blocks[prev as usize].next = next;
                    }
                    self.free_block(cur);
                }
                return Some(removed);
            }
            prev = cur;
            cur = next;
        }
        None
    }

    /// Looks up a neighbour.
    #[must_use]
    pub fn get<'a>(&'a self, table: &ArenaTable, id: NodeId) -> Option<&'a NeighborInfo> {
        let mut cur = table.head;
        while cur != NIL {
            let blk = &self.blocks[cur as usize];
            let n = blk.len as usize;
            if id <= blk.keys[n - 1] {
                return blk.keys[..n]
                    .iter()
                    .position(|&k| k == id)
                    .map(|i| &blk.entries[i]);
            }
            cur = blk.next;
        }
        None
    }

    /// Whether `id` is currently a neighbour.
    #[must_use]
    pub fn contains(&self, table: &ArenaTable, id: NodeId) -> bool {
        self.get(table, id).is_some()
    }

    /// All of the node's neighbours, ascending by id.
    #[must_use]
    pub fn iter<'a>(&'a self, table: &ArenaTable) -> ArenaIter<'a> {
        ArenaIter {
            arena: self,
            block: table.head,
            pos: 0,
        }
    }

    /// A read-only [`NeighborView`] of one node's table, the form protocols
    /// consume through `ProtocolContext`.
    #[must_use]
    pub fn view<'a>(&'a self, table: &'a ArenaTable) -> NeighborView<'a> {
        NeighborView::Arena { arena: self, table }
    }
}

/// Iterator over one node's chain, ascending by id.
#[derive(Debug, Clone)]
pub struct ArenaIter<'a> {
    arena: &'a NeighborArena,
    block: u32,
    pos: usize,
}

impl<'a> Iterator for ArenaIter<'a> {
    type Item = &'a NeighborInfo;

    fn next(&mut self) -> Option<Self::Item> {
        while self.block != NIL {
            let blk = &self.arena.blocks[self.block as usize];
            if self.pos < blk.len as usize {
                let item = &blk.entries[self.pos];
                self.pos += 1;
                return Some(item);
            }
            self.block = blk.next;
            self.pos = 0;
        }
        None
    }
}

/// A copyable, read-only facade over either neighbour backing store. This
/// is what `ProtocolContext` hands to protocols: the full read API of the
/// reference table, with identical ascending-id iteration (and therefore
/// identical tie-breaks in `closest_to`/`ranked_by`) regardless of backing.
#[derive(Debug, Clone, Copy)]
pub enum NeighborView<'a> {
    /// Backed by an owning [`NeighborTable`] (reference implementation,
    /// protocol unit tests).
    Table(&'a NeighborTable),
    /// Backed by the shared slab (the simulation driver).
    Arena {
        /// The fleet-wide slab.
        arena: &'a NeighborArena,
        /// The node's handle into it.
        table: &'a ArenaTable,
    },
}

impl<'a> From<&'a NeighborTable> for NeighborView<'a> {
    fn from(table: &'a NeighborTable) -> Self {
        NeighborView::Table(table)
    }
}

/// Iterator behind [`NeighborView::iter`].
#[derive(Debug, Clone)]
pub enum NeighborViewIter<'a> {
    /// Contiguous reference-table entries.
    Slice(std::slice::Iter<'a, NeighborInfo>),
    /// Chain walk through the slab.
    Arena(ArenaIter<'a>),
}

impl<'a> Iterator for NeighborViewIter<'a> {
    type Item = &'a NeighborInfo;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            NeighborViewIter::Slice(it) => it.next(),
            NeighborViewIter::Arena(it) => it.next(),
        }
    }
}

impl<'a> NeighborView<'a> {
    /// Number of neighbours.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            NeighborView::Table(t) => t.len(),
            NeighborView::Arena { table, .. } => table.len(),
        }
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is currently a neighbour.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        match self {
            NeighborView::Table(t) => t.contains(id),
            NeighborView::Arena { arena, table } => arena.contains(table, id),
        }
    }

    /// Looks up a neighbour.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&'a NeighborInfo> {
        match self {
            NeighborView::Table(t) => t.as_slice().iter().find(|n| n.id == id),
            NeighborView::Arena { arena, table } => arena.get(table, id),
        }
    }

    /// All current neighbours, ascending by id.
    #[must_use]
    pub fn iter(&self) -> NeighborViewIter<'a> {
        match self {
            NeighborView::Table(t) => NeighborViewIter::Slice(t.as_slice().iter()),
            NeighborView::Arena { arena, table } => NeighborViewIter::Arena(arena.iter(table)),
        }
    }

    /// The neighbour geographically closest to `target` — same comparator
    /// and tie-break as [`NeighborTable::closest_to`].
    #[must_use]
    pub fn closest_to(&self, target: Position) -> Option<&'a NeighborInfo> {
        self.iter()
            .min_by(|a, b| distance(a.position, target).total_cmp(&distance(b.position, target)))
    }

    /// Greedy forwarding with the local-maximum check (see
    /// [`NeighborTable::greedy_next_hop`]).
    #[must_use]
    pub fn greedy_next_hop(&self, target: Position, own_distance: f64) -> Option<&'a NeighborInfo> {
        self.closest_to(target)
            .filter(|n| distance(n.position, target) < own_distance)
    }

    /// Neighbours sorted by a caller-provided score, best (highest) first —
    /// stable over ascending-id order like [`NeighborTable::ranked_by`].
    #[must_use]
    pub fn ranked_by<F>(&self, mut score: F) -> Vec<&'a NeighborInfo>
    where
        F: FnMut(&NeighborInfo) -> f64,
    {
        // lint: allow(P1) — ranking is a per-route-discovery operation, not
        // per-event; mirrors `NeighborTable::ranked_by`.
        let mut v: Vec<&NeighborInfo> = self.iter().collect();
        v.sort_by(|a, b| score(b).total_cmp(&score(a)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_sim::SimRng;

    fn obs(
        arena: &mut NeighborArena,
        t: &mut ArenaTable,
        id: u32,
        x: f64,
        now: f64,
        life: f64,
    ) -> bool {
        arena.observe(
            t,
            NodeId(id),
            Vec2::new(x, 0.0),
            Vec2::ZERO,
            SimTime::from_secs(now),
            SimDuration::from_secs(life),
        )
    }

    #[test]
    fn observe_insert_refresh_and_lookup() {
        let mut arena = NeighborArena::new();
        let mut t = ArenaTable::new();
        assert!(obs(&mut arena, &mut t, 5, 50.0, 0.0, 3.0));
        assert!(obs(&mut arena, &mut t, 2, 20.0, 0.0, 3.0));
        assert!(!obs(&mut arena, &mut t, 5, 55.0, 1.0, 3.0), "refresh");
        assert_eq!(t.len(), 2);
        assert!(arena.contains(&t, NodeId(2)));
        assert!(!arena.contains(&t, NodeId(3)));
        assert_eq!(arena.get(&t, NodeId(5)).unwrap().position.x, 55.0);
    }

    #[test]
    fn iteration_is_ascending_across_block_spills() {
        let mut arena = NeighborArena::new();
        let mut t = ArenaTable::new();
        // 3× the block size, inserted in a scrambled order, forces splits.
        let mut ids: Vec<u32> = (0..(3 * BLOCK_ENTRIES as u32)).collect();
        let mut rng = SimRng::new(9);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.uniform_usize(i + 1));
        }
        for &id in &ids {
            obs(&mut arena, &mut t, id, f64::from(id), 0.0, 3.0);
        }
        let seen: Vec<u32> = arena.iter(&t).map(|n| n.id.0).collect();
        let expect: Vec<u32> = (0..(3 * BLOCK_ENTRIES as u32)).collect();
        assert_eq!(seen, expect);
        assert_eq!(t.len(), expect.len());
    }

    #[test]
    fn freed_blocks_are_reused_across_tables() {
        let mut arena = NeighborArena::new();
        let mut a = ArenaTable::new();
        let mut b = ArenaTable::new();
        for id in 0..(2 * BLOCK_ENTRIES as u32) {
            obs(&mut arena, &mut a, id, 0.0, 0.0, 1.0);
        }
        let grown = arena.block_count();
        // Expire everything in `a`; its blocks go to the free list...
        let lost = arena.purge_expired(&mut a, SimTime::from_secs(5.0));
        assert_eq!(lost.len(), 2 * BLOCK_ENTRIES);
        assert!(a.is_empty());
        assert!(arena.free_blocks() > 0);
        // ...and table `b` recycles them without growing the slab.
        for id in 0..(2 * BLOCK_ENTRIES as u32) {
            obs(&mut arena, &mut b, id, 0.0, 6.0, 1.0);
        }
        assert_eq!(arena.block_count(), grown, "churn must reuse freed blocks");
        assert_eq!(arena.free_blocks(), 0);
    }

    #[test]
    fn remove_frees_emptied_blocks_and_keeps_chain_sorted() {
        let mut arena = NeighborArena::new();
        let mut t = ArenaTable::new();
        for id in 0..(2 * BLOCK_ENTRIES as u32) {
            obs(&mut arena, &mut t, id, 0.0, 0.0, 3.0);
        }
        assert!(arena.remove(&mut t, NodeId(3)).is_some());
        assert!(arena.remove(&mut t, NodeId(3)).is_none());
        // Drain the whole first block.
        for id in 0..BLOCK_ENTRIES as u32 {
            arena.remove(&mut t, NodeId(id));
        }
        assert!(arena.free_blocks() > 0);
        let seen: Vec<u32> = arena.iter(&t).map(|n| n.id.0).collect();
        let expect: Vec<u32> = (BLOCK_ENTRIES as u32..2 * BLOCK_ENTRIES as u32).collect();
        assert_eq!(seen, expect);
    }

    /// The tentpole pin: randomised churn (observes, lazy purges, removals)
    /// drives the arena and the reference table in lockstep; observe
    /// results, loss observations, iteration order and the deadline bound
    /// must stay identical. Several handles share one arena so chain
    /// interleaving and free-list reuse are exercised the way the fleet
    /// driver exercises them.
    #[test]
    fn arena_matches_reference_table_under_randomized_churn() {
        let mut rng = SimRng::new(0xa7e4a);
        for case in 0..40 {
            let mut arena = NeighborArena::new();
            let tables = 3usize;
            let mut handles: Vec<ArenaTable> = (0..tables).map(|_| ArenaTable::new()).collect();
            let mut refs: Vec<NeighborTable> = (0..tables).map(|_| NeighborTable::new()).collect();
            let lifetime = SimDuration::from_secs(1.0 + rng.uniform_range(0.0, 3.0));
            let universe = 4 + rng.uniform_usize(40) as u32;
            let mut scratch_a = Vec::new();
            let mut scratch_r = Vec::new();
            for tick in 1..=30u32 {
                let tick_time = SimTime::from_secs(f64::from(tick));
                for _ in 0..rng.uniform_usize(2 * universe as usize) {
                    let w = rng.uniform_usize(tables);
                    let id = NodeId(rng.uniform_usize(universe as usize) as u32);
                    let at = SimTime::from_secs(f64::from(tick) - rng.uniform_range(0.0, 1.0));
                    let pos = Vec2::new(rng.uniform_range(0.0, 500.0), 0.0);
                    let vel = Vec2::new(rng.uniform_range(-20.0, 20.0), 0.0);
                    let ia = arena.observe(&mut handles[w], id, pos, vel, at, lifetime);
                    let ir = refs[w].observe(id, pos, vel, at, lifetime);
                    assert_eq!(ia, ir, "case {case} tick {tick}: insert flag diverged");
                }
                if rng.chance(0.2) {
                    let w = rng.uniform_usize(tables);
                    let id = NodeId(rng.uniform_usize(universe as usize) as u32);
                    let ra = arena.remove(&mut handles[w], id);
                    let rr = refs[w].remove(id);
                    assert_eq!(ra, rr, "case {case} tick {tick}: removal diverged");
                }
                for w in 0..tables {
                    scratch_a.clear();
                    scratch_r.clear();
                    arena.purge_due(&mut handles[w], tick_time, &mut scratch_a);
                    refs[w].purge_due(tick_time, &mut scratch_r);
                    assert_eq!(
                        scratch_a, scratch_r,
                        "case {case} tick {tick}: losses diverged"
                    );
                    let ea: Vec<NeighborInfo> = arena.iter(&handles[w]).copied().collect();
                    let er: Vec<NeighborInfo> = refs[w].iter().copied().collect();
                    assert_eq!(ea, er, "case {case} tick {tick}: entries diverged");
                    assert_eq!(handles[w].len(), refs[w].len());
                    assert_eq!(
                        handles[w].next_deadline(),
                        refs[w].next_deadline(),
                        "case {case} tick {tick}: deadline bound diverged"
                    );
                }
            }
        }
    }

    /// The protocol-facing read API must answer identically through either
    /// view backing, including `closest_to`/`ranked_by` tie-breaks.
    #[test]
    fn view_reads_identically_over_both_backings() {
        let mut rng = SimRng::new(0x51de5);
        let mut arena = NeighborArena::new();
        let mut handle = ArenaTable::new();
        let mut table = NeighborTable::new();
        for _ in 0..60 {
            let id = NodeId(rng.uniform_usize(24) as u32);
            let pos = Vec2::new(rng.uniform_range(0.0, 400.0), rng.uniform_range(0.0, 400.0));
            let at = SimTime::from_secs(rng.uniform_range(0.0, 2.0));
            let life = SimDuration::from_secs(3.0);
            arena.observe(&mut handle, id, pos, Vec2::ZERO, at, life);
            table.observe(id, pos, Vec2::ZERO, at, life);
        }
        let va = arena.view(&handle);
        let vt = NeighborView::from(&table);
        assert_eq!(va.len(), vt.len());
        assert_eq!(va.is_empty(), vt.is_empty());
        let target = Vec2::new(200.0, 200.0);
        assert_eq!(va.closest_to(target), vt.closest_to(target));
        assert_eq!(
            va.greedy_next_hop(target, 150.0),
            vt.greedy_next_hop(target, 150.0)
        );
        for id in 0..26 {
            assert_eq!(va.contains(NodeId(id)), vt.contains(NodeId(id)));
            assert_eq!(va.get(NodeId(id)), vt.get(NodeId(id)));
        }
        let ia: Vec<NeighborInfo> = va.iter().copied().collect();
        let it: Vec<NeighborInfo> = vt.iter().copied().collect();
        assert_eq!(ia, it);
        let ra: Vec<NodeId> = va
            .ranked_by(|n| n.position.x)
            .iter()
            .map(|n| n.id)
            .collect();
        let rt: Vec<NodeId> = vt
            .ranked_by(|n| n.position.x)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(ra, rt);
    }
}
