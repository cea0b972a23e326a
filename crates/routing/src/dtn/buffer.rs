//! Bounded per-node bundle buffer for the store-carry-forward protocols.
//!
//! A [`BundleBuffer`] is fixed-capacity slot storage: every slot is
//! preallocated at construction and bundles move in and out of slots
//! without touching the allocator, consistent with the zero-alloc event
//! hot path. Capacity pressure is resolved by a pluggable [`DropPolicy`];
//! TTL expiry is checked lazily from the per-node maintenance deadline that
//! already rides the batched timer wheel (the same lazy-purge
//! discipline the neighbour tables use), so expiry needs no timers of its
//! own and fires at exactly the maintenance instants the `(time, seq)`
//! order defines.
//!
//! Every policy decision is a total order over `(SimTime, u32, bool,
//! BundleKey)` tuples — no float comparisons — so eviction is
//! deterministic for a deterministic call sequence.

// lint: hot-path

use vanet_net::Packet;
use vanet_sim::{NodeId, SimTime};

/// Fleet-unique identity of a bundle: the originating node plus the packet
/// id it allocated. Forwarded copies keep the originator's id, so every
/// replica of a bundle shares one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BundleKey {
    /// The node that originated the bundle.
    pub origin: NodeId,
    /// The packet id at the originator.
    pub id: u64,
}

impl BundleKey {
    /// The key of `packet`.
    #[must_use]
    pub fn of(packet: &Packet) -> Self {
        BundleKey {
            origin: packet.source,
            id: packet.id.value(),
        }
    }
}

/// Which bundle gives way when the buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Evict the bundle that has been buffered longest.
    DropOldest,
    /// Evict the bundle that has travelled the most hops (it has had the
    /// most replication opportunities already).
    DropLargestHopCount,
    /// Evict non-custodial copies before custodial ones; oldest first
    /// within each class.
    NoCustodyFirst,
}

/// A buffered bundle: the stored packet plus its carry state.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// The stored data packet (TTL/hops as last received).
    pub packet: Packet,
    /// When this node buffered it.
    pub stored_at: SimTime,
    /// When it must be discarded.
    pub expires_at: SimTime,
    /// Whether this node currently holds custody of the bundle.
    pub custody: bool,
    /// Remaining copy tickets (spray-and-wait); 0 when unbudgeted.
    pub copies: u32,
}

impl Bundle {
    /// The bundle's fleet-unique key.
    #[must_use]
    pub fn key(&self) -> BundleKey {
        BundleKey::of(&self.packet)
    }
}

/// What [`BundleBuffer::insert`] did with the offered bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// Stored in a free slot.
    Stored,
    /// Stored; the returned bundle was evicted to make room.
    Evicted(Bundle),
    /// Not stored: under the drop policy the offered bundle itself was the
    /// most evictable candidate.
    Rejected(Bundle),
    /// Not stored: a bundle with the same key is already buffered.
    Duplicate(Bundle),
}

/// Fixed-capacity slot storage for bundles with policy-driven eviction.
#[derive(Debug, Clone)]
pub struct BundleBuffer {
    /// Preallocated slots; `None` is a free slot. Capacities are small
    /// (tens of bundles), so scans stay within a few cache lines and no
    /// index structure is needed.
    slots: Vec<Option<Bundle>>,
    len: usize,
    policy: DropPolicy,
}

impl BundleBuffer {
    /// Creates a buffer with room for `capacity` bundles.
    #[must_use]
    pub fn new(capacity: usize, policy: DropPolicy) -> Self {
        // lint: allow(P1) — construction, once per node at simulation
        // start; every slot the buffer will ever use is allocated here.
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        BundleBuffer {
            slots,
            len: 0,
            policy,
        }
    }

    /// Maximum number of bundles the buffer can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Buffered bundles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bundles are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured drop policy.
    #[must_use]
    pub fn policy(&self) -> DropPolicy {
        self.policy
    }

    /// Whether a bundle with `key` is buffered.
    #[must_use]
    pub fn contains(&self, key: BundleKey) -> bool {
        self.get(key).is_some()
    }

    /// The buffered bundle with `key`, if any.
    #[must_use]
    pub fn get(&self, key: BundleKey) -> Option<&Bundle> {
        self.slots
            .iter()
            .flatten()
            .find(|bundle| bundle.key() == key)
    }

    /// Mutable access to the buffered bundle with `key`, if any.
    pub fn get_mut(&mut self, key: BundleKey) -> Option<&mut Bundle> {
        self.slots
            .iter_mut()
            .flatten()
            .find(|bundle| bundle.key() == key)
    }

    /// All buffered bundles, in slot order (deterministic for a
    /// deterministic call sequence).
    pub fn iter(&self) -> impl Iterator<Item = &Bundle> {
        self.slots.iter().flatten()
    }

    /// Mutable iteration over all buffered bundles, in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Bundle> {
        self.slots.iter_mut().flatten()
    }

    /// Offers `bundle` to the buffer. With a free slot it is stored; at
    /// capacity the drop policy picks the most evictable of the stored
    /// bundles *and the offered one* — so an incoming bundle that ranks
    /// worst under the policy is rejected rather than displacing a better
    /// one.
    pub fn insert(&mut self, bundle: Bundle) -> InsertOutcome {
        if self.capacity() == 0 {
            return InsertOutcome::Rejected(bundle);
        }
        if self.contains(bundle.key()) {
            return InsertOutcome::Duplicate(bundle);
        }
        if self.len < self.capacity() {
            let slot = self
                .slots
                .iter_mut()
                .find(|slot| slot.is_none())
                .expect("len < capacity implies a free slot");
            *slot = Some(bundle);
            self.len += 1;
            return InsertOutcome::Stored;
        }
        // Full: find the most evictable stored bundle.
        let mut victim_slot = 0;
        for slot in 1..self.slots.len() {
            let candidate = self.slots[slot].as_ref().expect("buffer is full");
            let current = self.slots[victim_slot].as_ref().expect("buffer is full");
            if more_evictable(self.policy, candidate, current) {
                victim_slot = slot;
            }
        }
        let victim = self.slots[victim_slot].as_ref().expect("buffer is full");
        if more_evictable(self.policy, &bundle, victim) {
            return InsertOutcome::Rejected(bundle);
        }
        let evicted = self.slots[victim_slot]
            .replace(bundle)
            .expect("victim slot was occupied");
        InsertOutcome::Evicted(evicted)
    }

    /// Removes and returns the bundle with `key`, if buffered.
    pub fn remove(&mut self, key: BundleKey) -> Option<Bundle> {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|bundle| bundle.key() == key) {
                self.len -= 1;
                return slot.take();
            }
        }
        None
    }

    /// Moves every bundle whose `expires_at` has passed into `out`, in slot
    /// order. `out` is a caller-owned scratch buffer so steady-state expiry
    /// reuses its capacity.
    pub fn expire_due(&mut self, now: SimTime, out: &mut Vec<Bundle>) {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|bundle| bundle.expires_at <= now) {
                out.push(slot.take().expect("checked above"));
                self.len -= 1;
            }
        }
    }
}

/// Whether `a` should be evicted in preference to `b` under `policy`.
///
/// Every branch bottoms out in the total `(SimTime, u32, bool, BundleKey)`
/// orders, so the choice is unambiguous for any pair.
fn more_evictable(policy: DropPolicy, a: &Bundle, b: &Bundle) -> bool {
    use std::cmp::Ordering;
    let by_age = |a: &Bundle, b: &Bundle| {
        // Older (smaller stored_at) is more evictable; keys break ties.
        match a.stored_at.cmp(&b.stored_at) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.key() < b.key(),
        }
    };
    match policy {
        DropPolicy::DropOldest => by_age(a, b),
        DropPolicy::DropLargestHopCount => match a.packet.hops.cmp(&b.packet.hops) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => by_age(a, b),
        },
        DropPolicy::NoCustodyFirst => match (a.custody, b.custody) {
            (false, true) => true,
            (true, false) => false,
            _ => by_age(a, b),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_sim::{PacketId, SimDuration, SimRng};

    fn bundle(origin: u32, id: u64, stored_s: f64, hops: u32, custody: bool) -> Bundle {
        let mut packet = Packet::data(NodeId(origin), NodeId(999), 64);
        packet.id = PacketId(id);
        packet.hops = hops;
        let stored_at = SimTime::from_secs(stored_s);
        Bundle {
            packet,
            stored_at,
            expires_at: stored_at + SimDuration::from_secs(30.0),
            custody,
            copies: 0,
        }
    }

    #[test]
    fn stores_until_capacity_then_applies_the_policy() {
        let mut buf = BundleBuffer::new(2, DropPolicy::DropOldest);
        assert!(matches!(
            buf.insert(bundle(1, 1, 1.0, 0, false)),
            InsertOutcome::Stored
        ));
        assert!(matches!(
            buf.insert(bundle(1, 2, 2.0, 0, false)),
            InsertOutcome::Stored
        ));
        assert_eq!(buf.len(), 2);
        // Full: the oldest (id 1) is evicted for the newcomer.
        match buf.insert(bundle(1, 3, 3.0, 0, false)) {
            InsertOutcome::Evicted(evicted) => assert_eq!(evicted.key().id, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(buf.contains(BundleKey {
            origin: NodeId(1),
            id: 3
        }));
    }

    #[test]
    fn duplicate_keys_are_refused() {
        let mut buf = BundleBuffer::new(4, DropPolicy::DropOldest);
        buf.insert(bundle(1, 1, 1.0, 0, false));
        assert!(matches!(
            buf.insert(bundle(1, 1, 2.0, 5, true)),
            InsertOutcome::Duplicate(_)
        ));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn largest_hop_count_policy_rejects_a_worse_newcomer() {
        let mut buf = BundleBuffer::new(1, DropPolicy::DropLargestHopCount);
        buf.insert(bundle(1, 1, 1.0, 2, false));
        // The newcomer has more hops than anything stored: it is the victim.
        match buf.insert(bundle(1, 2, 2.0, 9, false)) {
            InsertOutcome::Rejected(rejected) => assert_eq!(rejected.key().id, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        // A fresher newcomer displaces the stored one.
        match buf.insert(bundle(1, 3, 3.0, 1, false)) {
            InsertOutcome::Evicted(evicted) => assert_eq!(evicted.key().id, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn no_custody_first_prefers_non_custodial_victims() {
        let mut buf = BundleBuffer::new(2, DropPolicy::NoCustodyFirst);
        buf.insert(bundle(1, 1, 1.0, 0, true));
        buf.insert(bundle(1, 2, 2.0, 0, false));
        match buf.insert(bundle(1, 3, 3.0, 0, true)) {
            InsertOutcome::Evicted(evicted) => {
                assert_eq!(evicted.key().id, 2, "the non-custodial copy gives way");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn expiry_moves_due_bundles_out_in_slot_order() {
        let mut buf = BundleBuffer::new(4, DropPolicy::DropOldest);
        buf.insert(bundle(1, 1, 0.0, 0, false));
        buf.insert(bundle(1, 2, 20.0, 0, false));
        let mut out = Vec::new();
        buf.expire_due(SimTime::from_secs(31.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key().id, 1);
        assert_eq!(buf.len(), 1);
        buf.expire_due(SimTime::from_secs(31.0), &mut out);
        assert_eq!(out.len(), 1, "expiry is idempotent");
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut buf = BundleBuffer::new(2, DropPolicy::DropOldest);
        buf.insert(bundle(1, 1, 1.0, 0, false));
        let key = BundleKey {
            origin: NodeId(1),
            id: 1,
        };
        assert!(buf.remove(key).is_some());
        assert!(buf.remove(key).is_none());
        assert_eq!(buf.len(), 0);
        assert!(matches!(
            buf.insert(bundle(1, 2, 2.0, 0, false)),
            InsertOutcome::Stored
        ));
    }

    /// A naive reference model of the same policy semantics: an unordered
    /// bag that re-derives the victim by a full sort on every insert.
    struct ReferenceModel {
        bundles: Vec<Bundle>,
        capacity: usize,
        policy: DropPolicy,
    }

    impl ReferenceModel {
        fn insert(&mut self, bundle: Bundle) -> Option<BundleKey> {
            if self.capacity == 0 {
                return Some(bundle.key());
            }
            if self.bundles.iter().any(|b| b.key() == bundle.key()) {
                return None; // duplicate: refused, nothing evicted
            }
            if self.bundles.len() < self.capacity {
                self.bundles.push(bundle);
                return None;
            }
            // Rank every candidate (stored + incoming) by evictability and
            // drop the worst.
            self.bundles.push(bundle);
            let mut worst = 0;
            for i in 1..self.bundles.len() {
                if more_evictable(self.policy, &self.bundles[i], &self.bundles[worst]) {
                    worst = i;
                }
            }
            Some(self.bundles.remove(worst).key())
        }

        fn expire(&mut self, now: SimTime) -> Vec<BundleKey> {
            let mut expired: Vec<BundleKey> = self
                .bundles
                .iter()
                .filter(|b| b.expires_at <= now)
                .map(Bundle::key)
                .collect();
            self.bundles.retain(|b| b.expires_at > now);
            expired.sort();
            expired
        }

        fn keys(&self) -> Vec<BundleKey> {
            let mut keys: Vec<BundleKey> = self.bundles.iter().map(Bundle::key).collect();
            keys.sort();
            keys
        }
    }

    /// Property: under randomized churn (inserts with colliding keys,
    /// removals, expiry sweeps) the slot buffer holds exactly the bundles
    /// the naive model holds and makes identical eviction choices, for
    /// every policy.
    #[test]
    fn eviction_matches_the_naive_reference_model_under_churn() {
        for policy in [
            DropPolicy::DropOldest,
            DropPolicy::DropLargestHopCount,
            DropPolicy::NoCustodyFirst,
        ] {
            for seed in 0..8_u64 {
                let mut rng = SimRng::new(9000 + seed);
                let capacity = 1 + (rng.next_u64() % 8) as usize;
                let mut buf = BundleBuffer::new(capacity, policy);
                let mut model = ReferenceModel {
                    bundles: Vec::new(),
                    capacity,
                    policy,
                };
                let mut clock = 0.0_f64;
                let mut scratch = Vec::new();
                for step in 0..400_u64 {
                    clock += rng.uniform();
                    let now = SimTime::from_secs(clock);
                    match rng.next_u64() % 10 {
                        // Mostly inserts, with a small key space so
                        // duplicates actually occur.
                        0..=6 => {
                            let origin = (rng.next_u64() % 4) as u32;
                            let id = rng.next_u64() % 32;
                            let hops = (rng.next_u64() % 6) as u32;
                            let custody = rng.next_u64() % 2 == 0;
                            let mut b = bundle(origin, id, clock, hops, custody);
                            b.expires_at = now + SimDuration::from_secs(1.0 + rng.uniform() * 10.0);
                            let model_evicted = model.insert(b.clone());
                            let outcome = buf.insert(b);
                            let buf_evicted = match outcome {
                                InsertOutcome::Stored | InsertOutcome::Duplicate(_) => None,
                                InsertOutcome::Evicted(e) => Some(e.key()),
                                InsertOutcome::Rejected(r) => Some(r.key()),
                            };
                            assert_eq!(
                                buf_evicted, model_evicted,
                                "{policy:?} seed {seed} step {step}: eviction diverged"
                            );
                        }
                        7 => {
                            let origin = (rng.next_u64() % 4) as u32;
                            let id = rng.next_u64() % 32;
                            let key = BundleKey {
                                origin: NodeId(origin),
                                id,
                            };
                            let model_had = model.bundles.iter().any(|b| b.key() == key);
                            if model_had {
                                model.bundles.retain(|b| b.key() != key);
                            }
                            assert_eq!(
                                buf.remove(key).is_some(),
                                model_had,
                                "{policy:?} seed {seed} step {step}: removal diverged"
                            );
                        }
                        _ => {
                            scratch.clear();
                            buf.expire_due(now, &mut scratch);
                            let mut expired: Vec<BundleKey> =
                                scratch.iter().map(Bundle::key).collect();
                            expired.sort();
                            assert_eq!(
                                expired,
                                model.expire(now),
                                "{policy:?} seed {seed} step {step}: expiry diverged"
                            );
                        }
                    }
                    let mut keys: Vec<BundleKey> = buf.iter().map(Bundle::key).collect();
                    keys.sort();
                    assert_eq!(
                        keys,
                        model.keys(),
                        "{policy:?} seed {seed} step {step}: contents diverged"
                    );
                    assert_eq!(buf.len(), model.bundles.len());
                    assert!(buf.len() <= buf.capacity());
                }
            }
        }
    }
}
