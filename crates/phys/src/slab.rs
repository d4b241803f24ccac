//! Allocation-free hot-path containers shared across the workspace.
//!
//! The simulator's steady state must not touch the heap: every
//! per-simulated-cycle structure lives in flat, reusable storage. This
//! module provides the two building blocks the hot paths share:
//!
//! * [`FifoSlab`] — many FIFO queues multiplexed over one contiguous
//!   node slab with an intrusive freelist. Replaces `Vec<VecDeque<T>>`
//!   fan-outs (one queue per bank×core, per bus requester, …) whose
//!   hundreds of separate ring buffers defeat the cache; here every
//!   node lives in a single growable arena and `is_empty`/`len` are
//!   O(1) counters.
//! * [`GenSlab`] — a slab with *generational handles*: `insert` returns
//!   a `u64` that encodes `(generation << 32) | slot`, so a stale
//!   handle from a previous occupant of the slot can never alias the
//!   current one. Replaces `HashMap<u64, T>` transaction tables — the
//!   handle **is** the key, so lookups are an index plus a generation
//!   compare instead of SipHash.
//!
//! Both containers only allocate when they grow past their high-water
//! mark; a sweep that reuses its simulator reaches a steady state where
//! no call allocates. `mot3d-phys` hosts them because it is the
//! workspace's root crate — `mot`, `noc`, `mem`, and `sim` all sit above
//! it.

/// Sentinel index for "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct FifoList {
    head: u32,
    tail: u32,
    len: u32,
}

impl FifoList {
    const EMPTY: FifoList = FifoList {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

#[derive(Debug, Clone)]
struct FifoNode<T> {
    value: T,
    next: u32,
}

/// Many FIFO queues over one contiguous slab (see module docs).
///
/// # Examples
///
/// ```
/// use mot3d_phys::slab::FifoSlab;
///
/// let mut q: FifoSlab<u64> = FifoSlab::new(3);
/// q.push_back(1, 10);
/// q.push_back(1, 11);
/// q.push_back(2, 20);
/// assert_eq!(q.pop_front(1), Some(10));
/// assert_eq!(q.front(1), Some(&11));
/// assert_eq!(q.len(1), 1);
/// assert_eq!(q.total_len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FifoSlab<T> {
    lists: Vec<FifoList>,
    nodes: Vec<FifoNode<T>>,
    free: u32,
    total: usize,
}

impl<T> FifoSlab<T> {
    /// Creates `lists` empty queues sharing one (initially empty) slab.
    pub fn new(lists: usize) -> Self {
        FifoSlab {
            lists: vec![FifoList::EMPTY; lists],
            nodes: Vec::new(),
            free: NIL,
            total: 0,
        }
    }

    /// Number of queues.
    pub fn lists(&self) -> usize {
        self.lists.len()
    }

    /// Appends `value` to queue `list`. Reuses a freed slot when one
    /// exists; grows the slab (the only allocation) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn push_back(&mut self, list: usize, value: T) {
        let idx = if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.value = value;
            node.next = NIL;
            idx
        } else {
            assert!(self.nodes.len() < NIL as usize, "FifoSlab capacity");
            self.nodes.push(FifoNode { value, next: NIL });
            (self.nodes.len() - 1) as u32
        };
        let l = &mut self.lists[list];
        if l.tail == NIL {
            l.head = idx;
        } else {
            self.nodes[l.tail as usize].next = idx;
        }
        l.tail = idx;
        l.len += 1;
        self.total += 1;
    }

    /// Removes and returns the front of queue `list`, if any.
    pub fn pop_front(&mut self, list: usize) -> Option<T>
    where
        T: Copy,
    {
        let l = &mut self.lists[list];
        if l.head == NIL {
            return None;
        }
        let idx = l.head;
        let node = &mut self.nodes[idx as usize];
        l.head = node.next;
        if l.head == NIL {
            l.tail = NIL;
        }
        l.len -= 1;
        self.total -= 1;
        let value = node.value;
        node.next = self.free;
        self.free = idx;
        Some(value)
    }

    /// The front of queue `list` without removing it.
    pub fn front(&self, list: usize) -> Option<&T> {
        let l = self.lists[list];
        (l.head != NIL).then(|| &self.nodes[l.head as usize].value)
    }

    /// Whether queue `list` is empty (O(1)).
    pub fn is_empty(&self, list: usize) -> bool {
        self.lists[list].head == NIL
    }

    /// Length of queue `list` (O(1)).
    pub fn len(&self, list: usize) -> usize {
        self.lists[list].len as usize
    }

    /// Entries across all queues (O(1)).
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Whether every queue is empty (O(1)).
    pub fn is_all_empty(&self) -> bool {
        self.total == 0
    }

    /// Empties every queue, keeping the slab's capacity for reuse.
    pub fn clear(&mut self) {
        self.lists.fill(FifoList::EMPTY);
        self.nodes.clear();
        self.free = NIL;
        self.total = 0;
    }
}

#[derive(Debug, Clone)]
struct GenSlot<T> {
    value: Option<T>,
    generation: u32,
    next_free: u32,
}

/// A slab with generational `u64` handles (see module docs).
///
/// # Examples
///
/// ```
/// use mot3d_phys::slab::GenSlab;
///
/// let mut slab: GenSlab<&str> = GenSlab::new();
/// let h = slab.insert("hello");
/// assert_eq!(slab.get(h), Some(&"hello"));
/// assert_eq!(slab.remove(h), Some("hello"));
/// assert_eq!(slab.get(h), None); // stale handle: generation mismatch
/// ```
#[derive(Debug, Clone, Default)]
pub struct GenSlab<T> {
    slots: Vec<GenSlot<T>>,
    free: u32,
    len: usize,
}

impl<T> GenSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        GenSlab {
            slots: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    fn split(handle: u64) -> (usize, u32) {
        (
            (handle & u64::from(u32::MAX)) as usize,
            (handle >> 32) as u32,
        )
    }

    /// Stores `value` and returns its handle. Handles are never
    /// `u64::MAX` (reserved by callers as a sentinel): a slot's
    /// generation wraps before reaching `u32::MAX`.
    pub fn insert(&mut self, value: T) -> u64 {
        let slot = if self.free != NIL {
            let slot = self.free as usize;
            let s = &mut self.slots[slot];
            self.free = s.next_free;
            s.value = Some(value);
            slot
        } else {
            assert!(self.slots.len() < NIL as usize, "GenSlab capacity");
            self.slots.push(GenSlot {
                value: Some(value),
                generation: 0,
                next_free: NIL,
            });
            self.slots.len() - 1
        };
        self.len += 1;
        (u64::from(self.slots[slot].generation) << 32) | slot as u64
    }

    /// The value behind `handle`, unless it was removed (or the slot was
    /// since reused: the generation no longer matches).
    pub fn get(&self, handle: u64) -> Option<&T> {
        let (slot, generation) = Self::split(handle);
        let s = self.slots.get(slot)?;
        (s.generation == generation).then_some(s.value.as_ref())?
    }

    /// Mutable access to the value behind `handle`.
    pub fn get_mut(&mut self, handle: u64) -> Option<&mut T> {
        let (slot, generation) = Self::split(handle);
        let s = self.slots.get_mut(slot)?;
        (s.generation == generation).then_some(s.value.as_mut())?
    }

    /// Removes and returns the value behind `handle`; the slot's
    /// generation advances so the handle goes stale.
    pub fn remove(&mut self, handle: u64) -> Option<T> {
        let (slot, generation) = Self::split(handle);
        let s = self.slots.get_mut(slot)?;
        if s.generation != generation {
            return None;
        }
        let value = s.value.take()?;
        // Wrap shy of u32::MAX so a handle can never be u64::MAX.
        s.generation = if s.generation >= u32::MAX - 1 {
            0
        } else {
            s.generation + 1
        };
        s.next_free = self.free;
        self.free = slot as u32;
        self.len -= 1;
        Some(value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are live (O(1)).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping slot capacity; generations reset, so
    /// a cleared slab issues the same handle sequence as a fresh one
    /// (required for bit-reproducible simulator resets).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_orders_within_and_across_lists() {
        let mut q: FifoSlab<u32> = FifoSlab::new(2);
        q.push_back(0, 1);
        q.push_back(1, 10);
        q.push_back(0, 2);
        assert_eq!(q.pop_front(0), Some(1));
        assert_eq!(q.pop_front(0), Some(2));
        assert_eq!(q.pop_front(0), None);
        assert_eq!(q.pop_front(1), Some(10));
        assert!(q.is_all_empty());
    }

    #[test]
    fn fifo_reuses_freed_slots() {
        let mut q: FifoSlab<u32> = FifoSlab::new(1);
        for round in 0..100 {
            q.push_back(0, round);
            q.push_back(0, round + 1);
            assert_eq!(q.pop_front(0), Some(round));
            assert_eq!(q.pop_front(0), Some(round + 1));
        }
        // Steady state: two slots ever allocated.
        assert!(q.nodes.len() <= 2, "slab grew: {}", q.nodes.len());
    }

    #[test]
    fn fifo_counters_track_lengths() {
        let mut q: FifoSlab<u8> = FifoSlab::new(3);
        q.push_back(2, 7);
        q.push_back(2, 8);
        assert_eq!(q.len(2), 2);
        assert_eq!(q.len(0), 0);
        assert!(q.is_empty(0) && !q.is_empty(2));
        assert_eq!(q.total_len(), 2);
        q.clear();
        assert!(q.is_all_empty());
        assert_eq!(q.front(2), None);
    }

    #[test]
    fn fifo_interleaved_lists_stay_independent() {
        let mut q: FifoSlab<usize> = FifoSlab::new(4);
        for i in 0..40 {
            q.push_back(i % 4, i);
        }
        for list in 0..4 {
            let drained: Vec<usize> = std::iter::from_fn(|| q.pop_front(list)).collect();
            assert_eq!(drained, (0..10).map(|k| 4 * k + list).collect::<Vec<_>>());
        }
    }

    #[test]
    fn gen_slab_round_trips() {
        let mut s: GenSlab<u64> = GenSlab::new();
        let a = s.insert(100);
        let b = s.insert(200);
        assert_ne!(a, b);
        assert_eq!(s.get(a), Some(&100));
        *s.get_mut(b).unwrap() += 1;
        assert_eq!(s.remove(b), Some(201));
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(a), Some(100));
        assert!(s.is_empty());
    }

    #[test]
    fn stale_handles_never_alias() {
        let mut s: GenSlab<u32> = GenSlab::new();
        let old = s.insert(1);
        s.remove(old);
        let new = s.insert(2); // reuses the slot
        assert_ne!(old, new);
        assert_eq!(s.get(old), None);
        assert_eq!(s.get_mut(old), None);
        assert_eq!(s.remove(old), None);
        assert_eq!(s.get(new), Some(&2));
    }

    #[test]
    fn cleared_slab_replays_handle_sequence() {
        let mut s: GenSlab<u8> = GenSlab::new();
        let first: Vec<u64> = (0..5).map(|v| s.insert(v)).collect();
        s.clear();
        let second: Vec<u64> = (0..5).map(|v| s.insert(v)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn handles_avoid_the_sentinel() {
        // Callers reserve u64::MAX; exhaustively wrapping one slot must
        // never produce it.
        let mut s: GenSlab<u8> = GenSlab::new();
        for _ in 0..1000 {
            let h = s.insert(0);
            assert_ne!(h, u64::MAX);
            s.remove(h);
        }
    }
}
