//! The event heap: a priority queue over `(time, class, sequence)` keys.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event, as returned by [`EventHeap::pop`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<E> {
    /// Absolute simulation hour at which the event fires.
    pub at: f64,
    /// Ordering class among simultaneous events (lower pops first).
    pub class: u8,
    /// Insertion sequence number (ties within a class pop FIFO).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// The heap key. Ordered by time, then class, then insertion sequence, so
/// popping is fully deterministic: two heaps fed the same pushes always pop
/// the same order, regardless of payload type or platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    // `f64::total_cmp` ordering; times are finite in practice but the key
    // is total either way.
    at_bits: u64,
    class: u8,
    seq: u64,
}

impl Key {
    fn new(at: f64, class: u8, seq: u64) -> Self {
        // Map f64 to lexicographically ordered bits (same trick total_cmp
        // uses): flip all bits for negatives, flip the sign bit otherwise.
        let bits = at.to_bits();
        let at_bits = if bits >> 63 == 1 {
            !bits
        } else {
            bits ^ (1 << 63)
        };
        Self {
            at_bits,
            class,
            seq,
        }
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at_bits
            .cmp(&other.at_bits)
            .then(self.class.cmp(&other.class))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
struct Entry<E> {
    key: Key,
    at: f64,
    event: E,
}

// BinaryHeap is a max-heap; reverse the key comparison to pop earliest
// first.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

/// A deterministic event priority queue.
///
/// Events pop in `(time, class, insertion order)` order. The `class` lets a
/// caller pin relative ordering among simultaneous events of different
/// kinds (e.g. "data arrivals settle before allocation steps"); within one
/// class, simultaneous events pop in the order they were pushed.
#[derive(Debug, Clone, Default)]
pub struct EventHeap<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventHeap<E> {
    /// An empty heap.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Makes room for `additional` more events, so that scheduling a known
    /// number of them at once does not grow the heap by doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` at absolute hour `at` in ordering class `class`.
    pub fn push(&mut self, at: f64, class: u8, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: Key::new(at, class, seq),
            at,
            event,
        });
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.at)
    }

    /// Time of the *latest* pending event — the horizon beyond which this
    /// heap is known to be silent (until something new is pushed). A
    /// barrier-stepping driver uses this to bound its stepping loop
    /// instead of guessing an end time. O(n) scan; the heap is ordered by
    /// earliest, not latest.
    pub fn max_time(&self) -> Option<f64> {
        self.heap.iter().map(|e| e.at).reduce(f64::max)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| ScheduledEvent {
            at: e.at,
            class: e.key.class,
            seq: e.key.seq,
            event: e.event,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next [`EventHeap::push`] will take. Part of
    /// a heap checkpoint: restoring it means pushes after resume continue
    /// the FIFO tie-break exactly where the original run left off.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuilds a heap from checkpointed entries. Each entry keeps its
    /// original `(at, class, seq)` key — including the bit-exact `f64` time
    /// mapping — so the restored heap pops in the identical order, and
    /// `next_seq` resumes the insertion counter for subsequent pushes.
    pub fn restore(entries: Vec<ScheduledEvent<E>>, next_seq: u64) -> Self {
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for e in entries {
            heap.push(Entry {
                key: Key::new(e.at, e.class, e.seq),
                at: e.at,
                event: e.event,
            });
        }
        Self { heap, next_seq }
    }
}

impl<E: Clone> EventHeap<E> {
    /// Every pending event in deterministic pop order, with its original
    /// insertion sequence. Feeding the result to [`EventHeap::restore`]
    /// (with [`EventHeap::next_seq`]) reproduces this heap exactly.
    pub fn snapshot_entries(&self) -> Vec<ScheduledEvent<E>> {
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| e.key);
        entries
            .into_iter()
            .map(|e| ScheduledEvent {
                at: e.at,
                class: e.key.class,
                seq: e.key.seq,
                event: e.event.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(3.0, 0, "c");
        h.push(1.0, 0, "a");
        h.push(2.0, 0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| h.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn class_breaks_time_ties_then_fifo() {
        let mut h = EventHeap::new();
        h.push(1.0, 2, "low-prio-first-pushed");
        h.push(1.0, 0, "hi-prio-a");
        h.push(1.0, 1, "mid");
        h.push(1.0, 0, "hi-prio-b");
        let order: Vec<&str> = std::iter::from_fn(|| h.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            vec!["hi-prio-a", "hi-prio-b", "mid", "low-prio-first-pushed"]
        );
    }

    #[test]
    fn negative_and_zero_times_order_correctly() {
        let mut h = EventHeap::new();
        h.push(0.0, 0, 0);
        h.push(-1.0, 0, -1);
        h.push(-0.0, 0, 0);
        h.push(1.0, 0, 1);
        let order: Vec<i32> = std::iter::from_fn(|| h.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![-1, 0, 0, 1]);
    }

    #[test]
    fn determinism_across_identical_push_sequences() {
        let pushes = [(1.0, 1u8), (1.0, 0), (0.5, 3), (1.0, 1), (0.5, 3)];
        let run = || {
            let mut h = EventHeap::new();
            for (i, &(t, c)) in pushes.iter().enumerate() {
                h.push(t, c, i);
            }
            std::iter::from_fn(|| h.pop().map(|e| e.event)).collect::<Vec<usize>>()
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![2, 4, 1, 0, 3]);
    }

    #[test]
    fn max_time_tracks_latest_pending_event() {
        let mut h = EventHeap::new();
        assert_eq!(h.max_time(), None);
        h.push(2.0, 0, ());
        h.push(5.0, 0, ());
        h.push(1.0, 0, ());
        assert_eq!(h.max_time(), Some(5.0));
        h.pop();
        assert_eq!(h.max_time(), Some(5.0));
        h.pop();
        h.pop();
        assert_eq!(h.max_time(), None);
    }

    #[test]
    fn len_and_peek_track_contents() {
        let mut h = EventHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.peek_time(), None);
        h.push(2.0, 0, ());
        h.push(1.0, 0, ());
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek_time(), Some(1.0));
        h.pop();
        assert_eq!(h.peek_time(), Some(2.0));
    }
}
