//! # conductor-sim
//!
//! A small discrete-event simulation kernel shared by the MapReduce
//! execution engine and the fleet-level `ConductorService`: an event heap
//! with fully deterministic ordering, a monotonic simulation clock, and
//! process handles for addressing events to the state machines that share
//! one clock.
//!
//! The kernel is deliberately minimal — it owns *when* things happen, never
//! *what* happens. Payloads are opaque to the heap; processes (the
//! engine's upload/scheduling/download handlers, the service's per-job
//! executions and monitors) interpret them. Determinism is a hard
//! requirement: given the same schedule of events, every run pops them in
//! the identical order, because ties are broken first by an explicit event
//! class and then by insertion sequence (FIFO).
//!
//! # Event-class layering
//!
//! Classes are small `u8` priorities the *callers* assign; the kernel only
//! promises that among simultaneous events lower classes pop first. Both
//! drivers in this workspace follow the same layering discipline so that
//! an instant always settles in cause-before-observer order:
//!
//! - The job engine orders data arrivals (0) before allocation steps (1)
//!   before task finishes (2) before completion (3).
//! - The fleet service orders arrivals (0) before job wakeups (1) before
//!   **spot revocations** (2) before monitor ticks (9). A task that
//!   finishes exactly at an out-bid hour retires before the revocation
//!   strikes (its hour completed); the revocation kills only the
//!   survivors; and the monitor then observes the *post-storm* world, so
//!   a re-plan in the same instant already sees the damage.
//!
//! Leaving gaps in the numbering (the monitor sits at 9) lets callers
//! splice new event kinds between existing layers — exactly how
//! revocations landed at 2 — without renumbering, which would silently
//! reorder previously recorded simulations.
//!
//! # The public surface
//!
//! [`Simulator`] is the one way in: schedule events, pop them one at a time
//! ([`Simulator::pop`], a [`ScheduledEvent`]) or in simultaneous batches
//! ([`Simulator::pop_due`], within [`TIME_EPSILON`]), and checkpoint or
//! restore the pending set. [`ProcessRegistry`] hands out the
//! [`ProcessId`]s that address events to the state machines sharing one
//! clock. The heap and the clock behind the simulator are private.

mod clock;
mod heap;
mod process;

use clock::SimClock;
use heap::EventHeap;
pub use heap::ScheduledEvent;
pub use process::{ProcessId, ProcessRegistry};

/// Default time tolerance (in simulated hours) within which two events are
/// considered simultaneous. Matches the `1e-9` slack the execution engine
/// has always used for time comparisons, so event-batch boundaries agree
/// with the engine's availability/retirement checks.
pub const TIME_EPSILON: f64 = 1e-9;

/// A discrete-event simulator: an event heap plus a monotonic clock.
///
/// The typical driver loop pops *batches* of simultaneous events (within
/// [`TIME_EPSILON`]), advances the clock to the batch time, and lets the
/// owning process(es) handle them:
///
/// ```
/// use conductor_sim::Simulator;
///
/// let mut sim: Simulator<&'static str> = Simulator::new();
/// sim.schedule(1.0, 0, "first");
/// sim.schedule(1.0, 0, "second");
/// sim.schedule(2.0, 0, "later");
/// let mut batch = Vec::new();
/// let t = sim.pop_due(&mut batch).unwrap();
/// assert_eq!(t, 1.0);
/// assert_eq!(batch, vec!["first", "second"]);
/// assert_eq!(sim.now(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<E> {
    heap: EventHeap<E>,
    clock: SimClock,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator with the clock at hour zero.
    pub fn new() -> Self {
        Self {
            heap: EventHeap::new(),
            clock: SimClock::new(),
        }
    }

    /// Current simulation time in hours.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Schedules `event` at absolute hour `at` with the given ordering
    /// `class` (lower classes pop first among simultaneous events).
    pub fn schedule(&mut self, at: f64, class: u8, event: E) {
        self.heap.push(at, class, event);
    }

    /// Schedules a batch of `(at, class, event)` triples.
    pub fn schedule_all(&mut self, events: impl IntoIterator<Item = (f64, u8, E)>) {
        let events = events.into_iter();
        self.heap.reserve(events.size_hint().0);
        for (at, class, event) in events {
            self.heap.push(at, class, event);
        }
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek_time()
    }

    /// Absolute hour of the *latest* pending event, if any — the horizon
    /// beyond which the clock is silent until something new is scheduled.
    /// Barrier-stepping drivers (the sharded fleet runtime) use this to
    /// bound how far their stepping loop must advance.
    pub fn max_time(&self) -> Option<f64> {
        self.heap.max_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next scheduled event will take; part of a
    /// simulator checkpoint (see [`Simulator::restore`]).
    pub fn next_seq(&self) -> u64 {
        self.heap.next_seq()
    }

    /// Rebuilds a simulator from a checkpoint: the clock time, the pending
    /// events (with their original `(at, class, seq)` keys, e.g. from
    /// [`Simulator::snapshot_entries`]), and the insertion-sequence counter.
    /// The restored simulator pops the identical order and interleaves new
    /// pushes exactly as the original would have.
    pub fn restore(now: f64, entries: Vec<ScheduledEvent<E>>, next_seq: u64) -> Self {
        let mut clock = SimClock::new();
        clock.advance_to(now);
        Self {
            heap: EventHeap::restore(entries, next_seq),
            clock,
        }
    }

    /// Pops the single next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.clock.advance_to(ev.at);
        Some(ev)
    }

    /// Drains every event within [`TIME_EPSILON`] of the earliest pending
    /// event into `batch` (cleared first), advances the clock to the
    /// earliest event's time, and returns that time. Returns `None` when no
    /// events are pending (the batch is left empty).
    ///
    /// Batching simultaneous events is what lets handlers reproduce the
    /// classic "advance to the next horizon, then settle everything due"
    /// loop exactly: all task finishes, allocation steps and data arrivals
    /// that coincide are visible in one wakeup.
    pub fn pop_due(&mut self, batch: &mut Vec<E>) -> Option<f64> {
        batch.clear();
        let first = self.heap.pop()?;
        let t = first.at;
        self.clock.advance_to(t);
        batch.push(first.event);
        while let Some(next_t) = self.heap.peek_time() {
            if next_t <= t + TIME_EPSILON {
                batch.push(self.heap.pop().expect("peeked event present").event);
            } else {
                break;
            }
        }
        Some(t)
    }
}

impl<E: Clone> Simulator<E> {
    /// Every pending event in deterministic pop order, for checkpointing.
    pub fn snapshot_entries(&self) -> Vec<ScheduledEvent<E>> {
        self.heap.snapshot_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_due_batches_simultaneous_events() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(2.0, 0, 20);
        sim.schedule(1.0, 0, 10);
        sim.schedule(1.0 + TIME_EPSILON / 2.0, 0, 11);
        let mut batch = Vec::new();
        assert_eq!(sim.pop_due(&mut batch), Some(1.0));
        assert_eq!(batch, vec![10, 11]);
        assert_eq!(sim.len(), 1);
        assert_eq!(sim.pop_due(&mut batch), Some(2.0));
        assert_eq!(batch, vec![20]);
        assert_eq!(sim.pop_due(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn classes_layer_simultaneous_events_deterministically() {
        // The fleet's layering: arrival(0) < job(1) < revocation(2) <
        // monitor(9) — scheduled here in scrambled order, twice, to check
        // both the class sort and FIFO within a class.
        let mut sim: Simulator<&str> = Simulator::new();
        sim.schedule(5.0, 9, "monitor");
        sim.schedule(5.0, 2, "revocation-a");
        sim.schedule(5.0, 0, "arrival");
        sim.schedule(5.0, 1, "job-a");
        sim.schedule(5.0, 2, "revocation-b");
        sim.schedule(5.0, 1, "job-b");
        let mut batch = Vec::new();
        assert_eq!(sim.pop_due(&mut batch), Some(5.0));
        assert_eq!(
            batch,
            vec![
                "arrival",
                "job-a",
                "job-b",
                "revocation-a",
                "revocation-b",
                "monitor"
            ]
        );
    }

    #[test]
    fn clock_is_monotonic_even_for_stale_events() {
        let mut sim: Simulator<&str> = Simulator::new();
        sim.schedule(5.0, 0, "late");
        assert!(sim.pop().is_some());
        assert_eq!(sim.now(), 5.0);
        // An event scheduled in the past still pops, but never rewinds time.
        sim.schedule(1.0, 0, "stale");
        let ev = sim.pop().unwrap();
        assert_eq!(ev.at, 1.0);
        assert_eq!(sim.now(), 5.0);
    }

    #[test]
    fn snapshot_restore_reproduces_pop_order_and_interleaving() {
        let mut a: Simulator<u32> = Simulator::new();
        let pushes = [(1.0, 1u8), (1.0, 0), (0.5, 3), (1.0, 1), (2.0, 2)];
        for (i, &(t, c)) in pushes.iter().enumerate() {
            a.schedule(t, c, i as u32);
        }
        a.pop();
        let mut b = Simulator::restore(a.now(), a.snapshot_entries(), a.next_seq());
        assert_eq!(b.now(), a.now());
        // New pushes after the checkpoint must tie-break identically: the
        // restored sequence counter continues where the original left off.
        a.schedule(1.0, 1, 99);
        b.schedule(1.0, 1, 99);
        let drain = |s: &mut Simulator<u32>| {
            std::iter::from_fn(|| s.pop().map(|e| (e.at, e.class, e.seq, e.event)))
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(&mut a), drain(&mut b));
    }

    #[test]
    fn schedule_all_accepts_iterators() {
        let mut sim: Simulator<usize> = Simulator::new();
        sim.schedule_all((0..4).map(|i| (i as f64, 0u8, i)));
        let mut seen = Vec::new();
        while let Some(ev) = sim.pop() {
            seen.push(ev.event);
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
