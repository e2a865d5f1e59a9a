//! The discrete-event simulation engine.
//!
//! [`Engine`] is a priority queue of timestamped events plus a clock.
//! It is generic over the event payload type `E`; the system-integration
//! layer defines one event enum for the whole world and drives the loop:
//!
//! ```
//! use nectar_sim::engine::Engine;
//! use nectar_sim::time::{Dur, Time};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut eng = Engine::new();
//! eng.schedule(Dur::from_nanos(10), Ev::Ping);
//! let mut log = Vec::new();
//! while let Some(ev) = eng.step() {
//!     match ev {
//!         Ev::Ping => {
//!             eng.schedule(Dur::from_nanos(5), Ev::Pong);
//!             log.push((eng.now(), "ping"));
//!         }
//!         Ev::Pong => log.push((eng.now(), "pong")),
//!     }
//! }
//! assert_eq!(log, vec![(Time::from_nanos(10), "ping"), (Time::from_nanos(15), "pong")]);
//! ```
//!
//! Determinism: events that share a timestamp are delivered in the order
//! they were scheduled (FIFO tie-break on a sequence number), so a run
//! is a pure function of its inputs and RNG seed.
//!
//! # Implementation
//!
//! Every operation on the hot path is hash-free and allocation-free
//! (amortised): events live in a **slab** of generation-tagged slots
//! reached directly from the [`EventId`], and ordering comes from an
//! **indexed 4-ary min-heap**.
//!
//! The layout is struct-of-arrays on both sides of the slot boundary:
//!
//! - The heap is two parallel arrays: `heap_keys` holds the dense
//!   16-byte `(time, seq)` ordering keys and `heap_slots` the matching
//!   slab indices. A sift's comparison loop reads `heap_keys` only — a
//!   64-byte cache line carries four keys, exactly one 4-ary node, so
//!   the best-child scan of a level is a single line.
//! - The slab is split into `meta` (8-byte generation + heap-position
//!   records, rewritten on every heap move) and `payloads` (the fat
//!   event enums, touched only at schedule and delivery). Sifting a
//!   deep heap no longer drags payload-sized strides through the cache.
//!
//! Each slot's `meta` remembers its heap position, so
//! [`cancel`](Engine::cancel) removes the entry from the middle of the
//! heap in O(log n) — there are no tombstones to garbage-collect and
//! the heap never holds dead entries, which keeps
//! [`peek_time`](Engine::peek_time) O(1) unconditionally. Freed slots
//! go on a freelist and are reused with a bumped generation, so stale
//! handles are rejected without any lookup structure.
//!
//! For drivers that process many events per simulated instant (a HUB
//! drains an entire 70 ns cycle at once), [`step_batch`](Engine::step_batch)
//! pops every event sharing the earliest timestamp in one call,
//! avoiding a peek/compare per event.

use crate::time::{Dur, Time};
use std::fmt;

/// Handle to a scheduled event, usable to [`Engine::cancel`] it.
///
/// Handles are unique over the lifetime of an engine and never reused:
/// a handle is a slot index plus the slot's generation at scheduling
/// time, and the generation is bumped every time the slot is freed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn pack(slot: u32, gen: u32) -> EventId {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Sentinel heap position for slots not currently queued.
const NOT_QUEUED: u32 = u32::MAX;

/// Heap arity. 4 trades a slightly deeper comparison fan-out per level
/// for half the depth of a binary heap — and with the SoA key array,
/// one node's four 16-byte keys are exactly one cache line, so the
/// per-level best-child scan never crosses a line boundary when the
/// array is line-aligned.
const ARITY: usize = 4;

/// Per-slot bookkeeping, split off from the payload so heap moves
/// rewrite 8-byte records instead of payload-sized ones.
#[derive(Clone, Copy)]
struct SlotMeta {
    /// Bumped on every free; stale [`EventId`]s fail the generation check.
    gen: u32,
    /// Position in the heap arrays, or [`NOT_QUEUED`].
    heap_pos: u32,
}

/// The dense ordering key for one heap entry. Comparisons in the sift
/// loops touch only the contiguous `heap_keys` array — no pointer chase
/// into the slab, no payload bytes pulled through the cache.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    /// Delivery time.
    at: Time,
    /// FIFO tie-break.
    seq: u64,
}

/// A deterministic discrete-event scheduler.
///
/// See the [module documentation](self) for the driving pattern and
/// the data-structure notes. Scheduling and delivering are O(log n)
/// with no allocation beyond slab growth; cancelling is O(log n) with
/// no hashing; [`peek_time`](Engine::peek_time) is O(1).
pub struct Engine<E> {
    now: Time,
    /// Slab bookkeeping, parallel to `payloads`.
    meta: Vec<SlotMeta>,
    /// Slab payloads, parallel to `meta`.
    payloads: Vec<Option<E>>,
    /// Indices of free slots, reused LIFO.
    free: Vec<u32>,
    /// 4-ary min-heap ordering keys, parallel to `heap_slots`.
    heap_keys: Vec<HeapKey>,
    /// Slab slot index per heap entry, parallel to `heap_keys`.
    heap_slots: Vec<u32>,
    next_seq: u64,
    delivered: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<E> fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap_keys.len())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`Time::ZERO`] and no events.
    pub fn new() -> Engine<E> {
        Engine {
            now: Time::ZERO,
            meta: Vec::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            heap_keys: Vec::new(),
            heap_slots: Vec::new(),
            next_seq: 0,
            delivered: 0,
        }
    }

    /// Creates an engine with slab and heap capacity for `n` pending
    /// events, avoiding growth reallocations during warm-up.
    pub fn with_capacity(n: usize) -> Engine<E> {
        Engine {
            now: Time::ZERO,
            meta: Vec::with_capacity(n),
            payloads: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            heap_keys: Vec::with_capacity(n),
            heap_slots: Vec::with_capacity(n),
            next_seq: 0,
            delivered: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// delivered event (or [`Time::ZERO`] before the first).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of live events still pending.
    pub fn pending(&self) -> usize {
        self.heap_keys.len()
    }

    /// `true` if no live events remain.
    pub fn is_idle(&self) -> bool {
        self.heap_keys.is_empty()
    }

    /// Schedules `payload` to fire `delay` after the current time.
    ///
    /// Returns a handle usable with [`cancel`](Engine::cancel).
    pub fn schedule(&mut self, delay: Dur, payload: E) -> EventId {
        let at = self
            .now
            .checked_add(delay)
            .expect("event scheduled past the end of representable time");
        self.schedule_at(at, payload)
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Engine::now): the
    /// simulation cannot deliver events into its own past.
    pub fn schedule_at(&mut self, at: Time, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, payload)
    }

    /// Schedules `payload` at `at` with a **caller-supplied tie-break
    /// key** instead of the engine's FIFO sequence number.
    ///
    /// Same-instant events are delivered in ascending key order, no
    /// matter in which order (or from which engine-feeding thread) they
    /// were inserted. This is the primitive behind sharded execution:
    /// when every event carries a key that is intrinsic to its *source
    /// component* (not to the scheduling order), a partitioned run pops
    /// the exact same sequence as a sequential one.
    ///
    /// Keys must be unique per instant across the whole simulation; the
    /// world derives them as `(source component << 40) | per-source
    /// counter`. Do not mix keyed and unkeyed scheduling in one engine —
    /// FIFO sequence numbers and component keys order against each
    /// other meaninglessly.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Engine::now).
    pub fn schedule_at_keyed(&mut self, at: Time, key: u64, payload: E) -> EventId {
        self.insert(at, key, payload)
    }

    fn insert(&mut self, at: Time, seq: u64, payload: E) -> EventId {
        assert!(at >= self.now, "cannot schedule an event in the past ({at} < {})", self.now);
        let slot = match self.free.pop() {
            Some(i) => {
                debug_assert!(
                    self.meta[i as usize].heap_pos == NOT_QUEUED
                        && self.payloads[i as usize].is_none()
                );
                self.payloads[i as usize] = Some(payload);
                i
            }
            None => {
                let i = self.meta.len();
                assert!(i < NOT_QUEUED as usize, "event slab exhausted");
                self.meta.push(SlotMeta { gen: 0, heap_pos: NOT_QUEUED });
                self.payloads.push(Some(payload));
                i as u32
            }
        };
        let pos = self.heap_keys.len();
        self.heap_keys.push(HeapKey { at, seq });
        self.heap_slots.push(slot);
        self.meta[slot as usize].heap_pos = pos as u32;
        self.sift_up(pos);
        EventId::pack(slot, self.meta[slot as usize].gen)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (it will not be
    /// delivered), `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        let Some(&m) = self.meta.get(slot as usize) else { return false };
        if m.gen != id.gen() || m.heap_pos == NOT_QUEUED {
            return false; // already fired, already cancelled, or unknown
        }
        self.remove_at(m.heap_pos as usize);
        self.release(slot);
        true
    }

    /// Delivers the next event: advances the clock to its timestamp and
    /// returns its payload, or `None` if the queue is empty.
    pub fn step(&mut self) -> Option<E> {
        let &root = self.heap_keys.first()?;
        debug_assert!(root.at >= self.now);
        let slot = self.heap_slots[0];
        self.remove_at(0);
        self.now = root.at;
        let payload = self.payloads[slot as usize].take().expect("queued slot has a payload");
        self.release(slot);
        self.delivered += 1;
        Some(payload)
    }

    /// Delivers **every** event sharing the earliest pending timestamp:
    /// advances the clock to it, appends the payloads to `out` in FIFO
    /// order, and returns the timestamp — or `None` (leaving `out`
    /// untouched) if the queue is empty.
    ///
    /// This is the bulk form of [`step`](Engine::step) for drivers that
    /// drain one simulated instant at a time (e.g. one 70 ns HUB cycle):
    /// one call replaces a peek/compare/pop cycle per event. Events
    /// scheduled *at the returned timestamp while the batch is being
    /// processed* are not lost — they form the next batch, preserving
    /// global FIFO order (their sequence numbers are higher than
    /// everything already popped).
    ///
    /// Note that the popped events are committed for delivery:
    /// [`cancel`](Engine::cancel) on one of them returns `false` once
    /// this call returns. Callers that interleave cancellation with
    /// batch draining must filter stale events themselves (the world
    /// keeps its timer table for exactly this).
    pub fn step_batch(&mut self, out: &mut Vec<E>) -> Option<Time> {
        let at = self.heap_keys.first()?.at;
        self.now = at;
        while let Some(&top) = self.heap_keys.first() {
            if top.at != at {
                break;
            }
            let slot = self.heap_slots[0];
            self.remove_at(0);
            let payload = self.payloads[slot as usize].take().expect("queued slot has a payload");
            self.release(slot);
            self.delivered += 1;
            out.push(payload);
        }
        Some(at)
    }

    /// The timestamp of the next live event, if any, without delivering
    /// it. O(1): the heap root is always live.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap_keys.first().map(|k| k.at)
    }

    /// Advances the clock to `t` without delivering anything.
    ///
    /// Used by drivers that poll in fixed time slices: when every
    /// pending event lies beyond the slice, the clock still moves.
    ///
    /// # Panics
    ///
    /// Panics if a live event is scheduled before `t` — delivering it
    /// late would reorder the simulation.
    pub fn advance_to(&mut self, t: Time) {
        if t <= self.now {
            return;
        }
        if let Some(next) = self.peek_time() {
            assert!(next >= t, "cannot advance past a pending event at {next}");
        }
        self.now = t;
    }

    /// Runs `handler` on every event until the queue drains or the clock
    /// would pass `deadline`; events after the deadline stay queued.
    ///
    /// Returns the number of events delivered by this call.
    pub fn run_until<F>(&mut self, deadline: Time, mut handler: F) -> u64
    where
        F: FnMut(&mut Engine<E>, E),
    {
        let mut n = 0;
        while let Some(at) = self.peek_time() {
            if at > deadline {
                break;
            }
            let ev = self.step().expect("peek_time saw a live event");
            handler(self, ev);
            n += 1;
        }
        if self.now < deadline && self.is_idle() {
            self.now = deadline;
        }
        n
    }

    /// Runs `handler` until no events remain.
    ///
    /// Returns the number of events delivered by this call.
    pub fn run_to_completion<F>(&mut self, handler: F) -> u64
    where
        F: FnMut(&mut Engine<E>, E),
    {
        self.run_until(Time::MAX, handler)
    }

    // ---------------------------------------------------------------
    // Indexed-heap internals
    // ---------------------------------------------------------------

    #[inline]
    fn place(&mut self, pos: usize, key: HeapKey, slot: u32) {
        self.heap_keys[pos] = key;
        self.heap_slots[pos] = slot;
        self.meta[slot as usize].heap_pos = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let moving_key = self.heap_keys[pos];
        let moving_slot = self.heap_slots[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if moving_key < self.heap_keys[parent] {
                let (k, s) = (self.heap_keys[parent], self.heap_slots[parent]);
                self.place(pos, k, s);
                pos = parent;
            } else {
                break;
            }
        }
        self.place(pos, moving_key, moving_slot);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let moving_key = self.heap_keys[pos];
        let moving_slot = self.heap_slots[pos];
        loop {
            let first = pos * ARITY + 1;
            if first >= self.heap_keys.len() {
                break;
            }
            let last = (first + ARITY).min(self.heap_keys.len());
            let mut best = first;
            for c in first + 1..last {
                if self.heap_keys[c] < self.heap_keys[best] {
                    best = c;
                }
            }
            if self.heap_keys[best] < moving_key {
                let (k, s) = (self.heap_keys[best], self.heap_slots[best]);
                self.place(pos, k, s);
                pos = best;
            } else {
                break;
            }
        }
        self.place(pos, moving_key, moving_slot);
    }

    /// Removes the heap entry at `pos`, restoring the heap invariant.
    /// The removed slot's `heap_pos` is left dangling; the caller frees
    /// or repurposes the slot immediately.
    fn remove_at(&mut self, pos: usize) {
        let last_key = self.heap_keys.pop().expect("remove_at on empty heap");
        let last_slot = self.heap_slots.pop().expect("heap arrays in sync");
        if pos == self.heap_keys.len() {
            return; // removed the tail entry
        }
        self.place(pos, last_key, last_slot);
        // The moved tail entry may order before or after its new
        // neighbourhood; one direction will be a no-op.
        self.sift_down(pos);
        if self.meta[last_slot as usize].heap_pos == pos as u32 {
            self.sift_up(pos);
        }
    }

    /// Returns `slot` to the freelist with a bumped generation.
    fn release(&mut self, slot: u32) {
        self.payloads[slot as usize] = None;
        let m = &mut self.meta[slot as usize];
        m.heap_pos = NOT_QUEUED;
        m.gen = m.gen.wrapping_add(1);
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(30), 3);
        eng.schedule(Dur::from_nanos(10), 1);
        eng.schedule(Dur::from_nanos(20), 2);
        assert_eq!(eng.step(), Some(1));
        assert_eq!(eng.now(), Time::from_nanos(10));
        assert_eq!(eng.step(), Some(2));
        assert_eq!(eng.step(), Some(3));
        assert_eq!(eng.step(), None);
        assert_eq!(eng.events_delivered(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(Dur::from_nanos(5), "first");
        eng.schedule(Dur::from_nanos(5), "second");
        eng.schedule(Dur::from_nanos(5), "third");
        assert_eq!(eng.step(), Some("first"));
        assert_eq!(eng.step(), Some("second"));
        assert_eq!(eng.step(), Some("third"));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule(Dur::from_nanos(1), 1);
        let b = eng.schedule(Dur::from_nanos(2), 2);
        assert!(eng.cancel(a));
        assert!(!eng.cancel(a), "double cancel reports false");
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.step(), Some(2));
        assert!(!eng.cancel(b), "cancelling a fired event reports false");
    }

    #[test]
    fn schedule_during_step() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(10), 0);
        let mut seen = Vec::new();
        eng.run_to_completion(|eng, ev| {
            seen.push((eng.now().nanos(), ev));
            if ev < 3 {
                eng.schedule(Dur::from_nanos(10), ev + 1);
            }
        });
        assert_eq!(seen, vec![(10, 0), (20, 1), (30, 2), (40, 3)]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(10), 1);
        eng.schedule(Dur::from_nanos(100), 2);
        let mut seen = Vec::new();
        let n = eng.run_until(Time::from_nanos(50), |_, ev| seen.push(ev));
        assert_eq!(n, 1);
        assert_eq!(seen, vec![1]);
        assert_eq!(eng.pending(), 1);
        // Clock does not jump to the deadline while events remain queued.
        assert_eq!(eng.now(), Time::from_nanos(10));
    }

    #[test]
    fn run_until_advances_idle_clock() {
        let mut eng: Engine<u32> = Engine::new();
        eng.run_until(Time::from_micros(5), |_, _| {});
        assert_eq!(eng.now(), Time::from_micros(5));
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(10), 1);
        eng.step();
        eng.schedule_at(Time::from_nanos(5), 2);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule(Dur::from_nanos(1), 1);
        eng.schedule(Dur::from_nanos(9), 2);
        eng.cancel(a);
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(9)));
    }

    #[test]
    fn zero_delay_fires_at_now() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(7), 1);
        eng.step();
        eng.schedule(Dur::ZERO, 2);
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(7)));
        assert_eq!(eng.step(), Some(2));
        assert_eq!(eng.now(), Time::from_nanos(7));
    }

    #[test]
    fn event_ids_are_never_reused() {
        // Slots are recycled aggressively; the generation tag must keep
        // every handle distinct anyway.
        let mut eng: Engine<u32> = Engine::new();
        let mut seen = std::collections::HashSet::new();
        for round in 0..100 {
            let id = eng.schedule(Dur::from_nanos(1), round);
            assert!(seen.insert(id), "EventId reused at round {round}");
            if round % 2 == 0 {
                assert_eq!(eng.step(), Some(round));
            } else {
                assert!(eng.cancel(id));
            }
        }
    }

    #[test]
    fn stale_handles_never_cancel_a_successor() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule(Dur::from_nanos(1), 1);
        assert!(eng.cancel(a));
        // The slot is recycled for b; the stale handle must not touch it.
        let _b = eng.schedule(Dur::from_nanos(2), 2);
        assert!(!eng.cancel(a));
        assert_eq!(eng.step(), Some(2));
    }

    /// Satellite regression: the seed engine eagerly tombstone-collected
    /// on every cancel; the indexed heap must keep the cheap invariants
    /// — `peek_time` always reflects the earliest *live* event and FIFO
    /// tie-break survives arbitrary cancel/schedule interleaving.
    #[test]
    fn interleaved_cancel_schedule_preserves_peek_and_fifo() {
        let mut eng: Engine<u32> = Engine::new();
        // Three ties at t=10 with cancellations punched into the middle,
        // plus earlier events cancelled before and after scheduling ties.
        let early = eng.schedule(Dur::from_nanos(5), 100);
        let t1 = eng.schedule(Dur::from_nanos(10), 1);
        let t2 = eng.schedule(Dur::from_nanos(10), 2);
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(5)));
        assert!(eng.cancel(early));
        // Cancelling the front immediately re-exposes the tie group.
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(10)));
        let t3 = eng.schedule(Dur::from_nanos(10), 3);
        assert!(eng.cancel(t2));
        let t4 = eng.schedule(Dur::from_nanos(10), 4);
        let _ = (t1, t3, t4);
        // FIFO among survivors of the tie: 1, then 3, then 4.
        assert_eq!(eng.step(), Some(1));
        assert_eq!(eng.peek_time(), Some(Time::from_nanos(10)));
        assert_eq!(eng.step(), Some(3));
        assert_eq!(eng.step(), Some(4));
        assert_eq!(eng.step(), None);
        assert!(eng.is_idle());
    }

    #[test]
    fn cancel_deep_in_heap_keeps_order() {
        // Cancel entries at every depth of the 4-ary heap and check the
        // survivors still come out sorted.
        let mut eng: Engine<u64> = Engine::new();
        let mut ids = Vec::new();
        for i in 0..64u64 {
            // Scatter times so the heap has structure.
            let t = (i * 37) % 101 + 1;
            ids.push((eng.schedule(Dur::from_nanos(t), t), i));
        }
        for (i, &(id, _)) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(eng.cancel(id));
            }
        }
        let mut out = Vec::new();
        while let Some(t) = eng.step() {
            out.push(t);
        }
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted, "cancellation corrupted heap order");
        assert_eq!(out.len(), 64 - 64usize.div_ceil(3));
    }

    #[test]
    fn step_batch_drains_one_instant_fifo() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Dur::from_nanos(10), 1);
        eng.schedule(Dur::from_nanos(10), 2);
        eng.schedule(Dur::from_nanos(10), 3);
        eng.schedule(Dur::from_nanos(20), 4);
        let mut out = Vec::new();
        assert_eq!(eng.step_batch(&mut out), Some(Time::from_nanos(10)));
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(eng.now(), Time::from_nanos(10));
        assert_eq!(eng.pending(), 1);
        out.clear();
        assert_eq!(eng.step_batch(&mut out), Some(Time::from_nanos(20)));
        assert_eq!(out, vec![4]);
        out.clear();
        assert_eq!(eng.step_batch(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn step_batch_matches_step_by_step() {
        // The batched and per-event drains must produce identical
        // delivery sequences, including same-instant reschedules.
        let build = || {
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..200u64 {
                eng.schedule(Dur::from_nanos((i * 13) % 23), i);
            }
            eng
        };
        let mut a = build();
        let mut by_step = Vec::new();
        while let Some(ev) = a.step() {
            by_step.push((a.now(), ev));
        }
        let mut b = build();
        let mut by_batch = Vec::new();
        let mut buf = Vec::new();
        while let Some(at) = b.step_batch(&mut buf) {
            by_batch.extend(buf.drain(..).map(|ev| (at, ev)));
        }
        assert_eq!(by_step, by_batch);
        assert_eq!(a.events_delivered(), b.events_delivered());
    }
}
