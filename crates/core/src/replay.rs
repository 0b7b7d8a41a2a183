//! The per-call memo that lets a bound escalation replay iterations instead
//! of re-solving them.
//!
//! Every escalation round of `DPAlloc` restarts refinement from the full
//! compatibility graph, so its first iterations revisit `H` edge sets an
//! earlier round of the same call already scheduled.  An iteration is a
//! pure function of `H`, the per-class bounds `N_y` and the configuration:
//! the bounds are read only by Eqn (3) admission, whose answers are
//! monotone in `N_y`.  If every class whose bound has risen since a stored
//! run had no admission turned down by its bound
//! ([`mwl_sched::SchedulingSetBound::bound_rejections`]), the list schedule
//! repeats exactly — and with it `attach_schedule`, `BindSelect`, the `λ`
//! check and the refinement choice.  The stored decision is then the
//! iteration's decision, and the allocator applies it without scheduling,
//! binding or selecting.
//!
//! Only decisions that do not read the bounds afterwards are stored: the
//! refined operation, or the class of the operation the list schedule
//! stalled on.  A feasible iteration assembles a datapath and an exhausted
//! one picks the class to escalate from the bounds, so neither is replayed.
//!
//! Each entry also keeps the iteration's scheduling set.  The set is the
//! minimum cover of the `O(r)` columns — a pure function of `H` alone, and
//! `H` is the key — so an iteration whose `H` is stored but whose bounds
//! stop a replay still takes the stored set instead of solving the cover
//! again.  The decision is kept per (`H`, bounds), the cover per `H`.

use mwl_model::{OpId, ResourceClass};

/// Per-class bounds `N_y` as the Eqn (3) constraint holds them.
pub(crate) type DenseBounds = [Option<usize>; ResourceClass::COUNT];

/// What an iteration decided, when that decision can be replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// The latency constraint was violated and this operation was refined.
    Refine(OpId),
    /// The list schedule stalled on an operation of this class.
    Stall(ResourceClass),
}

/// What [`IterationMemo::lookup`] knows about an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup<'a> {
    /// No iteration of this call ran on this `H`.
    Miss,
    /// The stored decision provably repeats under the current bounds.
    Replay(Decision),
    /// The bounds may change the schedule, but the scheduling set of this
    /// `H` is stored (resource indices, ascending).
    Cover(&'a [usize]),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Bounds the stored iteration ran under.
    bounds: DenseBounds,
    /// [`mwl_sched::SchedulingSetBound::bound_rejections`] of its schedule.
    rejections: u32,
    decision: Decision,
    /// Start and length of the entry's scheduling set in `covers`.
    cover: (u32, u32),
}

/// Empty-slot marker of the open-addressing index.
const EMPTY: u32 = u32::MAX;

/// Iterations of one allocation call keyed by their exact `H` edge set.
///
/// Keys are the compatibility graph's `O(r)` column words, stored flat with
/// a fixed stride and compared in full; a linear-probing index maps a key's
/// hash to its entry.  [`clear`](Self::clear) keeps every buffer, so a warm
/// memo allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct IterationMemo {
    /// Words per key, fixed by the first key recorded since the last
    /// [`clear`](Self::clear).
    stride: usize,
    /// Keys, `stride` words each, parallel to `entries`.
    keys: Vec<u64>,
    entries: Vec<Entry>,
    /// Entry index per slot, or [`EMPTY`]; the length is a power of two at
    /// least twice the entry count.
    slots: Vec<u32>,
    /// Every entry's scheduling set, concatenated.
    covers: Vec<usize>,
    /// Iterations replayed since the last [`clear`](Self::clear).
    replayed: usize,
    /// Lookups since the last [`clear`](Self::clear) that returned a stored
    /// scheduling set.
    reused_covers: usize,
}

impl IterationMemo {
    /// Forgets every entry and both counts.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.entries.clear();
        self.slots.fill(EMPTY);
        self.covers.clear();
        self.replayed = 0;
        self.reused_covers = 0;
    }

    /// Iterations replayed since the last [`clear`](Self::clear).
    pub(crate) fn replayed(&self) -> usize {
        self.replayed
    }

    /// Lookups since the last [`clear`](Self::clear) that returned a stored
    /// scheduling set.
    pub(crate) fn reused_covers(&self) -> usize {
        self.reused_covers
    }

    /// What the memo holds for `key` under `bounds`.  The stored decision
    /// repeats when every class whose bound differs from the stored run's
    /// has risen, stayed bounded, and never been turned down by its bound;
    /// it counts as replayed.  Otherwise a stored key still yields its
    /// scheduling set, which counts as a reused cover.
    pub(crate) fn lookup(&mut self, key: &[u64], bounds: &DenseBounds) -> Lookup<'_> {
        let slot = self.find(key);
        // An `EMPTY` slot, or the `0` of an empty index, indexes past every
        // entry: a miss.
        let Some(entry) = self
            .slots
            .get(slot)
            .and_then(|&index| self.entries.get(index as usize))
        else {
            return Lookup::Miss;
        };
        let replayable = (0..ResourceClass::COUNT).all(|c| {
            entry.bounds[c] == bounds[c]
                || entry.rejections & (1 << c) == 0
                    && matches!((entry.bounds[c], bounds[c]), (Some(old), Some(new)) if new >= old)
        });
        if replayable {
            self.replayed += 1;
            return Lookup::Replay(entry.decision);
        }
        self.reused_covers += 1;
        let (start, len) = entry.cover;
        Lookup::Cover(&self.covers[start as usize..][..len as usize])
    }

    /// Stores the decision an iteration computed for `key`, with its
    /// scheduling set `cover`.  An existing entry's decision is overwritten
    /// and its cover kept: both covers solve the same `H`.
    pub(crate) fn record(
        &mut self,
        key: &[u64],
        bounds: &DenseBounds,
        rejections: u32,
        decision: Decision,
        cover: &[usize],
    ) {
        if self.entries.is_empty() {
            self.stride = key.len();
        }
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.find(key);
        match self.slots[slot] {
            EMPTY => {
                self.slots[slot] = self.entries.len() as u32;
                self.keys.extend_from_slice(key);
                self.entries.push(Entry {
                    bounds: *bounds,
                    rejections,
                    decision,
                    cover: (self.covers.len() as u32, cover.len() as u32),
                });
                self.covers.extend_from_slice(cover);
            }
            index => {
                let entry = &mut self.entries[index as usize];
                entry.bounds = *bounds;
                entry.rejections = rejections;
                entry.decision = decision;
            }
        }
    }

    /// The slot holding `key`, or the empty slot where it belongs (`0` for
    /// an empty index, which [`lookup`](Self::lookup) reads as a miss).
    fn find(&self, key: &[u64]) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash(key) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return slot,
                index if self.key(index as usize) == key => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn key(&self, index: usize) -> &[u64] {
        &self.keys[index * self.stride..][..self.stride]
    }

    /// Doubles the index (at least 64 slots) and re-inserts every entry.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(64);
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        let mask = len - 1;
        for index in 0..self.entries.len() {
            let mut slot = hash(self.key(index)) as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = index as u32;
        }
    }
}

/// A multiply-rotate word hash; keys are the allocator's own edge sets, so
/// no protection against crafted collisions is needed.
fn hash(words: &[u64]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let h = words.iter().fold(words.len() as u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(K)
    });
    h ^ h >> 32
}

#[cfg(test)]
mod tests {
    use super::*;

    const MUL: usize = 1;

    fn bounds(adders: usize, multipliers: usize) -> DenseBounds {
        let mut b = [None; ResourceClass::COUNT];
        b[0] = Some(adders);
        b[MUL] = Some(multipliers);
        b
    }

    #[test]
    fn replays_only_when_every_raised_class_was_never_refused() {
        let mut memo = IterationMemo::default();
        memo.clear();
        let key = [0b1011, 7];
        let cover = [2, 5];
        let refine = Decision::Refine(OpId::new(3));
        assert_eq!(memo.lookup(&key, &bounds(1, 1)), Lookup::Miss, "empty memo");
        // The multiplier bound refused an admission.
        memo.record(&key, &bounds(1, 1), 1 << MUL, refine, &cover);
        assert_eq!(memo.lookup(&key, &bounds(1, 1)), Lookup::Replay(refine));
        assert_eq!(memo.lookup(&key, &bounds(2, 1)), Lookup::Replay(refine));
        let blocked = Lookup::Cover(&cover);
        assert_eq!(
            memo.lookup(&key, &bounds(1, 2)),
            blocked,
            "refused class rose"
        );
        assert_eq!(memo.lookup(&key, &bounds(0, 1)), blocked, "a bound fell");
        let mut unbounded = bounds(1, 1);
        unbounded[0] = None;
        assert_eq!(memo.lookup(&key, &unbounded), blocked, "a bound was lifted");
        assert_eq!(
            memo.lookup(&[0b1011, 6], &bounds(1, 1)),
            Lookup::Miss,
            "other H"
        );
        assert_eq!((memo.replayed(), memo.reused_covers()), (2, 3));

        memo.clear();
        assert_eq!(memo.lookup(&key, &bounds(1, 1)), Lookup::Miss);
        assert_eq!((memo.replayed(), memo.reused_covers()), (0, 0));
    }

    /// The scheduling set recorded with an entry comes back from a lookup
    /// whose bounds stop a replay, and a re-solved iteration that overwrites
    /// the entry's decision keeps its set.
    #[test]
    fn a_blocked_hit_returns_the_stored_cover_and_an_overwrite_keeps_it() {
        let mut memo = IterationMemo::default();
        memo.clear();
        let (first, second) = ([0b1, 0], [0b10, 0]);
        memo.record(
            &first,
            &bounds(1, 1),
            1 << MUL,
            Decision::Refine(OpId::new(0)),
            &[4],
        );
        memo.record(
            &second,
            &bounds(1, 1),
            0,
            Decision::Refine(OpId::new(1)),
            &[0, 3, 9],
        );
        assert_eq!(memo.lookup(&first, &bounds(1, 2)), Lookup::Cover(&[4]));

        // A re-solved iteration overwrites the entry's decision.
        let stall = Decision::Stall(ResourceClass::Multiplier);
        memo.record(&first, &bounds(1, 2), 1 << MUL, stall, &[4]);
        assert_eq!(memo.lookup(&first, &bounds(1, 2)), Lookup::Replay(stall));
        assert_eq!(memo.lookup(&first, &bounds(1, 3)), Lookup::Cover(&[4]));
        assert_eq!(memo.lookup(&first, &bounds(1, 1)), Lookup::Cover(&[4]));
        assert_eq!(
            memo.lookup(&second, &bounds(0, 1)),
            Lookup::Cover(&[0, 3, 9])
        );
        assert_eq!((memo.replayed(), memo.reused_covers()), (1, 4));
    }

    #[test]
    fn growth_keeps_every_entry_reachable() {
        let mut memo = IterationMemo::default();
        memo.clear();
        for i in 0..500u64 {
            let op = OpId::new(i as u32);
            let cover = [i as usize];
            memo.record(
                &[i, i * 31, !i],
                &bounds(1, 1),
                0,
                Decision::Refine(op),
                &cover,
            );
        }
        for i in 0..500u64 {
            let op = OpId::new(i as u32);
            assert_eq!(
                memo.lookup(&[i, i * 31, !i], &bounds(1, 1)),
                Lookup::Replay(Decision::Refine(op))
            );
            assert_eq!(
                memo.lookup(&[i, i * 31, !i], &bounds(0, 1)),
                Lookup::Cover(&[i as usize])
            );
        }
        assert_eq!(
            memo.lookup(&[500, 500 * 31, !500], &bounds(1, 1)),
            Lookup::Miss
        );
    }
}
