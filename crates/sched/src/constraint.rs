//! Resource-constraint strategies for list scheduling.
//!
//! The list scheduler is generic over a [`ResourceConstraint`]; three
//! strategies are provided:
//!
//! * [`Unbounded`] — no limits (list scheduling degenerates to ASAP);
//! * [`PerClassBound`] — the standard constraint of Eqn (2): at every control
//!   step, no more than `N_y` operations of type `y` execute simultaneously;
//! * [`SchedulingSetBound`] — the paper's constraint of Eqn (3), which uses
//!   the incomplete wordlength information of the compatibility graph.  For
//!   every type `y` it requires
//!   `Σ_{s ∈ S_y} max_t Σ_{o ∈ O(s)} e_{o,t} / |S(o)|  ≤  N_y`,
//!   i.e. operations that could be executed by several scheduling-set members
//!   share their usage equally between those members, and each member
//!   contributes its peak usage to the type total.

use std::cell::Cell;
use std::collections::BTreeMap;

use mwl_model::{Cycles, OpId, ResourceClass};

/// Numerical slack used when comparing fractional resource usage.
const EPSILON: f64 = 1e-9;

pub(crate) const WORD_BITS: usize = u64::BITS as usize;

#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

#[inline]
fn bit_is_set(words: &[u64], bit: usize) -> bool {
    words[bit / WORD_BITS] >> (bit % WORD_BITS) & 1 == 1
}

/// Ascending indices of the set bits of a bitset.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * WORD_BITS + b
            })
        })
    })
}

/// A pluggable admission policy consulted by the list scheduler before
/// placing an operation at a control step.
///
/// Implementations carry their own bookkeeping of already-committed
/// placements.  The scheduler guarantees that it calls [`commit`] exactly
/// once for every placement it makes, immediately after a successful
/// [`admits`] query with the same arguments.
///
/// [`admits`]: ResourceConstraint::admits
/// [`commit`]: ResourceConstraint::commit
pub trait ResourceConstraint {
    /// Returns `true` if the operation may start at `step` and occupy
    /// `latency` control steps without violating the constraint, given all
    /// previously committed placements.
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool;

    /// Records the placement of an operation.
    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles);

    /// Returns `true` if the operation could be admitted at *some* step in an
    /// otherwise empty schedule.  Used to distinguish "temporarily blocked"
    /// from "permanently impossible".
    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        // Default: being admitted at a far-future step of an empty timeline
        // is representative.  Implementations with history-dependent
        // constraints should override this.
        let _ = (op, latency);
        true
    }
}

/// A mutable reference forwards to the referenced constraint, letting a
/// caller keep ownership of a constraint whose buffers are reused across
/// scheduler invocations (see [`SchedulingSetBound`]).
impl<C: ResourceConstraint + ?Sized> ResourceConstraint for &mut C {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        (**self).admits(op, step, latency)
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        (**self).commit(op, step, latency)
    }

    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        (**self).admissible_at_all(op, latency)
    }
}

/// No resource constraint: every operation is admitted immediately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unbounded;

impl Unbounded {
    /// Creates the unbounded policy.
    #[must_use]
    pub fn new() -> Self {
        Unbounded
    }
}

impl ResourceConstraint for Unbounded {
    fn admits(&self, _op: OpId, _step: Cycles, _latency: Cycles) -> bool {
        true
    }

    fn commit(&mut self, _op: OpId, _step: Cycles, _latency: Cycles) {}
}

/// The standard resource constraint of Eqn (2): at most `N_y` operations of
/// class `y` execute during any control step.
#[derive(Debug, Clone)]
pub struct PerClassBound {
    /// Class of every operation, indexed by [`OpId`].
    op_classes: Vec<ResourceClass>,
    /// Bound per class; classes missing from the map are unbounded.
    bounds: BTreeMap<ResourceClass, usize>,
    /// Committed placements: `(start, end, class)`.
    committed: Vec<(Cycles, Cycles, ResourceClass)>,
}

impl PerClassBound {
    /// Creates the policy from per-operation classes and per-class bounds.
    /// Classes absent from `bounds` are not constrained.
    #[must_use]
    pub fn new(op_classes: Vec<ResourceClass>, bounds: BTreeMap<ResourceClass, usize>) -> Self {
        PerClassBound {
            op_classes,
            bounds,
            committed: Vec::new(),
        }
    }

    fn usage_at(&self, class: ResourceClass, step: Cycles) -> usize {
        self.committed
            .iter()
            .filter(|&&(s, e, c)| c == class && s <= step && step < e)
            .count()
    }
}

impl ResourceConstraint for PerClassBound {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(&bound) = self.bounds.get(&class) else {
            return true;
        };
        if bound == 0 {
            return false;
        }
        (step..step + latency).all(|t| self.usage_at(class, t) < bound)
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        let class = self.op_classes[op.index()];
        self.committed.push((step, step + latency, class));
    }

    fn admissible_at_all(&self, op: OpId, _latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        self.bounds.get(&class).is_none_or(|&b| b > 0)
    }
}

/// Exclusive access to a fixed set of resource instances: every operation is
/// pre-bound to one instance, and no two operations bound to the same
/// instance may overlap in time.
///
/// This is the constraint used when *re*-scheduling an already-bound
/// datapath — e.g. the post-bind instance-merging pass, which serialises the
/// cliques of coalesced instances back-to-back — where the binding is data,
/// not a per-class head count.
#[derive(Debug, Clone, Default)]
pub struct PerInstanceExclusive {
    /// Instance index of every operation, indexed by [`OpId`].
    op_instances: Vec<usize>,
    /// Committed busy intervals per instance: `(start, end)`.
    committed: Vec<Vec<(Cycles, Cycles)>>,
}

impl PerInstanceExclusive {
    /// Creates the policy from the per-operation instance assignment.
    /// `num_instances` must exceed every entry of `op_instances`.
    #[must_use]
    pub fn new(op_instances: Vec<usize>, num_instances: usize) -> Self {
        debug_assert!(op_instances.iter().all(|&i| i < num_instances));
        PerInstanceExclusive {
            op_instances,
            committed: vec![Vec::new(); num_instances],
        }
    }

    /// Re-initialises the policy in place, reusing the committed-interval
    /// buffers — the allocation-free counterpart of [`new`](Self::new) for
    /// callers (like the merge pass) that re-schedule many bindings in a
    /// loop.  The result is indistinguishable from a fresh policy.
    pub fn rebuild(&mut self, op_instances: &[usize], num_instances: usize) {
        debug_assert!(op_instances.iter().all(|&i| i < num_instances));
        self.op_instances.clear();
        self.op_instances.extend_from_slice(op_instances);
        self.committed.truncate(num_instances);
        for intervals in &mut self.committed {
            intervals.clear();
        }
        if self.committed.len() < num_instances {
            self.committed.resize_with(num_instances, Vec::new);
        }
    }
}

impl ResourceConstraint for PerInstanceExclusive {
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let end = step + latency;
        self.committed[self.op_instances[op.index()]]
            .iter()
            .all(|&(s, e)| end <= s || e <= step)
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        self.committed[self.op_instances[op.index()]].push((step, step + latency));
    }
}

/// The paper's wordlength-aware constraint of Eqn (3).
///
/// Built from the wordlength compatibility graph: every operation `o` has a
/// set `S(o)` of compatible scheduling-set members; every member `s` has a
/// resource class.  The committed usage of a member `s` during step `t` is
/// `Σ_{o ∈ O(s) active at t} 1/|S(o)|`, and the constraint requires, for each
/// class `y`, that the sum over members of class `y` of their *peak* usage
/// stays within the bound `N_y`.
///
/// The tables are owned buffers shaped for the steady state of the `DPAlloc`
/// refinement loop:
///
/// * per-class bounds live in a [`ResourceClass::COUNT`]-sized array;
/// * every `S(o)` is one row of a flat bitset and `|S(o)|` is its popcount —
///   when a refinement deletes wordlength edges of one operation and the
///   scheduling set is unchanged, only that operation's row is rewritten
///   ([`set_row`](Self::set_row));
/// * [`admits`](ResourceConstraint::admits) is allocation-free: it walks the
///   class's members in index order and overlays the tentative peak of the
///   operation's own members on the fly;
/// * [`reset_loads`](Self::reset_loads) clears the committed load profiles
///   without releasing their allocations, so repeated schedules are
///   allocation-free after warm-up;
/// * every admission the bound `N_y` itself turns down is recorded per class
///   ([`bound_rejections`](Self::bound_rejections)).  Admission is monotone
///   in `N_y` and the recorder never changes an answer, so raising only the
///   bounds of unrecorded classes replays the same schedule or the same
///   stall — the fact the allocator's iteration memo rests on.
///
/// Build one in a single call with [`new`](Self::new), or start from
/// [`Default`] and configure it with [`reset_problem`](Self::reset_problem),
/// [`set_members`](Self::set_members) and [`set_row`](Self::set_row).  Pass
/// `&mut bound` to [`crate::ListScheduler::schedule`] (mutable references
/// forward the [`ResourceConstraint`] impl) so the buffers stay with the
/// caller.
#[derive(Debug, Clone, Default)]
pub struct SchedulingSetBound {
    /// Class of every operation, indexed by [`OpId`].
    op_classes: Vec<ResourceClass>,
    /// Bound per class, dense; `None` means unbounded.
    bounds: [Option<usize>; ResourceClass::COUNT],
    /// Resource class of every scheduling-set member.
    member_classes: Vec<ResourceClass>,
    /// Member indices by class, ascending — the iteration domain of the
    /// Eqn (3) left-hand side.
    class_members: [Vec<u32>; ResourceClass::COUNT],
    /// `S(o)` rows: bit `j` of row `o` is set iff member `j` ∈ `S(o)`.
    /// Flat, stride `row_words`.
    row_bits: Vec<u64>,
    /// Words per `row_bits` row (`ceil(members / 64)`).
    row_words: usize,
    /// Per-member load profile over control steps.
    load: Vec<Vec<f64>>,
    /// Per-member peak load so far.
    peak: Vec<f64>,
    /// Bit `y` is set once `N_y` turned an admission down since the last
    /// [`reset_loads`](Self::reset_loads).  A `Cell` because admission
    /// queries take `&self`.
    rejections: Cell<u32>,
}

impl SchedulingSetBound {
    /// Creates the policy.
    ///
    /// * `op_classes[i]` — resource class of operation `i`;
    /// * `op_members[i]` — scheduling-set members able to execute operation
    ///   `i` (the paper's `S(o)`), as indices into `member_classes`;
    /// * `member_classes[j]` — class of scheduling-set member `j`;
    /// * `bounds` — `N_y` per class (absent classes are unbounded).
    #[must_use]
    pub fn new(
        op_classes: Vec<ResourceClass>,
        op_members: Vec<Vec<usize>>,
        member_classes: Vec<ResourceClass>,
        bounds: BTreeMap<ResourceClass, usize>,
    ) -> Self {
        let mut dense_bounds = [None; ResourceClass::COUNT];
        for (&class, &bound) in &bounds {
            dense_bounds[class.index()] = Some(bound);
        }
        let mut constraint = Self::default();
        constraint.reset_problem(&op_classes, dense_bounds);
        constraint.set_members(member_classes.into_iter());
        for (i, row) in op_members.iter().enumerate() {
            constraint.set_row(OpId::new(i as u32), row.iter().copied());
        }
        constraint
    }

    /// Begins a new scheduling problem: copies the per-operation classes and
    /// installs the dense per-class bounds (`None` = unbounded).  Membership
    /// tables and load state are configured separately so they can survive
    /// across refinement iterations.
    pub fn reset_problem(
        &mut self,
        op_classes: &[ResourceClass],
        bounds: [Option<usize>; ResourceClass::COUNT],
    ) {
        self.op_classes.clear();
        self.op_classes.extend_from_slice(op_classes);
        self.bounds = bounds;
        self.row_bits.clear();
    }

    /// Replaces the scheduling-set member classes (clearing every row —
    /// rewrite them with [`set_row`](Self::set_row)).
    pub fn set_members(&mut self, classes: impl Iterator<Item = ResourceClass>) {
        self.member_classes.clear();
        self.member_classes.extend(classes);
        for list in &mut self.class_members {
            list.clear();
        }
        for (j, c) in self.member_classes.iter().enumerate() {
            self.class_members[c.index()].push(j as u32);
        }
        let members = self.member_classes.len();
        if self.load.len() < members {
            self.load.resize_with(members, Vec::new);
        }
        if self.peak.len() < members {
            self.peak.resize(members, 0.0);
        }
        self.row_words = words_for(members);
        self.row_bits.clear();
        self.row_bits
            .resize(self.op_classes.len() * self.row_words, 0);
    }

    /// Rewrites one operation's member row `S(o)`.
    pub fn set_row(&mut self, op: OpId, members: impl Iterator<Item = usize>) {
        let bits = &mut self.row_bits[op.index() * self.row_words..][..self.row_words];
        bits.fill(0);
        for j in members {
            bits[j / WORD_BITS] |= 1 << (j % WORD_BITS);
        }
    }

    /// Clears all committed load and peaks, keeping every buffer allocation —
    /// call before each schedule.
    pub fn reset_loads(&mut self) {
        for profile in &mut self.load {
            profile.clear();
        }
        for peak in &mut self.peak {
            *peak = 0.0;
        }
        self.rejections.set(0);
    }

    /// Classes whose bound `N_y` turned an admission down since the last
    /// [`reset_loads`](Self::reset_loads), as a bitmask over
    /// [`ResourceClass::index`]: bit `y` is set when an
    /// [`admits`](ResourceConstraint::admits) or
    /// [`admissible_at_all`](ResourceConstraint::admissible_at_all) query of
    /// class `y` found the Eqn (3) total above `N_y`, or `N_y == 0`.
    /// Refusals that no bound could lift (an empty `S(o)`) are not recorded.
    ///
    /// Admission is monotone in `N_y`, and no query of a class whose bit
    /// stays clear was refused by its bound, so rescheduling the same
    /// problem with those classes' bounds raised repeats every answer, and
    /// with them the schedule or the stall.
    #[must_use]
    pub fn bound_rejections(&self) -> u32 {
        self.rejections.get()
    }

    /// Answers a bounded admission query of `class`, recording a refusal.
    #[inline]
    fn within_bound(&self, class: ResourceClass, total: f64, bound: usize) -> bool {
        let admitted = bound > 0 && total <= bound as f64 + EPSILON;
        if !admitted {
            self.rejections
                .set(self.rejections.get() | (1 << class.index()));
        }
        admitted
    }

    #[inline]
    fn row(&self, op: OpId) -> &[u64] {
        &self.row_bits[op.index() * self.row_words..][..self.row_words]
    }

    /// The share `1/|S(o)|` one operation contributes to each of its
    /// members, or `None` when `S(o)` is empty.
    #[inline]
    fn share(&self, op: OpId) -> Option<f64> {
        let size: u32 = self.row(op).iter().map(|w| w.count_ones()).sum();
        (size > 0).then(|| 1.0 / f64::from(size))
    }

    #[inline]
    fn load_at(&self, member: usize, step: Cycles) -> f64 {
        self.load[member].get(step as usize).copied().unwrap_or(0.0)
    }
}

impl ResourceConstraint for SchedulingSetBound {
    #[inline]
    fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(bound) = self.bounds[class.index()] else {
            return true;
        };
        let Some(share) = self.share(op) else {
            return false;
        };
        let row = self.row(op);
        // The Eqn (3) left-hand side with this op tentatively placed: walk
        // the class's members in index order, overlaying the tentative peak
        // of the op's own members on the fly.
        let mut total = 0.0f64;
        for &j in &self.class_members[class.index()] {
            let m = j as usize;
            let value = if bit_is_set(row, m) {
                let mut new_peak = self.peak[m];
                for t in step..step + latency {
                    new_peak = new_peak.max(self.load_at(m, t) + share);
                }
                new_peak
            } else {
                self.peak[m]
            };
            total += value;
        }
        self.within_bound(class, total, bound)
    }

    fn commit(&mut self, op: OpId, step: Cycles, latency: Cycles) {
        let Some(share) = self.share(op) else {
            return;
        };
        let end = (step + latency) as usize;
        let row = &self.row_bits[op.index() * self.row_words..][..self.row_words];
        for m in set_bits(row) {
            let load = &mut self.load[m];
            if load.len() < end {
                load.resize(end, 0.0);
            }
            for slot in &mut load[step as usize..end] {
                *slot += share;
                if *slot > self.peak[m] {
                    self.peak[m] = *slot;
                }
            }
        }
    }

    fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
        let class = self.op_classes[op.index()];
        let Some(bound) = self.bounds[class.index()] else {
            return true;
        };
        let Some(share) = self.share(op) else {
            return false;
        };
        // Placing the op in untouched future steps raises each compatible
        // member's peak to at least 1/|S(o)| (if not already higher); the
        // other members keep their current peaks.
        let row = self.row(op);
        let mut total = 0.0f64;
        for &j in &self.class_members[class.index()] {
            let m = j as usize;
            let value = if bit_is_set(row, m) {
                self.peak[m].max(share)
            } else {
                self.peak[m]
            };
            total += value;
        }
        let _ = latency;
        self.within_bound(class, total, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> OpId {
        OpId::new(i)
    }

    #[test]
    fn unbounded_admits_everything() {
        let mut u = Unbounded::new();
        assert!(u.admits(id(0), 0, 5));
        u.commit(id(0), 0, 5);
        assert!(u.admits(id(1), 0, 5));
        assert!(u.admissible_at_all(id(1), 3));
    }

    #[test]
    fn per_class_bound_limits_concurrency() {
        let classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = PerClassBound::new(classes, bounds);
        assert!(c.admits(id(0), 0, 3));
        c.commit(id(0), 0, 3);
        assert!(!c.admits(id(1), 0, 2));
        assert!(!c.admits(id(1), 2, 2));
        assert!(c.admits(id(1), 3, 2));
        assert!(c.admissible_at_all(id(1), 2));
    }

    #[test]
    fn per_class_bound_ignores_other_classes() {
        let classes = vec![ResourceClass::Multiplier, ResourceClass::Adder];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = PerClassBound::new(classes, bounds);
        c.commit(id(0), 0, 3);
        // The adder is unconstrained (no entry in the bound map).
        assert!(c.admits(id(1), 0, 3));
    }

    #[test]
    fn per_class_zero_bound_rejects_forever() {
        let classes = vec![ResourceClass::Adder];
        let bounds = BTreeMap::from([(ResourceClass::Adder, 0)]);
        let c = PerClassBound::new(classes, bounds);
        assert!(!c.admits(id(0), 10, 1));
        assert!(!c.admissible_at_all(id(0), 1));
    }

    /// Reproduces the paper's Fig. 2 discussion: after deleting the edge
    /// between `o1` and the large multiplier, one multiplier resource is no
    /// longer enough even though the operations never overlap in time.
    #[test]
    fn eqn3_rejects_single_multiplier_after_edge_deletion() {
        // Two multiplications; members: 0 = small multiplier, 1 = large.
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        // o0 can only use the small member, o1 only the large member.
        let op_members = vec![vec![0], vec![1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 3));
        c.commit(id(0), 0, 3);
        // Even though o1 would run later (no time overlap), admitting it
        // would need a second multiplier: sum of member peaks = 2 > 1.
        assert!(!c.admits(id(1), 5, 3));
        assert!(!c.admissible_at_all(id(1), 3));
    }

    #[test]
    fn eqn3_degenerates_to_eqn2_with_single_member() {
        // Both ops can use the single big member: constraint behaves like a
        // concurrency bound of 1.
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![0]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 3));
        c.commit(id(0), 0, 3);
        assert!(!c.admits(id(1), 1, 3)); // overlap -> rejected
        assert!(c.admits(id(1), 3, 3)); // sequential -> accepted
        c.commit(id(1), 3, 3);
        // Sequential commits do not stack: the class total stays at 1.0, so a
        // third placement in free steps still fits.
        assert!(c.admits(id(0), 6, 3));
    }

    #[test]
    fn eqn3_fractional_sharing_allows_flexible_ops() {
        // Two members; op0 and op1 can use either member (|S(o)| = 2), so
        // each contributes 0.5 to each member.  Under a bound of one
        // multiplier the two flexible operations may run sequentially (class
        // total stays at 1.0) but not concurrently (total would reach 2.0).
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let op_members = vec![vec![0, 1], vec![0, 1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 2));
        c.commit(id(0), 0, 2);
        assert!(!c.admits(id(1), 0, 2)); // concurrent -> total 2.0 > 1
        assert!(c.admits(id(1), 2, 2)); // sequential -> total stays 1.0
        c.commit(id(1), 2, 2);
        assert!(c.admits(id(0), 4, 2)); // the class total is still 1.0
    }

    #[test]
    fn eqn3_is_at_least_as_strict_as_eqn2() {
        // Any placement admitted by Eqn 3 must also be admitted by Eqn 2 with
        // the same bounds (the paper: Eqn 3 is at least as strict).
        let op_classes = vec![ResourceClass::Multiplier; 4];
        let member_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![0, 1], vec![1], vec![0, 1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 2)]);
        let mut eqn3 = SchedulingSetBound::new(
            op_classes.clone(),
            op_members,
            member_classes,
            bounds.clone(),
        );
        let mut eqn2 = PerClassBound::new(op_classes, bounds);
        let placements = [(0u32, 0u32, 2u32), (1, 0, 2), (2, 2, 2), (3, 2, 2)];
        for &(op, step, lat) in &placements {
            if eqn3.admits(id(op), step, lat) {
                assert!(
                    eqn2.admits(id(op), step, lat),
                    "Eqn3 admitted a placement Eqn2 rejects"
                );
                eqn3.commit(id(op), step, lat);
                eqn2.commit(id(op), step, lat);
            }
        }
    }

    #[test]
    fn eqn3_unlisted_class_is_unbounded() {
        let op_classes = vec![ResourceClass::Adder];
        let member_classes = vec![ResourceClass::Adder];
        let op_members = vec![vec![0]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 2));
        assert!(c.admissible_at_all(id(0), 2));
    }

    /// A naive Eqn (3) evaluator straight from the definition: every query
    /// recomputes each member's load profile from the list of committed
    /// placements, with no incremental state.
    struct NaiveEqn3<'a> {
        op_classes: &'a [ResourceClass],
        op_members: &'a [Vec<usize>],
        member_classes: &'a [ResourceClass],
        bounds: &'a BTreeMap<ResourceClass, usize>,
        placed: Vec<(OpId, Cycles, Cycles)>,
    }

    impl NaiveEqn3<'_> {
        /// Peak over all steps of `Σ 1/|S(o)|` for the placed ops in `O(s)`.
        fn peak(&self, placed: &[(OpId, Cycles, Cycles)], member: usize) -> f64 {
            let horizon = placed.iter().map(|&(_, s, l)| s + l).max().unwrap_or(0);
            (0..horizon)
                .map(|t| {
                    placed
                        .iter()
                        .filter(|&&(o, s, l)| {
                            s <= t && t < s + l && self.op_members[o.index()].contains(&member)
                        })
                        .fold(0.0, |acc, &(o, _, _)| {
                            acc + 1.0 / self.op_members[o.index()].len() as f64
                        })
                })
                .fold(0.0, f64::max)
        }

        fn admits(&self, op: OpId, step: Cycles, latency: Cycles) -> bool {
            let class = self.op_classes[op.index()];
            let Some(&bound) = self.bounds.get(&class) else {
                return true;
            };
            if self.op_members[op.index()].is_empty() {
                return false;
            }
            let mut placed = self.placed.clone();
            placed.push((op, step, latency));
            let total: f64 = (0..self.member_classes.len())
                .filter(|&s| self.member_classes[s] == class)
                .map(|s| self.peak(&placed, s))
                .sum();
            total <= bound as f64 + EPSILON
        }

        /// Admission in the untouched steps after every committed placement.
        fn admissible_at_all(&self, op: OpId, latency: Cycles) -> bool {
            let horizon = self
                .placed
                .iter()
                .map(|&(_, s, l)| s + l)
                .max()
                .unwrap_or(0);
            self.admits(op, horizon, latency)
        }
    }

    /// Replays a deterministic pseudo-random probe/commit sequence through
    /// the constraint and the naive evaluator, asserting identical
    /// decisions at every step.
    fn assert_matches_naive(
        op_classes: &[ResourceClass],
        op_members: &[Vec<usize>],
        member_classes: &[ResourceClass],
        bounds: &BTreeMap<ResourceClass, usize>,
        seed: u64,
    ) {
        let mut c = SchedulingSetBound::new(
            op_classes.to_vec(),
            op_members.to_vec(),
            member_classes.to_vec(),
            bounds.clone(),
        );
        let mut naive = NaiveEqn3 {
            op_classes,
            op_members,
            member_classes,
            bounds,
            placed: Vec::new(),
        };
        let mut state = seed;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..400 {
            let op = id(next(op_classes.len() as u64) as u32);
            let step = next(6) as Cycles;
            let latency = 1 + next(3) as Cycles;
            let a = naive.admits(op, step, latency);
            assert_eq!(
                c.admits(op, step, latency),
                a,
                "admits diverged for {op:?} @ {step}+{latency}"
            );
            assert_eq!(
                c.admissible_at_all(op, latency),
                naive.admissible_at_all(op, latency)
            );
            if a && next(2) == 0 {
                c.commit(op, step, latency);
                naive.placed.push((op, step, latency));
            }
        }
    }

    /// The constraint agrees with the naive evaluator decision for
    /// decision, including near the fractional-sharing boundary.
    #[test]
    fn eqn3_matches_naive_evaluator_decision_for_decision() {
        let op_classes = vec![
            ResourceClass::Multiplier,
            ResourceClass::Multiplier,
            ResourceClass::Multiplier,
            ResourceClass::Adder,
            ResourceClass::Multiplier,
        ];
        let member_classes = vec![
            ResourceClass::Multiplier,
            ResourceClass::Multiplier,
            ResourceClass::Adder,
        ];
        let op_members = vec![vec![0], vec![0, 1], vec![1], vec![2], vec![0, 1]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 2), (ResourceClass::Adder, 1)]);
        assert_matches_naive(
            &op_classes,
            &op_members,
            &member_classes,
            &bounds,
            0x9e37_79b9,
        );
    }

    /// The same replay over generated configurations: random classes,
    /// random same-class `S(o)` rows (including empty ones and more than 64
    /// members) and random, possibly zero or absent, bounds.
    #[test]
    fn eqn3_matches_naive_evaluator_on_generated_configurations() {
        let mut state = 0x5eed_u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let class = |bit: u64| {
            if bit == 0 {
                ResourceClass::Adder
            } else {
                ResourceClass::Multiplier
            }
        };
        for round in 0..24 {
            let num_ops = 1 + next(8) as usize;
            let num_members = if round % 8 == 7 {
                70
            } else {
                1 + next(5) as usize
            };
            let op_classes: Vec<ResourceClass> = (0..num_ops).map(|_| class(next(2))).collect();
            let member_classes: Vec<ResourceClass> =
                (0..num_members).map(|_| class(next(2))).collect();
            // As in the allocator, `S(o)` only holds members of o's class.
            let op_members: Vec<Vec<usize>> = op_classes
                .iter()
                .map(|&c| {
                    (0..num_members)
                        .filter(|&j| member_classes[j] == c && next(3) != 0)
                        .collect()
                })
                .collect();
            let mut bounds = BTreeMap::new();
            for c in [ResourceClass::Adder, ResourceClass::Multiplier] {
                if next(4) != 0 {
                    bounds.insert(c, next(4) as usize);
                }
            }
            assert_matches_naive(
                &op_classes,
                &op_members,
                &member_classes,
                &bounds,
                0x1234_5678 + round,
            );
        }
    }

    /// `reset_loads` restores a fresh constraint (buffers reused, not
    /// state).
    #[test]
    fn reset_loads_clears_committed_load() {
        let op_classes = vec![ResourceClass::Multiplier, ResourceClass::Multiplier];
        let member_classes = vec![ResourceClass::Multiplier];
        let op_members = vec![vec![0], vec![0]];
        let bounds = BTreeMap::from([(ResourceClass::Multiplier, 1)]);
        let mut c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(c.admits(id(0), 0, 3));
        c.commit(id(0), 0, 3);
        assert!(!c.admits(id(1), 1, 3));
        c.reset_loads();
        assert!(c.admits(id(1), 1, 3));
        // A mutable reference forwards the constraint unchanged.
        let via_ref: &mut SchedulingSetBound = &mut c;
        assert!(via_ref.admits(id(1), 1, 3));
    }

    #[test]
    fn eqn3_empty_member_set_rejected() {
        let op_classes = vec![ResourceClass::Adder];
        let member_classes = vec![ResourceClass::Adder];
        let op_members = vec![vec![]];
        let bounds = BTreeMap::from([(ResourceClass::Adder, 4)]);
        let c = SchedulingSetBound::new(op_classes, op_members, member_classes, bounds);
        assert!(!c.admits(id(0), 0, 2));
        assert!(!c.admissible_at_all(id(0), 2));
    }
}
