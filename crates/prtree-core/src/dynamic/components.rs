//! The LPR-tree's write side, written once: the component slots, the
//! merge plan, the drain and the install of the external logarithmic
//! method (§1.2). The in-memory [`LprTree`](crate::dynamic::LprTree) and
//! `pr-live`'s durable index both keep their components in a
//! [`ComponentSet`] and merge through it; `LprTree` adds page
//! reclamation, `pr-live` the locks, the store commit and the WAL. It
//! does no I/O and owns no thread. The read side is
//! [`fanout`](crate::dynamic::fanout).

use crate::dynamic::policy;
use crate::dynamic::tombstone::Tombstones;
use crate::tree::RTree;
use pr_em::EmError;
use pr_geom::Item;
use std::sync::Arc;
use std::time::Instant;

/// What a slot holds: a component tree, and whatever its owner keeps
/// beside it.
pub trait Component {
    /// Items stored, dead copies included: what the plan sizes slots by.
    fn stored(&self) -> u64;
}

impl<const D: usize> Component for RTree<D> {
    fn stored(&self) -> u64 {
        self.len()
    }
}

/// A durable frontend's slot: the open tree and its stable store id.
impl<const D: usize> Component for (Arc<RTree<D>>, u64) {
    fn stored(&self) -> u64 {
        self.0.len()
    }
}

/// The components of one LPR-tree in geometric slots: slot `i` holds at
/// most `buffer_cap · 2^i` stored items.
#[derive(Debug, Clone)]
pub struct ComponentSet<C> {
    buffer_cap: usize,
    slots: Vec<Option<C>>,
}

/// Which slots one merge drains, and where its output lands. The
/// default plan drains nothing: a checkpoint with no batch to merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergePlan {
    /// Occupied slots, ascending.
    inputs: Vec<usize>,
    /// `None`: placed by the drained size (a global rebuild).
    target: Option<usize>,
}

impl<C> ComponentSet<C> {
    /// An empty set for an in-memory buffer of `buffer_cap` items (the
    /// method's `M`-analogue; clamped to at least 1).
    pub fn new(buffer_cap: usize) -> Self {
        ComponentSet {
            buffer_cap: buffer_cap.max(1),
            slots: Vec::new(),
        }
    }

    /// A buffer this full is merged.
    pub fn buffer_cap(&self) -> usize {
        self.buffer_cap
    }

    /// Capacity of slot `i` (`buffer_cap · 2^i`, saturating).
    pub fn slot_cap(&self, i: usize) -> u64 {
        policy::slot_cap(self.buffer_cap, i)
    }

    /// Slots `0..num_slots()` may be occupied; none above.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The component in `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&C> {
        self.slots.get(slot)?.as_ref()
    }

    /// The components, lowest slot first.
    pub fn iter(&self) -> impl Iterator<Item = &C> {
        self.slots.iter().flatten()
    }

    /// `(slot, component)` for every occupied slot, ascending.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, &C)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(slot, c)| Some((slot, c.as_ref()?)))
    }

    /// Number of components (the query fan-out).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Puts `c` in `slot`, returning what was there.
    pub fn place(&mut self, slot: usize, c: C) -> Option<C> {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot].replace(c)
    }

    /// The plan of a global rebuild: every component is an input.
    pub fn plan_full(&self) -> MergePlan {
        let inputs = self.occupied().map(|(slot, _)| slot).collect();
        MergePlan {
            inputs,
            target: None,
        }
    }

    /// The slot a merge that drained to `merged` items lands in; `None`
    /// when nothing survived the drain.
    pub fn target(&self, plan: &MergePlan, merged: usize) -> Option<usize> {
        let fit = || policy::placement_slot(self.buffer_cap, merged as u64);
        (merged > 0).then(|| plan.target.unwrap_or_else(fit))
    }

    /// `(slot, component)` for each of `plan`'s inputs — what [`drain`]
    /// reads.
    pub fn inputs<'a>(
        &'a self,
        plan: &'a MergePlan,
    ) -> impl Iterator<Item = (usize, &'a C)> + Clone + 'a {
        let input = |&slot| (slot, self.get(slot).expect("a plan input is occupied"));
        plan.inputs.iter().map(input)
    }

    /// The layout [`ComponentSet::install`] will leave, ascending: each
    /// component the plan does not drain, and `None` at `target`.
    pub fn after_merge(&self, plan: &MergePlan, target: Option<usize>) -> Vec<(usize, Option<&C>)> {
        let kept = self
            .occupied()
            .filter(|(slot, _)| !plan.inputs.contains(slot));
        let mut after: Vec<(usize, Option<&C>)> = kept.map(|(slot, c)| (slot, Some(c))).collect();
        if let Some(t) = target {
            after.insert(after.partition_point(|&(slot, _)| slot < t), (t, None));
        }
        after
    }
}

impl<C: Component> ComponentSet<C> {
    /// Items stored in all components, dead copies included.
    pub fn stored(&self) -> u64 {
        self.iter().map(Component::stored).sum()
    }

    /// `(slot, items)` per component, lowest slot first.
    pub fn layout(&self) -> Vec<(usize, u64)> {
        self.occupied()
            .map(|(slot, c)| (slot, c.stored()))
            .collect()
    }

    /// True when `dead` outnumber half of the components' and the
    /// `sealed` batch's items: a global rebuild is owed.
    pub fn needs_compaction(&self, dead: u64, sealed: u64) -> bool {
        policy::needs_compaction(dead, self.stored() + sealed)
    }

    /// The plan of a batch of `incoming` items: it merges with every
    /// occupied slot up to the smallest slot that holds them all, which
    /// is the target.
    pub fn plan(&self, incoming: u64) -> MergePlan {
        let sizes: Vec<u64> = self
            .slots
            .iter()
            .map(|c| c.as_ref().map_or(0, C::stored))
            .collect();
        let target = policy::merge_target(self.buffer_cap, &sizes, incoming);
        let inputs = self.occupied().map(|(slot, _)| slot);
        MergePlan {
            inputs: inputs.take_while(|&slot| slot <= target).collect(),
            target: Some(target),
        }
    }

    /// Ends a merge: `plan`'s input slots empty and `merged` — the
    /// bulk-loaded drain and its target slot — takes its place.
    pub fn install(&mut self, plan: &MergePlan, merged: Option<(usize, C)>) {
        for &slot in &plan.inputs {
            self.slots[slot] = None;
        }
        if let Some((slot, c)) = merged {
            debug_assert!(c.stored() <= self.slot_cap(slot), "slot {slot} overfull");
            let displaced = self.place(slot, c);
            debug_assert!(displaced.is_none(), "slot {slot} was not drained");
        }
    }
}

/// The merge drain: `loose` (the buffer or sealed batch), then the
/// inputs in the order given, through one
/// [`TombstoneFilter`](crate::dynamic::TombstoneFilter). Returns the
/// survivors in loader order and the tombstones the dropped copies
/// consumed. A reinsert whose dead twin is stored pays the tombstone
/// itself: aliased copies are bit-identical, so which one survives is
/// unobservable, and both frontends drop the same one. Pure, so it runs
/// off any lock; each input read is an `em/component_read` span.
pub fn drain<'a, const D: usize>(
    loose: &[Item<D>],
    inputs: impl Iterator<Item = (usize, &'a RTree<D>)> + Clone,
    tombstones: &Tombstones<D>,
    trace: &mut pr_obs::SpanCtx,
) -> Result<(Vec<Item<D>>, Tombstones<D>), EmError> {
    let held: u64 = inputs.clone().map(|(_, tree)| tree.len()).sum();
    let mut items = Vec::with_capacity(loose.len() + held as usize);
    let mut consumed = Tombstones::new();
    let mut filter = tombstones.filter();
    let mut keep = |item: Item<D>| {
        if filter.admit(&item) {
            items.push(item);
        } else {
            consumed.add(&item);
        }
    };
    loose.iter().for_each(|item| keep(*item));
    for (slot, tree) in inputs {
        let t0 = trace.is_active().then(Instant::now);
        tree.for_each_item(&mut keep)?;
        if let Some(t0) = t0 {
            let detail = format!("slot={slot} items={}", tree.len());
            trace.span_since("em", "component_read", t0, &detail);
        }
    }
    Ok((items, consumed))
}
