//! External-memory PR-tree bulk loading (§2.1 "Efficient construction
//! algorithm", §2.2).
//!
//! Each stage builds the leaves of a pseudo-PR-tree over an entry stream.
//! A stage that fits the memory budget is read into one buffer and
//! grouped in place by `crate::bulk::kd_split`, like a stage of
//! [`crate::bulk::pr`]. A larger one is sorted into `2D` lists, one per
//! mapped axis, most extreme entry first, and then built in **rounds**.
//! The lists are only ever read front to back, so the stage's own are
//! never written out: one read of the input forms the runs of all `2D`
//! orders, and a list *is* its few sorted runs, read through their merge
//! ([`pr_em::MergeReader`]). A round builds `Θ(log M)` kd levels at once
//! over its share of the lists:
//!
//! 1. **Resolve.** The top of the kd-tree is kept in memory: per node its
//!    entry count, kd axis, priority leaves and split threshold, plus one
//!    set of the ids the round's priority leaves hold. It grows depth by
//!    depth, and only by *reading* the lists. Every record read is routed
//!    through the thresholds resolved so far to the node it belongs to.
//!    At each depth one scan of `lists[a]` per axis `a` gives every node
//!    of that depth its next priority leaf (the first `B` records routed
//!    to it; the scan stops once every leaf is full), and one scan of the
//!    depth's kd axis list stops at each node's median rank. A node whose
//!    share fits in memory is not resolved further, and the depth loop
//!    ends when no node is left or the state below would outgrow the
//!    budget (a round always resolves its root, so the narrowest round
//!    is one kd node with two children).
//! 2. **Distribute, once.** `lists[0]` is split among all unresolved
//!    (*frontier*) children, which is all the in-memory recursion reads;
//!    the other `2D − 1` lists only among children that are still too
//!    large, and those recurse with a round of their own.
//! 3. **Emit** in left-first depth-first order: a node's priority leaves,
//!    then its subtrees.
//!
//! I/O, in passes over a stage input of `N/B` blocks with `D = 2`: the
//! sorts cost 5 (run formation, 1 read + 4 writes; the runs are merged
//! on disk only while there are more than a quarter of the sort's
//! fan-in, which at the paper's `N/M ≈ 9` is never); the scans of one
//! depth at most `2D + 1`, each a merge of the runs that reads the
//! prefix a scan of the written list would plus at most a block per
//! run, and early termination keeps four levels at about 8 in all
//! (measured, 500 k rectangles under a 2 MiB budget); distribution 2
//! when every frontier child fits in memory, up to `4D` when none does;
//! reading the children back and writing the leaf pages 2. About 17 in
//! all, where writing the four lists out and reading them back made it
//! 25.
//!
//! Memory: while a round resolves and distributes it holds one writer
//! block per frontier child, `2D` priority leaves and as many taken ids
//! per resolved node, and one reader block; the number of nodes resolved
//! is bounded so that this sum stays within
//! [`ExternalConfig::memory_bytes`]. A scan of the stage's lists holds
//! one block per run, `k` of them (at most a quarter of the budget), so
//! the stage's first round resolves within the budget less those `k − 1`
//! extra blocks; the lists a round distributes to its children are one
//! run each. Before distributing, the leaves are spilled to one
//! temporary stream in emission order, to be read back through a single
//! block; they are freed once distribution, which still consults them,
//! is done. So a frontier child finished in memory has the whole budget
//! again: its entries in one buffer (40 B in memory for 36 B on disk in
//! 2-D), permuted in place, plus one range per leaf and one page being
//! encoded.
//!
//! The output does not depend on the budget's pass structure: priority
//! leaves and medians are selections over the same sorted orders, the
//! split rule is `crate::bulk::kd_split`'s, pages are written in the
//! order the one-node-per-pass recursion wrote them (page ids break
//! coordinate ties one stage up), and which sub-problems finish in
//! memory is decided by the same size test. `Store::save` of the result
//! is byte-identical, which `tests/external_io.rs` pins with hashes taken
//! from that earlier loader.
//!
//! **The sort.** Run formation sorts each memory load in place under
//! each list's `kd_split::AxisOrder`: an unstable sort, with the comparator
//! bound once per load for the axis's side, comparing packed keys. The
//! order is the reference's `(total_cmp rank, id)`, a total order on
//! entries with distinct ids, so each load sorts to the one sequence a
//! stable sort under the reference gives: the same runs, block for
//! block, the same merged lists, the same tree and the same I/O. On a
//! 2-core host, 500 k TIGER rectangles under a 2 MiB budget on a
//! `MemDevice` (12 loads each way, medians) took 1.26 s with stable
//! sorts that allocated a load-sized scratch and called the reference
//! comparator through `to_item()`: 434 ms forming runs (36 sorts of
//! 58 254 entries), 610 ms resolving (4.2 M records read), 92 ms
//! distributing and 105 ms finishing children in memory. With the
//! in-place sorts, and the scans routing a record through the
//! thresholds before they look it up in the taken set (hashed with one
//! multiply), it took 1.00 s: 260, 533, 85 and 109 ms.
//!
//! **Repeated ids.** Distinct ids are what make a record's id its
//! identity in the taken set and make the orders total. Where ids
//! repeat, the lists' orders break the reference's ties on every
//! corner, so only identical entries tie and they are adjacent in every
//! list. Identical means one id and the same corner bits, the rule
//! tombstones and the delete path's probes use ([`same_identity`]). A
//! scan numbers each run of identical entries (copy 0, 1, …), and
//! identical entries, being interchangeable, are placed by count: a
//! priority leaf holds every entry before its last one in its list's
//! order and as many copies of the last as it ends with, and a kd
//! threshold sends its first copies one way and the rest the other
//! (`Tie`). A record whose id is in the taken set is checked against
//! the leaves on its way down, so another record with that id is not
//! mistaken for it. The tree holds every record and is valid; its bytes
//! are not pinned, as the in-memory kernel's unstable selections never
//! pinned them either.

use crate::bulk::external::ExternalConfig;
use crate::bulk::kd_split::{leaf_ranges, split_point, AxisOrder, NodeShape, Order};
use crate::bulk::pr::PrTreeLoader;
use crate::dynamic::same_identity;
use crate::entry::Entry;
use crate::params::TreeParams;
use crate::tree::RTree;
use crate::writer::{stack_stream_levels, LevelWriter};
use pr_em::{
    external_sort_multi, BlockDevice, EmError, MergeReader, SortOrder, Stream, StreamReader,
    StreamWriter,
};
use pr_geom::Axis;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::Arc;

/// External PR-tree loader.
#[derive(Debug, Clone, Copy)]
pub struct PrExternalLoader {
    /// Memory budget (`M`).
    pub config: ExternalConfig,
    /// Structural knobs shared with the in-memory loader.
    pub inner: PrTreeLoader,
}

impl PrExternalLoader {
    /// Loader with the given memory budget and default structure.
    pub fn new(config: ExternalConfig) -> Self {
        PrExternalLoader {
            config,
            inner: PrTreeLoader::default(),
        }
    }

    /// Bulk-loads a PR-tree from an entry stream on `dev`.
    pub fn load<const D: usize>(
        &self,
        dev: Arc<dyn BlockDevice>,
        params: TreeParams,
        input: &Stream,
    ) -> Result<RTree<D>, EmError> {
        if input.is_empty() {
            return RTree::new_empty(dev, params);
        }
        stack_stream_levels(dev, params, input, 0, input.len(), |dev, s, level, cap| {
            self.stage::<D>(dev, s, cap, level)
        })
    }

    /// One stage: writes the pseudo-PR-tree leaf pages for `input` at
    /// `level` and returns the parent-entry stream.
    fn stage<const D: usize>(
        &self,
        dev: &dyn BlockDevice,
        input: &Stream,
        cap: usize,
        level: u8,
    ) -> Result<Stream, EmError> {
        let mut stage = Stage::<D> {
            dev,
            shape: self.inner.shape(cap),
            mem_fit: self.config.run_capacity::<Entry<D>>() as u64,
            pages: LevelWriter::new(dev, level),
            parents: StreamWriter::new(dev),
        };

        // Small stages skip the external machinery entirely.
        if input.len() <= stage.mem_fit {
            stage.finish_in_memory(input, Axis(0))?;
            return stage.parents.finish();
        }

        // 2D extremeness-sorted lists of the whole stage input, left as
        // the sort's runs. `round_bytes` counts one reader block; a scan
        // of these lists holds one per run.
        let mut orders: Vec<_> = Axis::all::<D>().map(extreme_first).collect();
        let lists = external_sort_multi::<Entry<D>, _>(dev, input, self.config, &mut orders)?;
        let extra_blocks = lists[0].len() - 1;
        let budget = self.config.memory_bytes - extra_blocks * dev.block_size();
        stage.round(lists, input.len(), Axis(0), budget)?;
        stage.parents.finish()
    }
}

/// A sorted list: the sorted runs whose merge it is. The stage's lists
/// are the runs of the sort; the ones a round distributes are one run
/// each.
type List = Vec<Stream>;

/// The order of list `axis`: most extreme entry on that axis first.
fn extreme_first(axis: Axis) -> AxisOrder {
    AxisOrder(axis, Order::Extreme)
}

/// What one stage's rounds share.
struct Stage<'d, const D: usize> {
    dev: &'d dyn BlockDevice,
    shape: NodeShape,
    /// Entries that fit the memory budget.
    mem_fit: u64,
    /// Writes the stage's leaf-group pages.
    pages: LevelWriter<'d>,
    /// Parent entries of the pages written so far, in emission order.
    parents: StreamWriter<'d, Entry<D>>,
}

/// A node of a round's in-memory partial kd-tree.
struct Node<const D: usize> {
    /// Entries of the round's lists that belong to this node's subtree.
    count: u64,
    /// The kd axis the node splits on.
    axis: Axis,
    /// How many of `count` the node's own priority leaves hold.
    taken: u64,
    /// The priority leaves, concatenated in axis order (emptied after
    /// distribution), and their lengths.
    leaves: Vec<Entry<D>>,
    leaf_lens: Vec<usize>,
    kids: Kids<D>,
    /// Frontier only, after distribution: the node's share of the
    /// lists — all `2D` if it is still external, else `lists[0]` alone.
    lists: Vec<List>,
}

enum Kids<const D: usize> {
    /// Not resolved in this round: a frontier child.
    Frontier,
    /// Resolved; the priority leaves took every entry.
    None,
    /// Resolved; at most a node's worth of entries remain and form the
    /// single child.
    One(usize),
    /// Resolved; entries below the threshold on the node's axis go to
    /// the left child, entries above it to the right one, and copies of
    /// the threshold as `tie` says.
    Two {
        threshold: Entry<D>,
        tie: Tie,
        left: usize,
        right: usize,
    },
}

/// Where the copies of a threshold go: in any scan, the first `first`
/// copies that pass the node's priority leaves to the left child if
/// `first_left`, else to the right one, and the rest to the other.
/// Identical entries are interchangeable, so the count is all that must
/// agree across lists. With distinct entries the only copy is the
/// threshold itself, which goes right.
#[derive(Clone, Copy)]
struct Tie {
    first: u64,
    first_left: bool,
}

/// Hash-set bytes per taken id: a 4-byte slot and a control byte, at the
/// table's lowest load factor (7/16, just after it doubles).
const TAKEN_ID_BYTES: usize = 12;

/// Hashes taken ids with one multiply by an odd factor drawn per round:
/// ids are the caller's, and a fixed factor would let chosen ids collide.
/// The table indexes by the low bits of the hash, so the product's
/// well-mixed high half is rotated down to them.
#[derive(Clone, Copy)]
struct IdHashing(u64);

impl IdHashing {
    fn new() -> Self {
        IdHashing(RandomState::new().hash_one(0u32) | 1)
    }
}

impl BuildHasher for IdHashing {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            factor: self.0,
            hash: 0,
        }
    }
}

struct IdHasher {
    factor: u64,
    hash: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.hash = (self.hash ^ u64::from(id)).wrapping_mul(self.factor);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A round's in-memory state.
struct Round<const D: usize> {
    /// The partial kd-tree; node 0 is the round's root.
    nodes: Vec<Node<D>>,
    /// Ids held by the priority leaves of `nodes`.
    taken: HashSet<u32, IdHashing>,
}

impl<const D: usize> Round<D> {
    fn push(&mut self, count: u64, axis: Axis) -> usize {
        self.nodes.push(Node {
            count,
            axis,
            taken: 0,
            leaves: Vec::new(),
            leaf_lens: Vec::new(),
            kids: Kids::Frontier,
            lists: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// The frontier node a scan's `copy`-th copy of `e` (see [`Scan`])
    /// belongs to, and its index among the copies that reach that node,
    /// if `wanted` says the scan wants the node; `None` if it does not
    /// or a priority leaf of this round holds the copy.
    ///
    /// The thresholds are walked first. Only a record that lands on a
    /// wanted node is looked up in the taken set, and only one whose id
    /// is there is walked again past the priority leaves: with distinct
    /// ids, that id is its own.
    fn route(
        &self,
        e: &Entry<D>,
        copy: u64,
        wanted: impl Fn(usize) -> bool,
    ) -> Option<(usize, u64)> {
        let (n, k) = self.walk(e, copy, false)?;
        if !wanted(n) {
            return None;
        }
        if !self.taken.contains(&e.ptr) {
            return Some((n, k));
        }
        self.walk(e, copy, true).filter(|&(n, _)| wanted(n))
    }

    /// Routes the `copy`-th copy of `e` down the resolved nodes. With
    /// `leaves`, a node's priority leaves are passed first, and `None`
    /// means one holds the copy; without, `None` means the copy reached
    /// a node whose leaves took every entry.
    fn walk(&self, e: &Entry<D>, mut copy: u64, leaves: bool) -> Option<(usize, u64)> {
        let mut n = 0;
        loop {
            let node = &self.nodes[n];
            if leaves {
                copy = node.pass_leaves(e, copy)?;
            }
            n = match node.kids {
                Kids::Frontier => return Some((n, copy)),
                Kids::None => return None,
                Kids::One(kid) => kid,
                Kids::Two {
                    threshold,
                    tie,
                    left,
                    right,
                } => match AxisOrder(node.axis, Order::Kd).cmp(e, &threshold) {
                    Ordering::Less => left,
                    Ordering::Greater => right,
                    Ordering::Equal if copy < tie.first => {
                        if tie.first_left {
                            left
                        } else {
                            right
                        }
                    }
                    Ordering::Equal => {
                        copy -= tie.first;
                        if tie.first_left {
                            right
                        } else {
                            left
                        }
                    }
                },
            };
        }
    }

    /// Node indices in left-first depth-first order.
    fn preorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0];
        while let Some(n) = stack.pop() {
            order.push(n);
            match self.nodes[n].kids {
                Kids::Frontier | Kids::None => {}
                Kids::One(kid) => stack.push(kid),
                Kids::Two { left, right, .. } => stack.extend([right, left]),
            }
        }
        order
    }
}

impl<const D: usize> Node<D> {
    /// Passes the `copy`-th copy of `e` that reaches this node by its
    /// priority leaves: `None` if one holds it, else its index among the
    /// copies that pass them. Leaf `a` holds a prefix, in list `a`'s
    /// order, of what the leaves before it left: every entry before its
    /// last one, and as many copies of the last as it ends with.
    fn pass_leaves(&self, e: &Entry<D>, mut copy: u64) -> Option<u64> {
        let mut end = 0;
        for (a, &len) in self.leaf_lens.iter().enumerate() {
            let leaf = &self.leaves[end..end + len];
            end += len;
            let Some(last) = leaf.last() else { continue };
            match extreme_first(Axis(a)).cmp(e, last) {
                Ordering::Less => return None,
                Ordering::Equal => {
                    let held = leaf
                        .iter()
                        .rev()
                        .take_while(|l| same_identity(&l.to_item(), &e.to_item()))
                        .count() as u64;
                    copy = copy.checked_sub(held)?;
                }
                Ordering::Greater => {}
            }
        }
        Some(copy)
    }
}

/// A front-to-back read of one list that numbers copies: the `k`-th of
/// a run of identical entries is copy `k`. The lists' orders break ties
/// on every corner, so identical entries are adjacent in each of them.
struct Scan<'d, const D: usize> {
    reader: MergeReader<'d, Entry<D>, AxisOrder>,
    last: Option<Entry<D>>,
    copy: u64,
    /// The list's length, for the error if it ends early.
    len: u64,
}

impl<'d, const D: usize> Scan<'d, D> {
    /// Opens list `a` of `lists` (`len` entries each): a merge of its
    /// runs, a plain stream read when there is one.
    fn new(dev: &'d dyn BlockDevice, lists: &[List], a: usize, len: u64) -> Self {
        Scan {
            reader: MergeReader::new(dev, &lists[a], extreme_first(Axis(a))),
            last: None,
            copy: 0,
            len,
        }
    }

    /// The next entry and its copy number.
    fn next(&mut self) -> Result<(Entry<D>, u64), EmError> {
        let e = self.reader.next_record()?.ok_or_else(|| short(self.len))?;
        self.copy = match &self.last {
            Some(last) if same_identity(&last.to_item(), &e.to_item()) => self.copy + 1,
            _ => 0,
        };
        self.last = Some(e);
        Ok((e, self.copy))
    }
}

impl<const D: usize> Stage<'_, D> {
    /// Too large to finish in memory (and more than one node's worth).
    fn is_external(&self, count: u64) -> bool {
        count > self.mem_fit && count > self.shape.cap as u64
    }

    /// Bytes a round holds with `resolved` nodes and `frontier` children:
    /// a writer block per child and the reader's, and per resolved node
    /// `2D` priority leaves and their ids in the taken set.
    fn round_bytes(&self, resolved: usize, frontier: usize) -> usize {
        let per_taken = std::mem::size_of::<Entry<D>>() + TAKEN_ID_BYTES;
        (frontier + 1) * self.dev.block_size() + resolved * 2 * D * self.shape.prio * per_taken
    }

    /// Builds the subtree over `lists` (`count` entries each, the kd
    /// round-robin at `axis`) holding at most `budget` bytes of state.
    fn round(
        &mut self,
        lists: Vec<List>,
        count: u64,
        axis: Axis,
        budget: usize,
    ) -> Result<(), EmError> {
        let dev = self.dev;
        let mut round = self.resolve(&lists, count, axis, budget)?;

        // Spill the priority leaves in emission order. Distribution
        // still reads them; then they are freed, with the taken set.
        let order = round.preorder();
        let mut spill = StreamWriter::<Entry<D>>::new(dev);
        for &n in &order {
            for e in &round.nodes[n].leaves {
                spill.push(e)?;
            }
        }
        let spill = spill.finish()?;

        self.distribute(&mut round, &lists)?;
        discard_all(dev, lists);
        let mut nodes = round.nodes;
        for node in &mut nodes {
            node.leaves = Vec::new();
        }

        // Emit. A nested round works beside this round's reader.
        let nested_budget = budget.saturating_sub(dev.block_size());
        let mut leaves = StreamReader::<Entry<D>>::new(dev, &spill);
        let mut leaf = Vec::with_capacity(self.shape.prio);
        for n in order {
            let node = &mut nodes[n];
            for &len in &node.leaf_lens {
                leaf.clear();
                for _ in 0..len {
                    leaf.push(leaves.next_record()?.ok_or_else(|| short(spill.len()))?);
                }
                self.write_group(&leaf)?;
            }
            if let Kids::Frontier = node.kids {
                let (count, axis, lists) = (node.count, node.axis, std::mem::take(&mut node.lists));
                if self.is_external(count) {
                    self.round(lists, count, axis, nested_budget)?;
                } else {
                    self.finish_in_memory(&lists[0][0], axis)?;
                    discard_all(dev, lists);
                }
            }
        }
        spill.discard(dev);
        Ok(())
    }

    /// Step 1: grows the round's kd-tree one depth per iteration, from
    /// read scans of `lists` alone, until every frontier child fits in
    /// memory or `budget` is used up.
    fn resolve(
        &self,
        lists: &[List],
        count: u64,
        axis: Axis,
        budget: usize,
    ) -> Result<Round<D>, EmError> {
        let mut round = Round {
            nodes: Vec::new(),
            taken: HashSet::with_hasher(IdHashing::new()),
        };
        // The root is resolved whatever the budget; `open` holds the
        // nodes of the current depth, all splitting on the same axis.
        let mut open = vec![round.push(count, axis)];
        let (mut resolved, mut frontier) = (0, 1);
        while !open.is_empty() {
            for a in 0..lists.len() {
                self.fill_priority_leaves(&mut round, &open, lists, a)?;
            }
            let kids = self.split(&mut round, &open, lists)?;
            resolved += open.len();
            frontier = frontier + kids.len() - open.len();
            open.clear();
            for kid in kids {
                // Resolving a node adds it and, at worst, one more child.
                let grown = self.round_bytes(resolved + open.len() + 1, frontier + open.len() + 1);
                if self.is_external(round.nodes[kid].count) && grown <= budget {
                    open.push(kid);
                }
            }
        }
        debug_assert!(
            resolved == 1 || self.round_bytes(resolved, frontier) <= budget,
            "round over budget: {resolved} nodes, {frontier} children, {budget} bytes"
        );
        Ok(round)
    }

    /// Step 2: every frontier child gets its part of `lists[0]`, the
    /// still-external ones of the other lists too (in `Node::lists`).
    fn distribute(&self, round: &mut Round<D>, lists: &[List]) -> Result<(), EmError> {
        for a in 0..lists.len() {
            let mut writers: Vec<Option<StreamWriter<Entry<D>>>> = Vec::new();
            let mut todo = 0;
            for node in &round.nodes {
                let wanted =
                    matches!(node.kids, Kids::Frontier) && (a == 0 || self.is_external(node.count));
                writers.push(wanted.then(|| StreamWriter::new(self.dev)));
                todo += if wanted { node.count } else { 0 };
            }
            if todo == 0 {
                continue;
            }
            let mut scan = Scan::new(self.dev, lists, a, round.nodes[0].count);
            while todo > 0 {
                let (e, copy) = scan.next()?;
                if let Some((n, _)) = round.route(&e, copy, |n| writers[n].is_some()) {
                    writers[n].as_mut().expect("wanted").push(&e)?;
                    todo -= 1;
                }
            }
            for (node, w) in round.nodes.iter_mut().zip(writers) {
                if let Some(w) = w {
                    node.lists.push(vec![w.finish()?]);
                }
            }
        }
        Ok(())
    }

    /// One scan of `lists[a]`, most extreme entry first: the next
    /// priority leaf of every node in `open` that has entries left to
    /// give. Stops at the record that completes the last of them.
    fn fill_priority_leaves(
        &self,
        round: &mut Round<D>,
        open: &[usize],
        lists: &[List],
        a: usize,
    ) -> Result<(), EmError> {
        let mut filling = vec![false; round.nodes.len()];
        let mut need = 0;
        for &n in open {
            let node = &mut round.nodes[n];
            if node.taken < node.count {
                node.leaf_lens.push(0);
                filling[n] = true;
                need += 1;
            }
        }
        let mut scan = Scan::new(self.dev, lists, a, round.nodes[0].count);
        while need > 0 {
            let (e, copy) = scan.next()?;
            let Some((n, _)) = round.route(&e, copy, |n| filling[n]) else {
                continue;
            };
            round.taken.insert(e.ptr);
            let node = &mut round.nodes[n];
            node.leaves.push(e);
            node.taken += 1;
            let len = node.leaf_lens.last_mut().expect("pushed above");
            *len += 1;
            if *len == self.shape.prio || node.taken == node.count {
                filling[n] = false;
                need -= 1;
            }
        }
        Ok(())
    }

    /// Resolves the kids of every node in `open` with one scan of their
    /// kd axis' list, up to the last median. Returns the new nodes, left
    /// to right.
    fn split(
        &self,
        round: &mut Round<D>,
        open: &[usize],
        lists: &[List],
    ) -> Result<Vec<usize>, EmError> {
        let axis = round.nodes[open[0]].axis;
        // The in-memory split puts the `mid` strictly-smaller entries
        // left, so the threshold is the remaining entry of ascending
        // rank `mid`: `skip` entries come before it in list order
        // (max-side lists are stored in exact-reverse order). The copies
        // of it before it in list order are below it on a min side, so
        // they go left; on a max side they and it go right.
        struct Median<const D: usize> {
            mid: u64,
            skip: u64,
            threshold: Option<(Entry<D>, Tie)>,
        }
        let mut medians: Vec<Option<Median<D>>> = round.nodes.iter().map(|_| None).collect();
        let mut need = 0;
        for &n in open {
            let remaining = round.nodes[n].count - round.nodes[n].taken;
            if remaining > self.shape.cap as u64 {
                let mid = split_point(remaining as usize, self.shape.snap) as u64;
                let skip = if axis.is_min_side::<D>() {
                    mid
                } else {
                    remaining - 1 - mid
                };
                medians[n] = Some(Median {
                    mid,
                    skip,
                    threshold: None,
                });
                need += 1;
            }
        }
        let mut scan = Scan::new(self.dev, lists, axis.0, round.nodes[0].count);
        let pending = |m: &Option<Median<D>>| m.as_ref().is_some_and(|m| m.threshold.is_none());
        while need > 0 {
            let (e, copy) = scan.next()?;
            let Some((n, before)) = round.route(&e, copy, |n| pending(&medians[n])) else {
                continue;
            };
            let median = medians[n].as_mut().expect("pending");
            if median.skip == 0 {
                let tie = if axis.is_min_side::<D>() {
                    Tie {
                        first: before,
                        first_left: true,
                    }
                } else {
                    Tie {
                        first: before + 1,
                        first_left: false,
                    }
                };
                median.threshold = Some((e, tie));
                need -= 1;
            } else {
                median.skip -= 1;
            }
        }

        let next = axis.next::<D>();
        let mut kids = Vec::new();
        for &n in open {
            let remaining = round.nodes[n].count - round.nodes[n].taken;
            round.nodes[n].kids = match medians[n].take() {
                Some(Median { mid, threshold, .. }) => {
                    let (threshold, tie) =
                        threshold.expect("the scan ran until every median was found");
                    let (left, right) = (round.push(mid, next), round.push(remaining - mid, next));
                    kids.extend([left, right]);
                    Kids::Two {
                        threshold,
                        tie,
                        left,
                        right,
                    }
                }
                None if remaining == 0 => Kids::None,
                None => {
                    let kid = round.push(remaining, next);
                    kids.push(kid);
                    Kids::One(kid)
                }
            };
        }
        Ok(kids)
    }

    /// The in-memory base case: exactly the in-memory loader's grouping
    /// of `entries`, resuming the kd round-robin at `axis`.
    fn finish_in_memory(&mut self, entries: &Stream, axis: Axis) -> Result<(), EmError> {
        let mut entries = entries.read_all::<Entry<D>>(self.dev)?;
        for leaf in leaf_ranges(&mut entries, axis, self.shape) {
            self.write_group(&entries[leaf])?;
        }
        Ok(())
    }

    /// Writes one leaf-group page and appends its parent entry.
    fn write_group(&mut self, group: &[Entry<D>]) -> Result<(), EmError> {
        let parent = self.pages.append(group)?;
        self.parents.push(&parent)
    }
}

fn discard_all(dev: &dyn BlockDevice, lists: Vec<List>) {
    for run in lists.into_iter().flatten() {
        run.discard(dev);
    }
}

/// A list ran out before the `entries` its length promised (a round's
/// lists all hold its root's count).
fn short(entries: u64) -> EmError {
    EmError::Corrupt(format!(
        "a {entries}-entry list of the external PR build ended early"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkLoader;
    use pr_em::MemDevice;
    use pr_geom::{Item, Rect};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..100.0);
                let y: f64 = rng.gen_range(0.0..100.0);
                let w: f64 = rng.gen_range(0.0..1.5);
                Item::new(Rect::xyxy(x, y, x + w, y + w * 0.5), i)
            })
            .collect()
    }

    /// Leaf contents as a canonical multiset (each group id-sorted, groups
    /// sorted) — page ids differ between devices, contents must not.
    fn leaf_groups<const D: usize>(t: &RTree<D>) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = crate::bulk::testing::leaves(t)
            .iter()
            .map(|n| {
                let mut ids: Vec<u32> = n.entries.iter().map(|e| e.ptr).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        out.sort();
        out
    }

    /// Builds `items` in memory and externally under `pages` pages of
    /// memory; the two trees must be valid and hold the same leaves.
    fn assert_matches_in_memory<const D: usize>(items: &[Item<D>], cap: usize, pages: usize) {
        let params = TreeParams::with_cap::<D>(cap);
        let dev_mem: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let t_mem = PrTreeLoader::default()
            .load(Arc::clone(&dev_mem), params, items.to_vec())
            .unwrap();

        let dev_ext: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter(dev_ext.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
            .unwrap();
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(pages * params.page_size));
        let t_ext = loader
            .load::<D>(Arc::clone(&dev_ext), params, &input)
            .unwrap();

        let what = format!("n={} cap={cap} pages={pages}", items.len());
        t_ext.validate().unwrap().assert_ok();
        assert_eq!(t_mem.len(), t_ext.len(), "{what}");
        assert_eq!(t_mem.height(), t_ext.height(), "{what}");
        assert_eq!(
            leaf_groups(&t_mem),
            leaf_groups(&t_ext),
            "external and in-memory PR construction must agree: {what}"
        );
    }

    #[test]
    fn external_matches_in_memory_exactly() {
        // Tiny memory budget: forces several external kd levels.
        assert_matches_in_memory(&random_items(3000, 42), 16, 40);

        // D = 3: six sorted lists, a six-axis round-robin.
        let mut rng = SmallRng::seed_from_u64(6);
        let boxes: Vec<Item<3>> = (0..2500)
            .map(|i| {
                let p: [f64; 3] = std::array::from_fn(|_| rng.gen_range(0.0..10.0));
                Item::new(Rect::new(p, p.map(|c| c + rng.gen_range(0.0..0.3))), i)
            })
            .collect();
        assert_matches_in_memory(&boxes, 8, 30);

        // Coordinate ties everywhere: only the id tie-break orders the
        // lists, and one stage up the ids are page ids.
        assert_matches_in_memory(&pr_data::worst_case_grid(7, 16), 16, 40);
        let same: Vec<Item<2>> = (0..2000)
            .map(|i| Item::new(Rect::xyxy(1.0, 2.0, 3.0, 4.0), i))
            .collect();
        assert_matches_in_memory(&same, 8, 12);
    }

    #[test]
    fn budget_sweep_matches_in_memory() {
        // From one kd node per round (12 pages) over rounds that stop at
        // the fan-out bound with children still external (cap 16 under
        // 40 pages: 657 entries fit in memory, so n = 5000 needs more
        // than seven children and the budget holds six) to a single round
        // per stage.
        for (n, seed) in [(500, 1), (2000, 2), (5000, 3)] {
            let items = random_items(n, seed);
            for cap in [4, 8, 16] {
                for pages in [12, 40, 100, 400] {
                    assert_matches_in_memory(&items, cap, pages);
                }
            }
        }
    }

    #[test]
    fn twelve_pages_build_with_fan_out_two() {
        let params = TreeParams::with_cap::<2>(8);
        let budget = 12 * params.page_size;
        let dev = MemDevice::new(params.page_size);
        let stage = Stage::<2> {
            dev: &dev,
            shape: PrTreeLoader::default().shape(8),
            mem_fit: 0,
            pages: LevelWriter::new(&dev, 0),
            parents: StreamWriter::new(&dev),
        };
        // The budget holds a round's root and its two children, not a
        // second resolved node: every round is a single kd node, and
        // 2000 entries against 104 in memory nest them five deep.
        assert!(stage.round_bytes(1, 2) <= budget);
        assert!(stage.round_bytes(2, 3) > budget);
        assert_matches_in_memory(&random_items(2000, 8), 8, 12);
    }

    #[test]
    fn repeated_ids_keep_every_record() {
        // Repeated ids, identical entries among them: the only inputs
        // the lists' orders tie on, so the only ones whose bytes an
        // unstable load sort may move. No bytes are pinned here.
        use crate::bulk::testing::{assert_holds_exactly, duplicate_ids};
        let same = vec![Item::new(Rect::xyxy(1.0, 2.0, 3.0, 4.0), 7); 1500];
        for items in [duplicate_ids(3000, 14), same] {
            for cap in [4, 8, 16] {
                let params = TreeParams::with_cap::<2>(cap);
                for pages in [12, 40, 100] {
                    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
                    let input =
                        Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i)))
                            .unwrap();
                    let memory = ExternalConfig::with_memory(pages * params.page_size);
                    let t = PrExternalLoader::new(memory)
                        .load::<2>(Arc::clone(&dev), params, &input)
                        .unwrap();
                    assert_holds_exactly(&t, &items);
                }
            }
        }
    }

    #[test]
    fn queries_match_brute_force_after_external_build() {
        let items = random_items(2000, 5);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input =
            Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i))).unwrap();
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(30 * params.page_size));
        let t = loader.load::<2>(Arc::clone(&dev), params, &input).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..30 {
            let x: f64 = rng.gen_range(0.0..95.0);
            let y: f64 = rng.gen_range(0.0..95.0);
            let q = Rect::xyxy(x, y, x + 5.0, y + 5.0);
            let mut got = t.window(&q).unwrap();
            let mut want = crate::query::brute_force_window(&items, &q);
            got.sort_by_key(|i| i.id);
            want.sort_by_key(|i| i.id);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn large_budget_falls_back_to_memory_path() {
        let items = random_items(500, 9);
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input =
            Stream::from_iter(dev.as_ref(), items.iter().map(|&i| Entry::from_item(i))).unwrap();
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(64 << 20));
        let before = dev.io_stats();
        let t = loader.load::<2>(Arc::clone(&dev), params, &input).unwrap();
        let cost = dev.io_stats().since(before);
        t.validate().unwrap().assert_ok();
        // With everything in memory the stage reads the input once and
        // writes pages once — no sorting passes.
        let input_blocks = input.num_blocks() as u64;
        assert!(cost.reads <= 2 * input_blocks + 10);
    }

    #[test]
    fn empty_input() {
        let params = TreeParams::with_cap::<2>(8);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
        let input = Stream::from_iter::<Entry<2>>(dev.as_ref(), []).unwrap();
        let loader = PrExternalLoader::new(ExternalConfig::with_memory(1 << 20));
        let t = loader.load::<2>(Arc::clone(&dev), params, &input).unwrap();
        assert!(t.is_empty());
    }
}
