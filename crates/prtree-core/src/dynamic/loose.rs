//! Loose items — the LPR-tree's in-memory level — held as leaves.
//!
//! The paper's LPR-tree (§4) keeps its smallest level in memory. Both
//! frontends hold that level as one [`LooseItems`]: the in-memory
//! [`LprTree`](crate::dynamic::LprTree)'s insert buffer, and `pr-live`'s
//! memtable and sealed batch. It is a list of `Arc`'d [`Chunk`]s of at
//! most [`CHUNK_CAP`] records, in the leaf-record layout that
//! [`LeafRecords`] scans in place, each with the MBR of what it holds.
//! A query treats a chunk as one more leaf. k-NN enters it into the
//! frontier keyed by its MBR's distance and scans it only when the bound
//! admits it ([`crate::knn::KnnSearch`]); a window, a stored-copies count
//! and a delete skip every chunk whose MBR rules it out. A chunk scan is
//! not a leaf I/O: [`QueryStats::loose_chunks`](crate::QueryStats)
//! counts it apart.
//!
//! **Shape.** A run of at least [`CHUNK_CAP`] items
//! ([`LooseItems::extend`]) is put in STR tile order first and cut into
//! full chunks, so each chunk covers one tile. Cut in arrival order,
//! shuffled input would give every chunk the whole data extent. Shorter
//! runs and single inserts append to the tail chunk.
//!
//! **Sharing.** A clone bumps the chunks' `Arc`s, so a snapshot copies
//! no item. An append copies the tail chunk, and a delete the one chunk
//! it changes, and only while a clone still shares it.

use crate::bulk::str_::tile;
use crate::entry::Entry;
use crate::leaf::LeafRecords;
use pr_em::Record;
use pr_geom::{Item, Rect};
use std::sync::Arc;

/// Records per chunk. A chunk scan costs about what a leaf scan of the
/// same length costs, and a smaller chunk has a tighter MBR, so fewer
/// records are scanned per query at the price of more MBRs to test.
pub(crate) const CHUNK_CAP: usize = 32;

/// Up to `CHUNK_CAP` records in leaf-record layout, and their MBR.
#[derive(Debug)]
pub struct Chunk<const D: usize> {
    mbr: Rect<D>,
    /// `len · Entry::<D>::SIZE` bytes.
    bytes: Vec<u8>,
}

impl<const D: usize> Clone for Chunk<D> {
    /// A copy with room for a full chunk: a copy-on-write is followed by
    /// appends or deletes, never by a regrowth.
    fn clone(&self) -> Self {
        let mut copy = Chunk::new();
        copy.bytes.extend_from_slice(&self.bytes);
        copy.mbr = self.mbr;
        copy
    }
}

impl<const D: usize> Chunk<D> {
    fn new() -> Self {
        Chunk {
            mbr: Rect::EMPTY,
            bytes: Vec::with_capacity(CHUNK_CAP * Entry::<D>::SIZE),
        }
    }

    /// The MBR of the records held.
    pub(crate) fn mbr(&self) -> &Rect<D> {
        &self.mbr
    }

    /// The records, for the leaf kernels.
    pub(crate) fn records(&self) -> LeafRecords<'_, D> {
        LeafRecords::from_records(&self.bytes)
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len() / Entry::<D>::SIZE
    }

    /// True when the chunk holds no record.
    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn push(&mut self, item: &Item<D>) {
        let at = self.bytes.len();
        self.bytes.resize(at + Entry::<D>::SIZE, 0);
        Entry::from_item(*item).encode(&mut self.bytes[at..]);
        self.mbr = self.mbr.mbr_with(&item.rect);
    }

    /// Removes record `at`: the last record takes its place, and the MBR
    /// shrinks to what is left.
    fn remove_at(&mut self, at: usize) {
        let size = Entry::<D>::SIZE;
        let last = self.bytes.len() - size;
        self.bytes.copy_within(last.., at * size);
        self.bytes.truncate(last);
        let mut mbr = Rect::EMPTY;
        self.records()
            .for_each_item(|it| mbr = mbr.mbr_with(&it.rect));
        self.mbr = mbr;
    }
}

/// The items of an LPR-tree's in-memory level, as chunks (see the
/// module docs). A buffer or memtable is never tombstoned; a sealed
/// batch is, and a multiset
/// `TombstoneFilter` spans it as it
/// spans the components.
#[derive(Debug, Clone, Default)]
pub struct LooseItems<const D: usize> {
    chunks: Vec<Arc<Chunk<D>>>,
    len: usize,
}

impl<const D: usize> LooseItems<D> {
    /// No items.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no item is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunks, in the order their items drain.
    pub fn chunks(&self) -> &[Arc<Chunk<D>>] {
        &self.chunks
    }

    /// Appends one item to the tail chunk, or to a new one when it is
    /// full.
    pub(crate) fn push(&mut self, item: Item<D>) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK_CAP => Arc::make_mut(tail).push(&item),
            _ => {
                let mut chunk = Chunk::new();
                chunk.push(&item);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// Appends a run of items. A run of at least `CHUNK_CAP` items is
    /// put in STR tile order and cut into full chunks, which go before a
    /// partly filled tail; the last `len % CHUNK_CAP` in tile order, or a
    /// whole shorter run, append to the tail chunk.
    pub fn extend(&mut self, items: &[Item<D>]) {
        if items.len() < CHUNK_CAP {
            items.iter().for_each(|&item| self.push(item));
            return;
        }
        let mut entries: Vec<Entry<D>> = items.iter().map(|&it| Entry::from_item(it)).collect();
        tile(&mut entries, 0, CHUNK_CAP);
        let full = entries.len() - entries.len() % CHUNK_CAP;
        let tiles = entries[..full].chunks_exact(CHUNK_CAP).map(|run| {
            let mut chunk = Chunk::new();
            run.iter().for_each(|e| chunk.push(&e.to_item()));
            Arc::new(chunk)
        });
        let at = match self.chunks.last() {
            Some(tail) if tail.len() < CHUNK_CAP => self.chunks.len() - 1,
            _ => self.chunks.len(),
        };
        self.chunks.splice(at..at, tiles);
        self.len += full;
        entries[full..].iter().for_each(|e| self.push(e.to_item()));
    }

    /// Removes one copy bit-identical to `item`, returning `false` if
    /// none is held. Only chunks whose MBR contains `item.rect` are
    /// searched, and only the chunk that holds the copy is changed (or
    /// dropped once empty).
    pub fn remove(&mut self, item: &Item<D>) -> bool {
        let found = self.chunks.iter().enumerate().find_map(|(i, c)| {
            let at = c
                .mbr
                .contains_rect(&item.rect)
                .then(|| c.records().position_identical(item));
            at.flatten().map(|at| (i, at))
        });
        let Some((i, at)) = found else {
            return false;
        };
        let chunk = Arc::make_mut(&mut self.chunks[i]);
        chunk.remove_at(at);
        if chunk.is_empty() {
            self.chunks.remove(i);
        }
        self.len -= 1;
        true
    }

    /// Copies held bit-identical to `item`, searching only the chunks
    /// whose MBR contains `item.rect`.
    pub fn count_identical(&self, item: &Item<D>) -> u64 {
        self.chunks
            .iter()
            .filter(|c| c.mbr.contains_rect(&item.rect))
            .map(|c| c.records().count_identical(item))
            .sum()
    }

    /// Appends every item intersecting `query` to `out` and returns how
    /// many chunks were scanned: only those whose MBR meets `query`.
    pub(crate) fn collect_intersecting(&self, query: &Rect<D>, out: &mut Vec<Item<D>>) -> u64 {
        let mut scanned = 0;
        for chunk in self.chunks.iter().filter(|c| c.mbr.intersects(query)) {
            chunk.records().collect_intersecting(query, out);
            scanned += 1;
        }
        scanned
    }

    /// Calls `f` on every item, chunk by chunk.
    pub(crate) fn for_each_item(&self, mut f: impl FnMut(Item<D>)) {
        for chunk in &self.chunks {
            chunk.records().for_each_item(&mut f);
        }
    }

    /// Every item, chunk by chunk.
    pub fn to_vec(&self) -> Vec<Item<D>> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_item(|it| out.push(it));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::same_identity;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn shuffled(n: u32, seed: u64) -> Vec<Item<2>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let (x, y) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                Item::new(Rect::xyxy(x, y, x + 0.5, y + 0.5), i)
            })
            .collect()
    }

    fn sorted(mut items: Vec<Item<2>>) -> Vec<Item<2>> {
        items.sort_by_key(|i| i.id);
        items
    }

    /// Every chunk's MBR is exactly its records' MBR, and the chunk
    /// lengths add up.
    fn check_mbrs(loose: &LooseItems<2>) {
        let mut len = 0;
        for c in loose.chunks() {
            let mut mbr = Rect::EMPTY;
            c.records().for_each_item(|it| mbr = mbr.mbr_with(&it.rect));
            assert_eq!(*c.mbr(), mbr);
            assert!(!c.is_empty() && c.len() <= CHUNK_CAP);
            len += c.len();
        }
        assert_eq!(len, loose.len());
    }

    /// A run is tiled into full chunks before a partly filled tail, and
    /// each tile covers a small part of the space that the arrival-order
    /// chunks of the same run each span almost whole.
    #[test]
    fn runs_are_tiled_and_short_runs_append_to_the_tail() {
        let items = shuffled(10 * CHUNK_CAP as u32 + 7, 1);
        let mut tiled = LooseItems::new();
        tiled.extend(&items[..3]);
        tiled.extend(&items[3..]);
        check_mbrs(&tiled);
        assert_eq!(sorted(tiled.to_vec()), sorted(items.clone()));
        let lens: Vec<usize> = tiled.chunks().iter().map(|c| c.len()).collect();
        assert!(lens[..10].iter().all(|&n| n == CHUNK_CAP), "{lens:?}");
        assert_eq!(lens[10..], [3 + (items.len() - 3) % CHUNK_CAP]);

        let mut arrival = LooseItems::new();
        items.iter().for_each(|&it| arrival.push(it));
        check_mbrs(&arrival);
        let area =
            |l: &LooseItems<2>| -> f64 { l.chunks()[..10].iter().map(|c| c.mbr().area()).sum() };
        assert!(
            area(&tiled) * 4.0 < area(&arrival),
            "tiled {} vs arrival {}",
            area(&tiled),
            area(&arrival)
        );
    }

    #[test]
    fn remove_copies_only_the_chunk_it_changes() {
        let items = shuffled(5 * CHUNK_CAP as u32, 2);
        let mut loose = LooseItems::new();
        loose.extend(&items);
        let snapshot = loose.clone();
        let victim = items[17];
        let holder = loose
            .chunks()
            .iter()
            .position(|c| c.records().count_identical(&victim) == 1)
            .unwrap();
        assert!(loose.remove(&victim));
        assert!(!loose.remove(&victim), "one copy only");
        assert!(
            !loose.remove(&Item::new(victim.rect, 9_999)),
            "same rect, other id"
        );
        let moved = Rect::xyxy(-2.0, -2.0, -1.0, -1.0);
        assert!(
            !loose.remove(&Item::new(moved, victim.id)),
            "same id, other rect"
        );
        check_mbrs(&loose);
        for (i, (now, then)) in loose.chunks().iter().zip(snapshot.chunks()).enumerate() {
            assert_eq!(Arc::ptr_eq(now, then), i != holder, "chunk {i}");
        }
        assert_eq!(snapshot.len(), items.len(), "the snapshot is frozen");
        assert_eq!(snapshot.count_identical(&victim), 1);
        assert_eq!(loose.count_identical(&victim), 0);
        let mut left = sorted(items.clone());
        left.retain(|i| !same_identity(i, &victim));
        assert_eq!(sorted(loose.to_vec()), left);
    }

    #[test]
    fn aliased_copies_and_emptied_chunks() {
        let it = Item::new(Rect::xyxy(1.0, 1.0, 2.0, 2.0), 7);
        let mut loose = LooseItems::new();
        loose.push(it);
        loose.push(it);
        assert_eq!(loose.count_identical(&it), 2);
        assert!(loose.remove(&it) && loose.remove(&it));
        assert!(loose.is_empty() && loose.chunks().is_empty());
        assert!(!loose.remove(&it));
    }

    #[test]
    fn windows_skip_chunks_they_miss() {
        let items = shuffled(8 * CHUNK_CAP as u32, 3);
        let mut loose = LooseItems::new();
        loose.extend(&items);
        let q = Rect::xyxy(10.0, 10.0, 20.0, 20.0);
        let mut out = Vec::new();
        let scanned = loose.collect_intersecting(&q, &mut out);
        let want: Vec<Item<2>> = items
            .iter()
            .copied()
            .filter(|i| i.rect.intersects(&q))
            .collect();
        assert_eq!(sorted(out), sorted(want));
        assert!(
            scanned < loose.chunks().len() as u64 / 2,
            "{scanned} chunks scanned"
        );
    }
}
