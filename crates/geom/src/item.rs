//! Labeled rectangles — the input records of every index in this workspace.

use crate::rect::Rect;
use std::fmt;

/// A data rectangle with a payload id.
///
/// The paper's input record: a rectangle plus a "pointer to the
/// original object" (§3.1). The id doubles as the deterministic
/// tie-breaker for all coordinate orderings. Its 36-byte encoding in
/// 2-D is `pr_tree::Entry`'s.
#[derive(Clone, Copy, PartialEq)]
pub struct Item<const D: usize> {
    /// The (bounding) rectangle stored in the index.
    pub rect: Rect<D>,
    /// Opaque payload identifier, unique per dataset.
    pub id: u32,
}

impl<const D: usize> Item<D> {
    /// Creates a labeled rectangle.
    pub fn new(rect: Rect<D>, id: u32) -> Self {
        Item { rect, id }
    }
}

impl<const D: usize> fmt::Debug for Item<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Item#{} {:?}", self.id, self.rect)
    }
}
