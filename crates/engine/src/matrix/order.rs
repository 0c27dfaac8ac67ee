//! Visit orders: the rows a kernel walks, piece by piece, in the order it
//! walks them, fixed once when the kernel is generated. An ordered SpMV plan
//! groups each lane's rows by length inside windows (DESIGN.md §14, "Row
//! order"); a triangular sweep visits rows level by level (§23, "Level
//! order"). Both are stable counting sorts ([`VisitOrder::push_sorted`]), and
//! one sanitizer check verifies both, and a pool job's claims with each lane
//! as a piece (`sanitize::verify_order`). A visit is the record the kernel
//! walks: a plan's row local to its piece as `u32`, a sweep's row with its
//! span.

/// Visits grouped into pieces: piece `p` is `visits[bounds[p]..bounds[p + 1]]`.
#[derive(Clone, Debug)]
pub(crate) struct VisitOrder<T> {
    pub(crate) visits: Vec<T>,
    pub(crate) bounds: Vec<usize>,
}

impl<T: Copy + Default> VisitOrder<T> {
    /// No pieces yet, with room for `visits` visits.
    pub(crate) fn with_capacity(visits: usize) -> Self {
        VisitOrder {
            visits: Vec::with_capacity(visits),
            bounds: vec![0],
        }
    }

    /// Pieces the order holds.
    pub(crate) fn pieces(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Piece `p`'s visits.
    pub(crate) fn piece(&self, p: usize) -> &[T] {
        &self.visits[self.bounds[p]..self.bounds[p + 1]]
    }

    /// Ends the current piece at the last visit pushed.
    pub(crate) fn end_piece(&mut self) {
        self.bounds.push(self.visits.len());
    }

    /// Appends `visit(i)` for every `i < keys.len()`, ordered by `keys[i] <
    /// buckets` and stably, so by `i` within one key. A counting sort in the
    /// caller's scratch `starts`, which a loop of calls reuses; on return
    /// `starts[k]` is where the visits of key `k` end in `visits`.
    pub(crate) fn push_sorted(
        &mut self,
        keys: &[usize],
        buckets: usize,
        visit: impl Fn(usize) -> T,
        starts: &mut Vec<usize>,
    ) {
        let base = self.visits.len();
        // `starts[k + 1]` counts the visits of key `k`; after the prefix sum
        // `starts[k]` is where the first of them goes.
        starts.clear();
        starts.resize(buckets + 1, 0);
        // The loops index slices, not the vectors behind `&mut`: through the
        // vectors an ordered plan build read 5-20 % slower.
        let starts = &mut starts[..];
        starts[0] = base;
        for &k in keys {
            starts[k + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        self.visits.resize(base + keys.len(), T::default());
        let visits = &mut self.visits[..];
        for (i, &k) in keys.iter().enumerate() {
            visits[starts[k]] = visit(i);
            starts[k] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stable within a key, appended after what is there, and `starts` left at
    /// each key's end.
    #[test]
    fn push_sorted_is_a_stable_counting_sort() {
        let mut order = VisitOrder::with_capacity(0);
        let mut starts = Vec::new();
        order.push_sorted(&[1, 0], 2, |i| 10 + i as u32, &mut starts);
        order.end_piece();
        order.push_sorted(&[2, 0, 2, 1, 0], 4, |i| i as u32, &mut starts);
        order.end_piece();
        assert_eq!(order.visits, [11, 10, 1, 4, 3, 0, 2]);
        assert_eq!(order.bounds, [0, 2, 7]);
        assert_eq!(starts, [4, 5, 7, 7, 7]);
        assert_eq!((order.pieces(), order.piece(1)), (2, &[1, 4, 3, 0, 2][..]));
        order.push_sorted(&[], 0, |_| unreachable!(), &mut starts);
        assert_eq!((order.visits.len(), starts), (7, vec![7]));
    }
}
