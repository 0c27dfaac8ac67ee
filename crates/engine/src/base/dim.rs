//! Two-dimensional size descriptor, mirroring Ginkgo's `gko::dim<2>`.

use std::fmt;

/// The (rows, columns) size of a linear operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Dim2 {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Dim2 {
    /// Creates a size.
    pub const fn new(rows: usize, cols: usize) -> Self {
        Dim2 { rows, cols }
    }

    /// A square size.
    pub const fn square(n: usize) -> Self {
        Dim2 { rows: n, cols: n }
    }

    /// Total number of entries of a dense operator of this size.
    pub const fn count(&self) -> usize {
        self.rows * self.cols
    }

    /// [`Dim2::count`] for a size that came from outside the program: `None`
    /// when `rows * cols` does not fit a `usize`.
    pub const fn checked_count(&self) -> Option<usize> {
        self.rows.checked_mul(self.cols)
    }

    /// True for square operators.
    pub(crate) const fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The transposed size.
    pub(crate) const fn transposed(&self) -> Dim2 {
        Dim2 {
            rows: self.cols,
            cols: self.rows,
        }
    }
}

impl fmt::Display for Dim2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} x {})", self.rows, self.cols)
    }
}

impl From<(usize, usize)> for Dim2 {
    fn from((rows, cols): (usize, usize)) -> Self {
        Dim2 { rows, cols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let d = Dim2::new(3, 4);
        assert_eq!(d.rows, 3);
        assert_eq!(d.cols, 4);
        assert_eq!(d.count(), 12);
        assert_eq!(d.checked_count(), Some(12));
        assert_eq!(Dim2::new(1 << 63, 2).checked_count(), None);
        assert!(!d.is_square());
        assert!(Dim2::square(5).is_square());
    }

    #[test]
    fn transpose_swaps() {
        assert_eq!(Dim2::new(2, 7).transposed(), Dim2::new(7, 2));
    }

    #[test]
    fn display_format() {
        assert_eq!(Dim2::new(10, 20).to_string(), "(10 x 20)");
    }

    #[test]
    fn from_tuple() {
        assert_eq!(Dim2::from((1, 2)), Dim2::new(1, 2));
    }
}
