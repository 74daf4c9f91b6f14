//! Tensor shape handling.

use std::fmt;

/// The shape (list of dimension sizes) of a [`crate::Tensor`].
///
/// A rank-0 shape (no dimensions) describes a scalar with one element.
///
/// ```rust
/// use garfield_tensor::Shape;
/// let s = Shape::matrix(3, 4);
/// assert_eq!(s.len(), 12);
/// assert_eq!(s.rank(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from an explicit list of dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Shape of a scalar (single element, rank 0).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Shape of a 1-D vector of length `n`.
    pub fn vector(n: usize) -> Self {
        Shape { dims: vec![n] }
    }

    /// Shape of a `rows x cols` matrix.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape {
            dims: vec![rows, cols],
        }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of scalar elements described by this shape.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape describes zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows, when interpreted as a matrix.
    ///
    /// Returns `None` for non rank-2 shapes.
    pub fn rows(&self) -> Option<usize> {
        (self.rank() == 2).then(|| self.dims[0])
    }

    /// Number of columns, when interpreted as a matrix.
    ///
    /// Returns `None` for non rank-2 shapes.
    pub fn cols(&self) -> Option<usize> {
        (self.rank() == 2).then(|| self.dims[1])
    }
}

impl Default for Shape {
    fn default() -> Self {
        Shape::scalar()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl From<usize> for Shape {
    fn from(n: usize) -> Self {
        Shape::vector(n)
    }
}

impl From<(usize, usize)> for Shape {
    fn from((r, c): (usize, usize)) -> Self {
        Shape::matrix(r, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element_rank_zero() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn vector_and_matrix_constructors() {
        assert_eq!(Shape::vector(5).dims(), &[5]);
        assert_eq!(Shape::matrix(2, 3).dims(), &[2, 3]);
        assert_eq!(Shape::matrix(2, 3).len(), 6);
    }

    #[test]
    fn rows_cols_only_defined_for_matrices() {
        assert_eq!(Shape::matrix(4, 7).rows(), Some(4));
        assert_eq!(Shape::matrix(4, 7).cols(), Some(7));
        assert_eq!(Shape::vector(4).rows(), None);
        assert_eq!(Shape::scalar().cols(), None);
    }

    #[test]
    fn zero_sized_dim_means_empty() {
        let s = Shape::new(vec![3, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn conversions_from_common_types() {
        assert_eq!(Shape::from(4usize), Shape::vector(4));
        assert_eq!(Shape::from((2usize, 3usize)), Shape::matrix(2, 3));
        assert_eq!(Shape::from(vec![1, 2, 3]).rank(), 3);
        let dims: &[usize] = &[5, 6];
        assert_eq!(Shape::from(dims), Shape::matrix(5, 6));
    }

    #[test]
    fn display_formats_dimensions() {
        assert_eq!(Shape::matrix(2, 3).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
