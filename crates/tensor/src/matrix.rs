//! Row-major dense matrices.
//!
//! Weights in the accelerator are stored row-major in HBM so that one output
//! channel's dot product is a contiguous burst — [`Matrix::row`] is therefore
//! the natural unit both for the functional math and for DMA byte
//! accounting.
//!
//! A matrix either owns its buffer or is a zero-copy view into a
//! memory-mapped checkpoint arena ([`Matrix::from_arena`]). The two are
//! indistinguishable through the read API; the first mutation of a mapped
//! matrix silently copies it to the heap (weights are never mutated at
//! inference time, so the hot path stays zero-copy).

use std::fmt;
use std::sync::Arc;

use crate::error::ShapeError;
use crate::mmap::{ArenaError, MappedArena};

/// Marker for element types that may be reinterpreted from raw mapped
/// bytes: no padding, no invalid bit patterns, no drop glue.
///
/// # Safety
///
/// Implementors must guarantee every possible byte pattern of
/// `size_of::<Self>()` bytes is a valid value of `Self`. That holds for
/// the primitive numeric types implemented here and essentially nothing
/// else; do not implement this for structs or enums.
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: every bit pattern is a valid value for each primitive numeric
// type below; none has padding or drop glue.
unsafe impl Pod for i8 {}
// SAFETY: see the i8 impl.
unsafe impl Pod for u8 {}
// SAFETY: see the i8 impl.
unsafe impl Pod for i16 {}
// SAFETY: see the i8 impl.
unsafe impl Pod for u16 {}
// SAFETY: see the i8 impl.
unsafe impl Pod for i32 {}
// SAFETY: see the i8 impl.
unsafe impl Pod for u32 {}
// SAFETY: see the i8 impl.
unsafe impl Pod for i64 {}
// SAFETY: see the i8 impl.
unsafe impl Pod for u64 {}
// SAFETY: every 32-bit pattern is a valid f32 (NaNs included).
unsafe impl Pod for f32 {}
// SAFETY: every 64-bit pattern is a valid f64 (NaNs included).
unsafe impl Pod for f64 {}

/// Backing storage: an owned buffer, or a typed window into a shared
/// read-only arena.
#[derive(Debug)]
enum Buf<T> {
    /// Heap-owned elements.
    Owned(Vec<T>),
    /// `len` elements starting at `ptr`, which points into `arena`'s
    /// bytes. Invariants (established by [`Matrix::from_arena`], and kept
    /// by [`Matrix::slice_rows`], which only narrows a view): the range is
    /// in bounds, `ptr` is aligned for `T`, `T: Pod`, and the arena is
    /// never written.
    Mapped {
        /// Keeps the mapping alive for as long as this view exists.
        arena: Arc<MappedArena>,
        /// First element (aligned, in bounds — see variant docs).
        ptr: *const T,
        /// Element count.
        len: usize,
    },
}

// SAFETY: `Owned` is a Vec (Send iff T: Send); `Mapped` is an immutable
// view into a read-only arena that is itself Send + Sync, and the raw
// pointer is never written through, so moving the view across threads
// cannot race.
unsafe impl<T: Send> Send for Buf<T> {}
// SAFETY: shared access only ever reads — the arena is `PROT_READ` and
// `Owned` mutation requires `&mut self` — so `&Buf` is race-free.
unsafe impl<T: Sync> Sync for Buf<T> {}

impl<T> Buf<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped { ptr, len, .. } => {
                // SAFETY: the variant invariants guarantee `ptr..ptr+len`
                // is an in-bounds, aligned, initialized range of `T: Pod`
                // values inside the arena, which the `arena` Arc keeps
                // alive for the lifetime of `&self`.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Buf::Owned(v) => v.len(),
            Buf::Mapped { len, .. } => *len,
        }
    }
}

impl<T: Copy> Buf<T> {
    /// Copy-on-write escape hatch: returns the owned buffer, copying out
    /// of the arena first if this is a mapped view.
    fn make_owned(&mut self) -> &mut Vec<T> {
        if let Buf::Mapped { .. } = self {
            *self = Buf::Owned(self.as_slice().to_vec());
        }
        match self {
            Buf::Owned(v) => v,
            // make_owned above replaced the variant
            Buf::Mapped { .. } => unreachable!("just converted to Owned"),
        }
    }

    fn into_vec(self) -> Vec<T> {
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped { .. } => self.as_slice().to_vec(),
        }
    }
}

impl<T: Clone> Clone for Buf<T> {
    fn clone(&self) -> Self {
        match self {
            Buf::Owned(v) => Buf::Owned(v.clone()),
            Buf::Mapped { arena, ptr, len } => Buf::Mapped {
                arena: Arc::clone(arena),
                ptr: *ptr,
                len: *len,
            },
        }
    }
}

/// A dense row-major `rows × cols` matrix.
///
/// # Example
///
/// ```
/// use looplynx_tensor::matrix::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as i32);
/// assert_eq!(m.row(1), &[3, 4, 5]);
/// assert_eq!(m.get(0, 2), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Buf<T>,
}

impl<T: PartialEq> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.data.as_slice() == other.data.as_slice()
    }
}

impl<T: Eq> Eq for Matrix<T> {}

impl<T: Pod> Matrix<T> {
    /// Builds a zero-copy view of `rows × cols` elements starting
    /// `byte_offset` bytes into `arena`. The matrix holds a reference to
    /// the arena, so the mapping stays alive as long as any view does.
    ///
    /// # Errors
    ///
    /// [`ArenaError::OutOfBounds`] if the element range overruns the
    /// arena, [`ArenaError::Misaligned`] if `byte_offset` lands on an
    /// address not aligned for `T`.
    pub fn from_arena(
        rows: usize,
        cols: usize,
        arena: &Arc<MappedArena>,
        byte_offset: usize,
    ) -> Result<Self, ArenaError> {
        let len = rows.checked_mul(cols).ok_or(ArenaError::OutOfBounds {
            end: usize::MAX,
            len: arena.len(),
        })?;
        let byte_len =
            len.checked_mul(std::mem::size_of::<T>())
                .ok_or(ArenaError::OutOfBounds {
                    end: usize::MAX,
                    len: arena.len(),
                })?;
        arena.check_range(byte_offset, byte_len, std::mem::align_of::<T>())?;
        let ptr = arena.bytes()[byte_offset..].as_ptr() as *const T;
        Ok(Matrix {
            rows,
            cols,
            data: Buf::Mapped {
                arena: Arc::clone(arena),
                ptr,
                len,
            },
        })
    }

    /// Whether this matrix still reads straight out of a checkpoint arena
    /// (false once a mutation has forced the copy-on-write).
    pub fn is_arena_view(&self) -> bool {
        matches!(self.data, Buf::Mapped { .. })
    }
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a zero-initialized (default-initialized) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: Buf::Owned(vec![T::default(); rows * cols]),
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix {
            rows,
            cols,
            data: Buf::Owned(data),
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (1, data.len())));
        }
        Ok(Matrix {
            rows,
            cols,
            data: Buf::Owned(data),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data.as_slice()[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let idx = r * self.cols + c;
        self.data.make_owned()[idx] = v;
    }

    /// Row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.as_slice().chunks_exact(self.cols)
    }

    /// Rows `[start, end)` as a matrix: copied out of an owned matrix, a
    /// view into the same arena of a mapped one (no weight page touched).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix<T> {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        let window = &self.data.as_slice()[start * self.cols..end * self.cols];
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: match &self.data {
                Buf::Owned(_) => Buf::Owned(window.to_vec()),
                // SAFETY: (the variant invariants) `window` is a sub-range
                // of this view's in-bounds range, a whole number of `T`s
                // past its aligned start, in the same arena — which the
                // cloned `Arc` keeps alive however long this matrix lives.
                Buf::Mapped { arena, .. } => Buf::Mapped {
                    arena: Arc::clone(arena),
                    ptr: window.as_ptr(),
                    len: window.len(),
                },
            },
        }
    }

    /// Underlying row-major buffer.
    pub fn as_slice(&self) -> &[T] {
        self.data.as_slice()
    }

    /// Consumes the matrix, returning its buffer (copied to the heap if
    /// it was a mapped view).
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_vec()
    }
}

impl Matrix<f32> {
    /// Largest absolute value per row (used for per-output-channel scales).
    pub fn row_absmax(&self) -> Vec<f32> {
        self.iter_rows()
            .map(|r| r.iter().fold(0.0f32, |m, &x| m.max(x.abs())))
            .collect()
    }
}

impl<T: fmt::Display + Copy + Default> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        let show = self.rows.min(4);
        for r in 0..show {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|x| format!("{x}")).collect();
            writeln!(
                f,
                "  [{}{}]",
                cells.join(", "),
                if self.cols > 8 { ", ..." } else { "" }
            )?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as i32);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.get(2, 3), 23);
        assert_eq!(m.row(1), &[10, 11, 12, 13]);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1, 2, 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(m.get(1, 1), 4);
    }

    #[test]
    fn set_and_row_mut() {
        let mut m = Matrix::<i32>::zeros(2, 2);
        m.set(0, 1, 7);
        m.set(1, 0, 9);
        assert_eq!(m.as_slice(), &[0, 7, 9, 0]);
    }

    #[test]
    fn slice_rows_copies_range() {
        let m = Matrix::from_fn(4, 2, |r, _| r as i32);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[1, 1]);
        assert_eq!(s.row(1), &[2, 2]);
    }

    #[test]
    fn absmax_helpers() {
        let m = Matrix::from_vec(2, 2, vec![1.0f32, -4.0, 3.0, 2.0]).unwrap();
        assert_eq!(m.row_absmax(), vec![4.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::<i32>::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn display_truncates() {
        let m = Matrix::<i32>::zeros(10, 10);
        let s = m.to_string();
        assert!(s.contains("[10x10]"));
        assert!(s.contains("..."));
    }

    #[test]
    fn arena_view_reads_without_copying() {
        let arena = MappedArena::from_bytes((0u8..24).map(|b| b as i8 as u8).collect());
        let m = Matrix::<i8>::from_arena(4, 6, &arena, 0).unwrap();
        assert!(m.is_arena_view());
        assert_eq!(m.get(1, 2), 8);
        assert_eq!(m.row(3), &[18, 19, 20, 21, 22, 23]);
        // equality across backings
        let owned = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as i8);
        assert_eq!(m, owned);
    }

    #[test]
    fn arena_view_copy_on_write() {
        let arena = MappedArena::from_bytes(vec![1, 2, 3, 4]);
        let mut m = Matrix::<i8>::from_arena(2, 2, &arena, 0).unwrap();
        m.set(0, 0, 9);
        assert!(!m.is_arena_view(), "mutation must detach from the arena");
        assert_eq!(m.as_slice(), &[9, 2, 3, 4]);
        // arena itself is untouched
        assert_eq!(arena.bytes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn arena_view_rejects_overrun_and_misalignment() {
        let arena = MappedArena::from_bytes(vec![0; 16]);
        assert!(Matrix::<i8>::from_arena(4, 5, &arena, 0).is_err());
        assert!(Matrix::<i8>::from_arena(usize::MAX, 2, &arena, 0).is_err());
        // f32 needs 4-alignment; some offset in 1..=4 is misaligned.
        let misaligned = (1..=4).any(|off| Matrix::<f32>::from_arena(1, 2, &arena, off).is_err());
        assert!(misaligned);
    }

    #[test]
    fn slice_rows_of_an_arena_view_is_a_view_that_outlives_its_parent() {
        let arena = MappedArena::from_bytes((0u8..64).collect());
        // f32 rows, so the slice has an alignment to keep (a byte arena
        // is only 1-aligned: take its first 4-aligned offset).
        let parent = (0..4)
            .find_map(|off| Matrix::<f32>::from_arena(4, 3, &arena, off).ok())
            .unwrap();
        let owned = Matrix::from_vec(4, 3, parent.as_slice().to_vec()).unwrap();
        let view = parent.slice_rows(1, 3);
        assert!(view.is_arena_view(), "a mapped matrix slices by view");
        assert!(!owned.slice_rows(1, 3).is_arena_view());
        assert_eq!(view, owned.slice_rows(1, 3));
        assert_eq!(view.as_slice().as_ptr(), parent.row(1).as_ptr());
        assert!(parent.slice_rows(2, 2).is_empty());
        drop(parent);
        drop(arena);
        assert_eq!(view, owned.slice_rows(1, 3), "the view keeps the arena");
        assert_eq!(view.slice_rows(1, 2).row(0), owned.row(2));
    }

    #[test]
    fn arena_view_clone_shares_mapping() {
        let arena = MappedArena::from_bytes(vec![5; 8]);
        let m = Matrix::<i8>::from_arena(2, 4, &arena, 0).unwrap();
        let c = m.clone();
        assert!(c.is_arena_view());
        assert_eq!(c, m);
        assert_eq!(c.into_vec(), vec![5; 8]);
    }
}
