//! Typed views over the shared segment.
//!
//! Applications never see raw addresses; they allocate [`SharedVec`]s and
//! [`SharedMat`]s from the [`CvmBuilder`](crate::CvmBuilder) before the run
//! and access elements through a [`ThreadCtx`], which
//! drives the page-protection state machine exactly where hardware faults
//! would occur.
//!
//! Only 8-byte element types are shareable: the multiple-writer protocol
//! diffs at 8-byte-word granularity, so smaller elements could make two
//! *race-free* writers produce overlapping diffs (word-level false
//! sharing). Page-level false sharing, which the paper's protocol is built
//! to tolerate, remains fully possible.

use std::fmt;
use std::marker::PhantomData;

use crate::ctx::ThreadCtx;
use crate::page::Addr;

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for u64 {}
    impl Sealed for i64 {}
}

/// Types that may live in the shared segment. Sealed: exactly the 8-byte
/// primitives (`f64`, `u64`, `i64`).
pub trait Shareable: private::Sealed + Copy + Send + 'static {
    /// Size in bytes (always 8).
    const SIZE: usize;
    /// Serializes to little-endian bytes.
    fn to_bytes(self) -> [u8; 8];
    /// Deserializes from little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than 8 bytes.
    fn from_bytes(b: &[u8]) -> Self;
}

impl Shareable for f64 {
    const SIZE: usize = 8;
    fn to_bytes(self) -> [u8; 8] {
        self.to_le_bytes()
    }
    fn from_bytes(b: &[u8]) -> Self {
        f64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
}

impl Shareable for u64 {
    const SIZE: usize = 8;
    fn to_bytes(self) -> [u8; 8] {
        self.to_le_bytes()
    }
    fn from_bytes(b: &[u8]) -> Self {
        u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
}

impl Shareable for i64 {
    const SIZE: usize = 8;
    fn to_bytes(self) -> [u8; 8] {
        self.to_le_bytes()
    }
    fn from_bytes(b: &[u8]) -> Self {
        i64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
}

/// A shared one-dimensional array handle. Cheap to copy into application
/// closures.
///
/// # Example
///
/// ```
/// use cvm_dsm::{CvmBuilder, CvmConfig};
/// let mut b = CvmBuilder::new(CvmConfig::small(1, 2));
/// let v = b.alloc::<f64>(16);
/// b.run(move |ctx| {
///     ctx.startup_done();
///     if ctx.global_id() == 0 {
///         v.write(ctx, 3, 1.25);
///     }
///     ctx.barrier();
///     assert_eq!(v.read(ctx, 3), 1.25);
/// });
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SharedVec<T: Shareable> {
    base: u64,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Shareable> SharedVec<T> {
    pub(crate) fn from_raw(base: u64, len: usize) -> Self {
        SharedVec {
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn addr(&self, i: usize) -> Addr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.addr_of(i)
    }

    /// Byte address of element `i`, for callers that checked `i` already.
    fn addr_of(&self, i: usize) -> Addr {
        Addr(self.base + (i * T::SIZE) as u64)
    }

    /// Reads element `i` through the DSM (may fault and block).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn read(&self, ctx: &mut ThreadCtx<'_>, i: usize) -> T {
        ctx.read_val(self.addr(i))
    }

    /// Writes element `i` through the DSM (may fault and block).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn write(&self, ctx: &mut ThreadCtx<'_>, i: usize, v: T) {
        ctx.write_val(self.addr(i), v);
    }
}

impl<T: Shareable> fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedVec[base {:#x}, len {}]", self.base, self.len)
    }
}

/// A shared row-major two-dimensional array handle.
///
/// Rows are contiguous, so contiguous row blocks map to contiguous pages —
/// the distribution the paper's applications rely on for locality.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SharedMat<T: Shareable> {
    vec: SharedVec<T>,
    rows: usize,
    cols: usize,
}

impl<T: Shareable> SharedMat<T> {
    pub(crate) fn from_raw(base: u64, rows: usize, cols: usize) -> Self {
        SharedMat {
            vec: SharedVec::from_raw(base, rows * cols),
            rows,
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn read(&self, ctx: &mut ThreadCtx<'_>, r: usize, c: usize) -> T {
        ctx.read_val(self.addr(r, c))
    }

    /// Writes `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn write(&self, ctx: &mut ThreadCtx<'_>, r: usize, c: usize, v: T) {
        ctx.write_val(self.addr(r, c), v);
    }

    /// Byte address of `(r, c)`: the one bounds check of an element
    /// access (a column past the end must not alias the next row).
    fn addr(&self, r: usize, c: usize) -> Addr {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        self.vec.addr_of(r * self.cols + c)
    }

    /// The flat view.
    pub fn as_vec(&self) -> SharedVec<T> {
        self.vec
    }
}

impl<T: Shareable> fmt::Debug for SharedMat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedMat[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bytes() {
        assert_eq!(f64::from_bytes(&1.5f64.to_bytes()), 1.5);
        assert_eq!(u64::from_bytes(&42u64.to_bytes()), 42);
        assert_eq!(i64::from_bytes(&(-7i64).to_bytes()), -7);
    }

    #[test]
    fn vec_addressing() {
        let v: SharedVec<f64> = SharedVec::from_raw(8192, 10);
        assert_eq!(v.addr(0), Addr(8192));
        assert_eq!(v.addr(9), Addr(8192 + 72));
        assert_eq!(v.len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn vec_bounds_checked() {
        let v: SharedVec<f64> = SharedVec::from_raw(0, 4);
        let _ = v.addr(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn mat_bounds_checked_per_dimension() {
        let m: SharedMat<u64> = SharedMat::from_raw(0, 3, 5);
        // Element 5 exists in the flat view; column 5 of row 0 does not.
        let _ = m.addr(0, 5);
    }

    #[test]
    fn mat_is_row_major() {
        let m: SharedMat<u64> = SharedMat::from_raw(0, 3, 5);
        assert_eq!(m.as_vec().addr(0), Addr(0));
        // (1, 2) = element 7.
        assert_eq!(m.as_vec().addr(5 + 2), Addr(56));
        assert_eq!(m.addr(1, 2), Addr(56));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
    }
}
