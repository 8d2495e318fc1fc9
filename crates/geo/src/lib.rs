#![warn(missing_docs)]
//! # sts-geo — geometry substrate
//!
//! Planar geometry used throughout the STS reproduction: points and vector
//! arithmetic in a local metric frame, bounding boxes, the uniform grid
//! partition of §IV-A of the paper, and segments (needed by the
//! interpolation-based baselines EDwP/SST).
//!
//! All coordinates are `f64` meters in a local planar frame.
//!
//! ```
//! use sts_geo::{Point, Grid, BoundingBox};
//!
//! let area = BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 50.0));
//! let grid = Grid::new(area, 10.0).unwrap();
//! assert_eq!(grid.len(), 10 * 5);
//! let cell = grid.cell_at(Point::new(25.0, 25.0)).unwrap();
//! assert_eq!(grid.center(cell), Point::new(25.0, 25.0));
//! ```

mod bbox;
mod grid;
mod point;
mod segment;

pub use bbox::BoundingBox;
pub use grid::{CellId, Grid, GridError};
pub use point::Point;
pub use segment::Segment;

/// Numerical tolerance used for approximate float comparisons inside the
/// geometry substrate (tests and degenerate-case guards).
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floats are equal within [`EPSILON`] scaled by
/// their magnitude (relative for large values, absolute near zero).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= EPSILON * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(approx_eq(0.0, 1e-12));
        assert!(approx_eq(1e12, 1e12 + 1.0e2));
    }
}
