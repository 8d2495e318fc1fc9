//! Uniform grid partition of the spatial area of interest (paper §IV-A).
//!
//! The paper partitions the space into `n` disjoint equal-sized grids
//! `R = {r1 … rn}` and uses the cell centers as their locations. The grid
//! also provides the range query used to truncate probability mass to
//! cells near an observation (`cells_within`), which turns the dense
//! `O(|R|)` per-location scans into `O(k)` local ones without changing
//! results beyond a configurable tail threshold.

use crate::{BoundingBox, Point};
use std::fmt;

/// Identifier of a grid cell: a dense index in `0 .. grid.len()`.
///
/// Row-major: `id = row * cols + col` with rows growing along +y and
/// columns along +x.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The dense index as `usize`, for direct vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Errors constructing a [`Grid`].
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// The requested cell size was zero, negative or non-finite.
    InvalidCellSize(f64),
    /// The area was degenerate (zero width or height).
    DegenerateArea,
    /// The area/cell-size combination would produce more cells than fit in
    /// a `u32` index (or an absurd amount of memory).
    TooManyCells {
        /// Requested number of columns.
        cols: usize,
        /// Requested number of rows.
        rows: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::InvalidCellSize(s) => write!(f, "invalid grid cell size: {s}"),
            GridError::DegenerateArea => write!(f, "grid area has zero width or height"),
            GridError::TooManyCells { cols, rows } => {
                write!(
                    f,
                    "grid of {cols} x {rows} cells exceeds the supported size"
                )
            }
        }
    }
}

impl std::error::Error for GridError {}

/// A uniform partition of a rectangular area into square cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    area: BoundingBox,
    cell_size: f64,
    cols: u32,
    rows: u32,
}

impl Grid {
    /// Maximum number of cells a grid may hold; large enough for a city at
    /// fine resolution, small enough to catch runaway configurations.
    pub const MAX_CELLS: usize = 64_000_000;

    /// Creates a grid covering `area` with square cells of side
    /// `cell_size` meters. The last row/column may extend past the area so
    /// that the whole area is covered.
    pub fn new(area: BoundingBox, cell_size: f64) -> Result<Self, GridError> {
        if !cell_size.is_finite() || cell_size <= 0.0 {
            return Err(GridError::InvalidCellSize(cell_size));
        }
        if area.width() <= 0.0 || area.height() <= 0.0 {
            return Err(GridError::DegenerateArea);
        }
        let cols = (area.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (area.height() / cell_size).ceil().max(1.0) as usize;
        let total = cols.saturating_mul(rows);
        if total > Self::MAX_CELLS || cols > u32::MAX as usize || rows > u32::MAX as usize {
            return Err(GridError::TooManyCells { cols, rows });
        }
        Ok(Grid {
            area,
            cell_size,
            cols: cols as u32,
            rows: rows as u32,
        })
    }

    /// The covered area as given at construction.
    #[inline]
    pub fn area(&self) -> BoundingBox {
        self.area
    }

    /// Cell side length in meters.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of columns (x direction).
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows (y direction).
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells `|R|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// `true` when the grid has no cells (never true for a constructed
    /// grid; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell containing `p`, or `None` when `p` lies outside the grid.
    /// Points exactly on the max boundary are clamped into the last cell.
    pub fn cell_at(&self, p: Point) -> Option<CellId> {
        if !self.area.contains(&p) {
            return None;
        }
        Some(self.cell_at_clamped(p))
    }

    /// The cell containing `p`, snapping points outside the grid to the
    /// nearest boundary cell. Useful when noise pushes observations
    /// slightly out of the area of interest.
    pub fn cell_at_clamped(&self, p: Point) -> CellId {
        let q = self.area.clamp(&p);
        let col = (((q.x - self.area.min().x) / self.cell_size) as u32).min(self.cols - 1);
        let row = (((q.y - self.area.min().y) / self.cell_size) as u32).min(self.rows - 1);
        CellId(row * self.cols + col)
    }

    /// Center of cell `id` (the paper uses centers as cell locations).
    pub fn center(&self, id: CellId) -> Point {
        let (col, row) = self.col_row(id);
        self.center_at(col, row)
    }

    /// Center of the cell at `(col, row)`: the same value as
    /// [`Grid::center`] of that cell, without recovering the coordinates
    /// from an id. Scans that already hold `(col, row)` use this.
    #[inline]
    pub fn center_at(&self, col: u32, row: u32) -> Point {
        Point::new(
            self.area.min().x + (col as f64 + 0.5) * self.cell_size,
            self.area.min().y + (row as f64 + 0.5) * self.cell_size,
        )
    }

    /// Column/row coordinates of a cell.
    #[inline]
    pub fn col_row(&self, id: CellId) -> (u32, u32) {
        (id.0 % self.cols, id.0 / self.cols)
    }

    /// Cell id from column/row coordinates; `None` when out of range.
    pub fn cell_from_col_row(&self, col: u32, row: u32) -> Option<CellId> {
        if col < self.cols && row < self.rows {
            Some(CellId(row * self.cols + col))
        } else {
            None
        }
    }

    /// Iterates over all cell ids in dense order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.len() as u32).map(CellId)
    }

    /// All cells whose **center** lies within `radius` meters of `p`.
    ///
    /// This is the truncation primitive behind the sparse STP computation:
    /// probability mass of a Gaussian beyond a few σ is negligible, so only
    /// cells near the observation need to be scanned. The returned ids are
    /// in dense order.
    pub fn cells_within(&self, p: Point, radius: f64) -> Vec<CellId> {
        let mut out = Vec::new();
        self.cells_within_into(p, radius, &mut out);
        out
    }

    /// Allocation-free variant of [`Grid::cells_within`]: clears `out`
    /// and fills it with the same ids in the same (dense) order, reusing
    /// the vector's capacity. Hot scoring loops call this with a scratch
    /// buffer instead of allocating per evaluation.
    pub fn cells_within_into(&self, p: Point, radius: f64, out: &mut Vec<CellId>) {
        out.clear();
        if !(radius.is_finite() && radius >= 0.0) {
            return;
        }
        let r2 = radius * radius;
        self.scan(self.disc_span(p, radius), |col, row, center| {
            if center.distance_sq(&p) <= r2 {
                out.push(CellId(row * self.cols + col));
            }
        });
    }

    /// Visits, in dense order, the `(col, row)` of every cell whose
    /// center lies within `ra` of `a` **and** within `rb` of `b`: exactly
    /// the ids both [`Grid::cells_within`] lists share, found in one scan
    /// over the two discs' common column and row range instead of two
    /// lists and a merge. Visits nothing when either radius is negative
    /// or not finite.
    pub fn lens_cells(
        &self,
        a: Point,
        ra: f64,
        b: Point,
        rb: f64,
        mut visit: impl FnMut(u32, u32),
    ) {
        if !(ra.is_finite() && ra >= 0.0 && rb.is_finite() && rb >= 0.0) {
            return;
        }
        let [(ca0, ca1), (ra0, ra1)] = self.disc_span(a, ra);
        let [(cb0, cb1), (rb0, rb1)] = self.disc_span(b, rb);
        let common = [(ca0.max(cb0), ca1.min(cb1)), (ra0.max(rb0), ra1.min(rb1))];
        let (ra2, rb2) = (ra * ra, rb * rb);
        self.scan(common, |col, row, center| {
            if center.distance_sq(&a) <= ra2 && center.distance_sq(&b) <= rb2 {
                visit(col, row);
            }
        });
    }

    /// The inclusive column and row ranges `[(lo, hi); 2]` a disc of
    /// `radius` (finite, non-negative) around `p` can touch, clipped to
    /// the grid; a range with `hi < lo` is empty.
    fn disc_span(&self, p: Point, radius: f64) -> [(i64, i64); 2] {
        let min = self.area.min();
        let span = |lo: f64, hi: f64, n: u32| {
            (
                ((lo / self.cell_size).floor()).max(0.0) as i64,
                (((hi / self.cell_size).floor()) as i64).min(n as i64 - 1),
            )
        };
        [
            span(p.x - radius - min.x, p.x + radius - min.x, self.cols),
            span(p.y - radius - min.y, p.y + radius - min.y, self.rows),
        ]
    }

    /// Calls `f(col, row, center)` for every cell of the column and row
    /// ranges `span` (as [`Grid::disc_span`] gives them), in dense order.
    #[inline]
    fn scan(&self, [(c0, c1), (r0, r1)]: [(i64, i64); 2], mut f: impl FnMut(u32, u32, Point)) {
        for row in r0..=r1 {
            for col in c0..=c1 {
                let (col, row) = (col as u32, row as u32);
                f(col, row, self.center_at(col, row));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn grid_10x5() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(100.0, 50.0)),
            10.0,
        )
        .unwrap()
    }

    #[test]
    fn dimensions() {
        let g = grid_10x5();
        assert_eq!(g.cols(), 10);
        assert_eq!(g.rows(), 5);
        assert_eq!(g.len(), 50);
        assert!(!g.is_empty());
        assert!(approx_eq(g.cell_size(), 10.0));
    }

    #[test]
    fn construction_errors() {
        let area = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 50.0));
        assert!(matches!(
            Grid::new(area, 0.0),
            Err(GridError::InvalidCellSize(_))
        ));
        assert!(matches!(
            Grid::new(area, -1.0),
            Err(GridError::InvalidCellSize(_))
        ));
        assert!(matches!(
            Grid::new(area, f64::NAN),
            Err(GridError::InvalidCellSize(_))
        ));
        let line = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 0.0));
        assert!(matches!(
            Grid::new(line, 1.0),
            Err(GridError::DegenerateArea)
        ));
        let huge = BoundingBox::new(Point::ORIGIN, Point::new(1e9, 1e9));
        assert!(matches!(
            Grid::new(huge, 0.1),
            Err(GridError::TooManyCells { .. })
        ));
    }

    #[test]
    fn cell_lookup_roundtrip() {
        let g = grid_10x5();
        for id in g.cells() {
            let c = g.center(id);
            assert_eq!(g.cell_at(c), Some(id));
            let (col, row) = g.col_row(id);
            assert_eq!(g.cell_from_col_row(col, row), Some(id));
        }
    }

    #[test]
    fn cell_at_boundaries() {
        let g = grid_10x5();
        // Max corner belongs to the last cell (clamped).
        assert_eq!(g.cell_at(Point::new(100.0, 50.0)), Some(CellId(49)));
        assert_eq!(g.cell_at(Point::new(0.0, 0.0)), Some(CellId(0)));
        assert_eq!(g.cell_at(Point::new(150.0, 25.0)), None);
        assert_eq!(
            g.cell_at_clamped(Point::new(150.0, 25.0)),
            g.cell_at(Point::new(100.0, 25.0)).unwrap()
        );
        assert_eq!(g.cell_at_clamped(Point::new(-10.0, -10.0)), CellId(0));
    }

    #[test]
    fn ragged_last_column_is_covered() {
        // 95 m wide with 10 m cells -> 10 columns, last one hangs over.
        let g = Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(95.0, 20.0)),
            10.0,
        )
        .unwrap();
        assert_eq!(g.cols(), 10);
        assert!(g.cell_at(Point::new(94.9, 10.0)).is_some());
    }

    #[test]
    fn cells_within_radius() {
        let g = grid_10x5();
        let p = Point::new(55.0, 25.0); // a cell center
        let near = g.cells_within(p, 0.5);
        assert_eq!(near, vec![g.cell_at(p).unwrap()]);

        let r = 15.0;
        let within = g.cells_within(p, r);
        // Compare against a brute-force scan.
        let brute: Vec<CellId> = g
            .cells()
            .filter(|id| g.center(*id).distance(&p) <= r)
            .collect();
        assert_eq!(within, brute);
        assert!(within.len() > 1);

        let brute = |g: &Grid, p: Point, r: f64| -> Vec<CellId> {
            g.cells()
                .filter(|id| g.center(*id).distance_sq(&p) <= r * r)
                .collect()
        };

        // A ragged last column (95 m over 10 m cells) and an origin off
        // the axes, queried from inside, across the ragged edge and from
        // points outside the area.
        let ragged = Grid::new(
            BoundingBox::new(Point::new(-3.0, 2.0), Point::new(92.0, 41.0)),
            10.0,
        )
        .unwrap();
        assert_eq!((ragged.cols(), ragged.rows()), (10, 4));
        for p in [
            Point::new(40.0, 20.0),
            Point::new(91.5, 40.0),
            Point::new(-20.0, 25.0),
            Point::new(120.0, -30.0),
        ] {
            for r in [0.0, 7.5, 15.0, 33.3, 200.0] {
                let within = ragged.cells_within(p, r);
                assert_eq!(within, brute(&ragged, p, r), "p={p:?} r={r}");
            }
        }
    }

    #[test]
    fn lens_cells_is_the_intersection_of_two_discs() {
        let g = Grid::new(
            BoundingBox::new(Point::new(-3.0, 2.0), Point::new(92.0, 41.0)),
            10.0,
        )
        .unwrap();
        let cases = [
            (Point::new(20.0, 20.0), 25.0, Point::new(50.0, 25.0), 30.0),
            (Point::new(91.5, 40.0), 12.0, Point::new(88.0, 38.0), 40.0),
            (Point::new(-20.0, 25.0), 60.0, Point::new(10.0, 10.0), 15.0),
            (Point::new(0.0, 0.0), 5.0, Point::new(90.0, 40.0), 5.0),
            (Point::new(40.0, 20.0), 0.0, Point::new(40.0, 20.0), 100.0),
        ];
        for (a, ra, b, rb) in cases {
            let (la, lb) = (g.cells_within(a, ra), g.cells_within(b, rb));
            let both: Vec<CellId> = la.into_iter().filter(|c| lb.contains(c)).collect();
            let mut lens = Vec::new();
            g.lens_cells(a, ra, b, rb, |col, row| {
                lens.push(g.cell_from_col_row(col, row).unwrap())
            });
            assert_eq!(lens, both, "a={a:?} ra={ra} b={b:?} rb={rb}");
        }
        let mut visited = 0;
        for (ra, rb) in [(f64::NAN, 10.0), (10.0, -1.0), (f64::INFINITY, 10.0)] {
            g.lens_cells(
                Point::new(40.0, 20.0),
                ra,
                Point::new(40.0, 20.0),
                rb,
                |_, _| visited += 1,
            );
        }
        assert_eq!(visited, 0, "degenerate radii visit nothing");
    }

    #[test]
    fn cells_within_degenerate_radius() {
        let g = grid_10x5();
        assert!(g.cells_within(Point::new(5.0, 5.0), f64::NAN).is_empty());
        assert!(g.cells_within(Point::new(5.0, 5.0), -1.0).is_empty());
        // Radius 0 on a center yields exactly that cell.
        let c = g.center(CellId(0));
        assert_eq!(g.cells_within(c, 0.0), vec![CellId(0)]);
    }

    #[test]
    fn cells_within_offgrid_point() {
        let g = grid_10x5();
        let far = Point::new(-100.0, -100.0);
        assert!(g.cells_within(far, 10.0).is_empty());
        // Large radius from outside still finds cells.
        assert!(!g.cells_within(far, 200.0).is_empty());
    }

    #[test]
    fn center_at_matches_center() {
        let g = Grid::new(
            BoundingBox::new(Point::new(-50.0, -20.0), Point::new(33.0, 47.0)),
            7.0,
        )
        .unwrap();
        for id in g.cells() {
            let (col, row) = g.col_row(id);
            assert_eq!(g.center_at(col, row), g.center(id));
        }
    }

    #[test]
    fn centers_are_inside_cells() {
        let g = Grid::new(
            BoundingBox::new(Point::new(-50.0, -20.0), Point::new(33.0, 47.0)),
            7.0,
        )
        .unwrap();
        for id in g.cells() {
            let c = g.center(id);
            assert_eq!(g.cell_at_clamped(c), id);
        }
    }
}
