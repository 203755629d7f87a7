"""Bounded open domains in R^1 and R^2, and their rasterization onto uniform grids.

Domains are small frozen descriptions (interval unions, balls, boxes, ball
unions, raster masks), and each point set is built as exactly one kind: on
the line every analytic set is an IntervalUnion, while Ball, Box and
BallUnion are planar, and a ball union holds at least two balls. Each kind
carries its geometry: the dimension `d`, `bounding_box()` of its closure,
`diameter()`, `inscribed_radius()` (radius and center of a ball inside it)
and the membership test behind `contains`. A Grid is an axis-aligned lattice
of cell centers with an inside mask; a cell is inside exactly when its center
lies in the domain.
Measurements are exact for the analytic shapes and deliberately conservative
on raster masks: the diameter is padded so downstream lower bounds can only
weaken, and the inscribed ball is valid but not necessarily maximal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "IntervalUnion",
    "Ball",
    "Box",
    "BallUnion",
    "RasterMask",
    "Domain",
    "Grid",
    "EmptyGridError",
    "MaskFormatError",
    "interval",
    "contains",
    "rasterize",
    "mask_from_predicate",
    "load_mask",
    "save_mask",
]

# lattice box cells (inside and outside) that rasterize may allocate; checked
# before any per-cell array exists
MAX_LATTICE_CELLS = 2**20

# layers of outside cells that rasterize lays around the bounding box
PAD_CELLS = 2

# (points x cells) pairs a raster measurement handles at once, to keep memory flat
_PAIR_BLOCK = 2**18

# two pieces that reach into each other by at most this many ulps of their
# largest coordinate touch: 0.1 + 0.2 rounds above 0.3 and 0.3 - 0.2 below 0.1
TOUCH_ULPS = 4


def _overlap(depth: float, *coords: float) -> bool:
    """Whether two pieces that reach `depth` into each other overlap by more
    than TOUCH_ULPS ulps of the largest of their coordinates."""
    return depth > TOUCH_ULPS * math.ulp(max(abs(c) for c in coords))


class EmptyGridError(ValueError):
    """Raised when rasterization produces fewer than two inside cells."""


class MaskFormatError(ValueError):
    """Raised when a mask file does not follow the plain-text format."""


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint union of open intervals (a, b) on the line."""

    intervals: tuple[tuple[float, float], ...]
    d = 1

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("interval union must be nonempty")
        for piece in self.intervals:
            if len(piece) != 2:
                raise ValueError(f"interval piece {piece} needs 2 numbers (a, b), got {len(piece)}")
        for a, b in self.intervals:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"invalid interval ({a}, {b})")
        ordered = sorted(self.intervals)
        for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
            if _overlap(b1 - a2, a1, b1, a2, b2):
                raise ValueError(f"intervals ({a1}, {b1}) and ({a2}, {b2}) overlap")

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([min(a for a, _ in self.intervals)]),
            np.array([max(b for _, b in self.intervals)]),
        )

    def _contains(self, pts: np.ndarray) -> np.ndarray:
        x = pts[:, 0]
        out = np.zeros(len(x), dtype=bool)
        for a, b in self.intervals:
            out |= (x > a) & (x < b)
        return out

    def diameter(self) -> float:
        return max(b for _, b in self.intervals) - min(a for a, _ in self.intervals)

    def inscribed_radius(self) -> tuple[float, np.ndarray]:
        a, b = max(self.intervals, key=lambda ab: ab[1] - ab[0])
        return (b - a) / 2.0, np.array([(a + b) / 2.0])


def _check_ball(center: Sequence[float], radius: float) -> None:
    """Refuse a ball whose radius is not positive and finite or whose center is not finite."""
    if radius <= 0.0 or not math.isfinite(radius):
        raise ValueError(f"radius must be positive, got {radius}")
    for i, c in enumerate(center):
        if not math.isfinite(c):
            raise ValueError(f"center coordinate {i + 1} must be finite, got {c}")


@dataclass(frozen=True)
class Ball:
    """Open disk with the given center and radius; a ball on the line is an IntervalUnion."""

    center: tuple[float, float]
    radius: float
    d = 2

    def __post_init__(self) -> None:
        if len(self.center) != 2:
            raise ValueError(
                f"a Ball is planar, got {len(self.center)} center coordinates; on the line use IntervalUnion"
            )
        _check_ball(self.center, self.radius)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center, dtype=float)
        return c - self.radius, c + self.radius

    def _contains(self, pts: np.ndarray) -> np.ndarray:
        # one column at a time: the same sum as np.sum(..., axis=1), ~8x faster on (m, 2)
        return sum((pts[:, i] - ci) ** 2 for i, ci in enumerate(self.center)) < self.radius**2

    def diameter(self) -> float:
        return 2.0 * self.radius

    def inscribed_radius(self) -> tuple[float, np.ndarray]:
        return self.radius, np.asarray(self.center, dtype=float)


@dataclass(frozen=True)
class Box:
    """Open axis-aligned rectangle (lo_1, hi_1) x (lo_2, hi_2); a box on the line is an IntervalUnion."""

    lo: tuple[float, float]
    hi: tuple[float, float]
    d = 2

    def __post_init__(self) -> None:
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise ValueError(
                f"a Box is planar, got corners of {len(self.lo)} and {len(self.hi)} coordinates; "
                "on the line use IntervalUnion"
            )
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"invalid box edge ({a}, {b})")

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

    def _contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts > lo) & (pts < hi), axis=1)

    def diameter(self) -> float:
        return math.dist(self.lo, self.hi)

    def inscribed_radius(self) -> tuple[float, np.ndarray]:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return float(np.min(hi - lo)) / 2.0, (lo + hi) / 2.0


@dataclass(frozen=True)
class BallUnion:
    """Disjoint union of two or more open disks; one disk is a Ball."""

    balls: tuple[Ball, ...]
    d = 2

    def __post_init__(self) -> None:
        if len(self.balls) < 2:
            raise ValueError(f"a ball union needs at least two balls, got {len(self.balls)}; one ball is a Ball")
        for i, bi in enumerate(self.balls):
            for bj in self.balls[i + 1 :]:
                reach = bi.radius + bj.radius
                if _overlap(reach - math.dist(bi.center, bj.center), *bi.center, *bj.center, reach):
                    raise ValueError("balls overlap")

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        los, his = zip(*(b.bounding_box() for b in self.balls))
        return np.min(los, axis=0), np.max(his, axis=0)

    def _contains(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts), dtype=bool)
        for b in self.balls:
            out |= b._contains(pts)
        return out

    def diameter(self) -> float:
        best = max(2.0 * b.radius for b in self.balls)
        for i, bi in enumerate(self.balls):
            for bj in self.balls[i + 1 :]:
                best = max(best, math.dist(bi.center, bj.center) + bi.radius + bj.radius)
        return best

    def inscribed_radius(self) -> tuple[float, np.ndarray]:
        return max(self.balls, key=lambda bb: bb.radius).inscribed_radius()


@dataclass(frozen=True, eq=False)
class RasterMask:
    """Domain given as a bitmap of filled cells with spacing h.

    Cell (i) or (i, j) covers the half-open box
    [origin + i*h, origin + (i+1)*h) per axis; the domain is the union of
    the cells marked True.
    """

    mask: np.ndarray
    h: float
    origin: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim not in (1, 2):
            raise ValueError("mask must be 1- or 2-dimensional")
        if not m.any():
            raise ValueError("mask must contain at least one filled cell")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"mask spacing must be positive and finite, got {self.h}")
        object.__setattr__(self, "mask", m)
        origin = self.origin if self.origin else (0.0,) * m.ndim
        if len(origin) != m.ndim:
            raise ValueError("origin dimension does not match mask")
        object.__setattr__(self, "origin", tuple(float(c) for c in origin))
        if not np.isfinite(self.origin).all():
            raise ValueError(f"mask origin must be finite, got {self.origin}")

    @property
    def d(self) -> int:
        return self.mask.ndim

    def _cell_centers(self) -> np.ndarray:
        idx = np.argwhere(self.mask).astype(float)
        return np.asarray(self.origin) + (idx + 0.5) * self.h

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.argwhere(self.mask)
        o = np.asarray(self.origin)
        return o + idx.min(axis=0) * self.h, o + (idx.max(axis=0) + 1) * self.h

    def _contains(self, pts: np.ndarray) -> np.ndarray:
        idx = np.floor((pts - np.asarray(self.origin)) / self.h).astype(int)
        shape = np.asarray(self.mask.shape)
        ok = np.all((idx >= 0) & (idx < shape), axis=1)
        out = np.zeros(len(pts), dtype=bool)
        if ok.any():
            sel = idx[ok]
            out[ok] = self.mask[tuple(sel.T)]
        return out

    def diameter(self) -> float:
        """Maximal cell-center distance padded by h*sqrt(d), an upper bound.

        The farthest pair lies on the convex hull, whose vertices are among the
        first and last filled cell of each lattice row, so only those enter.
        Along a row the rounded squared distance to any fixed point peaks at
        one of the row's ends too, so the maximum is the all-pairs one bit for
        bit.
        """
        idx = np.argwhere(self.mask)  # row-major, so each row's cells are contiguous
        ends = np.zeros(len(idx), dtype=bool)
        ends[[0, -1]] = True
        if self.d == 2:
            new_row = idx[1:, 0] != idx[:-1, 0]
            ends[1:] |= new_row
            ends[:-1] |= new_row
        pts = self._cell_centers()[ends]
        best = 0.0
        step = max(1, _PAIR_BLOCK // len(pts))
        for start in range(0, len(pts), step):
            blk = pts[start : start + step]
            d2 = np.sum((blk[:, None, :] - pts[None, :, :]) ** 2, axis=2)
            best = max(best, float(np.sqrt(d2.max())))
        return best + self.h * math.sqrt(self.d)

    def _dist_to_complement(self, pts: np.ndarray) -> np.ndarray:
        """Exact distance from each point of the cell union to its complement.

        Only the empty cells that share a face with a filled cell enter, and
        the edge of the mask extent. An empty cell nearest to a point inside
        lies apart from it along some axis, and its face neighbour one step
        toward the point along that axis is strictly nearer, so it is filled.
        The minimum thus runs over a set holding every nearest cell, each
        pair computed as over all cells: it is the all-cells one bit for bit.
        """
        o = np.asarray(self.origin)
        filled = np.pad(self.mask, 1)
        near = np.zeros_like(filled)
        for axis in range(self.d):
            near |= np.roll(filled, 1, axis) | np.roll(filled, -1, axis)
        empty_idx = np.argwhere((near & ~filled)[(slice(1, -1),) * self.d])
        # distance to the outside of the mask extent
        hi = o + np.asarray(self.mask.shape) * self.h
        d_ext = np.min(np.minimum(pts - o, hi - pts), axis=1)
        if len(empty_idx) == 0:
            return d_ext
        cell_lo = o + empty_idx * self.h
        cell_hi = cell_lo + self.h
        d_cells = np.empty(len(pts))
        # point-to-box distance over (points, empty cells), in blocks of points
        step = max(1, _PAIR_BLOCK // len(cell_lo))
        for start in range(0, len(pts), step):
            blk = pts[start : start + step]
            gap_lo = cell_lo[None, :, :] - blk[:, None, :]
            gap_hi = blk[:, None, :] - cell_hi[None, :, :]
            gap = np.maximum(np.maximum(gap_lo, gap_hi), 0.0)
            d_cells[start : start + step] = np.sqrt(np.sum(gap**2, axis=2)).min(axis=1)
        return np.minimum(d_ext, d_cells)

    def inscribed_radius(self) -> tuple[float, np.ndarray]:
        """Centered at the inside cell center farthest from the complement."""
        pts = self._cell_centers()
        dist = self._dist_to_complement(pts)
        k = int(np.argmax(dist))
        return float(dist[k]), pts[k]


Domain = Union[IntervalUnion, Ball, Box, BallUnion, RasterMask]


def interval(a: float, b: float) -> IntervalUnion:
    """Single open interval (a, b)."""
    return IntervalUnion(((a, b),))


def contains(dom: Domain, pts: np.ndarray) -> np.ndarray:
    """Membership of points in the open domain; pts has shape (m, d)."""
    return dom._contains(np.atleast_2d(np.asarray(pts, dtype=float)))


@dataclass
class Grid:
    """Uniform lattice of cell centers with an inside mask.

    index holds the lattice coordinates of the inside cells in a fixed
    (lexicographic) order; centers are the matching points in R^d.
    """

    h: float
    origin: np.ndarray
    dims: tuple[int, ...]
    inside: np.ndarray
    index: np.ndarray
    centers: np.ndarray

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return len(self.index)

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounding box of the full lattice (inside and outside cells)."""
        return self.origin, self.origin + np.asarray(self.dims) * self.h


def _lattice_centers(origin: np.ndarray, dims: Sequence[int], h: float) -> np.ndarray:
    """Centers of every cell of the lattice box, shape (prod(dims), d), in C order."""
    axes = [origin[k] + (np.arange(dims[k]) + 0.5) * h for k in range(len(dims))]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def rasterize(dom: Domain, h: float) -> Grid:
    """Lay a uniform grid over the domain; a cell is inside iff its center is.

    The lattice covers the domain's bounding box plus PAD_CELLS extra layers
    of outside cells on every side. The grid origin is bbox_lo minus the
    padding, so domains whose boundaries align with multiples of h tile
    exactly.
    """
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError("h must be positive and finite")
    diam = dom.diameter()
    if h > diam / 4.0:
        raise ValueError(f"h = {h} too coarse for a domain of diameter {diam}")
    lo, hi = dom.bounding_box()
    ncore = np.ceil((hi - lo) / h - 1e-9)
    cells = math.prod(float(n) + 2 * PAD_CELLS for n in ncore)
    if cells > MAX_LATTICE_CELLS:
        raise ValueError(
            f"h = {h} needs a lattice of {cells:.3g} cells, more than {MAX_LATTICE_CELLS}; "
            "choose a coarser h"
        )
    dims = tuple(int(n) + 2 * PAD_CELLS for n in ncore)
    origin = lo - PAD_CELLS * h
    inside = contains(dom, _lattice_centers(origin, dims, h)).reshape(dims)
    n_in = int(inside.sum())
    if n_in == 0:
        raise EmptyGridError(f"no cell center falls inside the domain at h = {h}")
    if n_in < 2:
        raise EmptyGridError(f"only {n_in} inside cell at h = {h}; need at least 2")
    index = np.argwhere(inside)
    centers = origin + (index + 0.5) * h
    return Grid(h=h, origin=origin, dims=dims, inside=inside, index=index, centers=centers)


def mask_from_predicate(
    lo: Sequence[float],
    hi: Sequence[float],
    h: float,
    predicate: Callable[[np.ndarray], np.ndarray],
) -> RasterMask:
    """Build a raster-mask domain by sampling a membership predicate at cell centers."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"mask spacing h must be positive and finite, got {h}")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    corners = f"mask corners lo = {tuple(lo.tolist())} and hi = {tuple(hi.tolist())}"
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"{corners} must be finite")
    if not (lo < hi).all():
        raise ValueError(f"{corners} bound an empty box: need lo < hi on every axis")
    dims = tuple(int(n) for n in np.ceil((hi - lo) / h - 1e-9))
    mask = np.asarray(predicate(_lattice_centers(lo, dims, h)), dtype=bool).reshape(dims)
    return RasterMask(mask, h, tuple(lo))


def save_mask(dom: RasterMask, path) -> None:
    """Write a mask in the plain-text format: 'd h nx [ny]' then 0/1 rows.

    Line j holds row j (the second lattice axis), one character per cell
    along the first axis; a 1D mask is the single row of an nx x 1 mask.
    """
    rows = dom.mask.reshape(dom.mask.shape[0], -1).T
    with open(path, "w") as fh:
        fh.write(" ".join([str(dom.d), repr(dom.h), *map(str, dom.mask.shape)]) + "\n")
        for row in rows:
            fh.write("".join("1" if v else "0" for v in row) + "\n")


def load_mask(path) -> RasterMask:
    """Read a mask written by save_mask; the origin is placed at zero."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise MaskFormatError("empty mask file")
    head = lines[0].split()
    try:
        d = int(head[0])
        h = float(head[1])
        ns = [int(t) for t in head[2:]]
    except (IndexError, ValueError) as exc:
        raise MaskFormatError(f"bad header line {lines[0]!r}") from exc
    if d not in (1, 2) or len(ns) != d:
        raise MaskFormatError(f"header {lines[0]!r} inconsistent with d = {d}")
    if min(ns) < 1:
        raise MaskFormatError(f"header {lines[0]!r} has a cell count below 1")
    # a 1D mask is the single row of an nx x 1 mask
    nx, ny = (*ns, 1)[:2]
    body = lines[1:]
    if len(body) != ny:
        raise MaskFormatError(
            f"expected {ny} rows, found {len(body)}" if d == 2 else "1D mask needs exactly one data row"
        )
    mask = np.empty((nx, ny), dtype=bool)
    for j, row in enumerate(body):
        if len(row) != nx or set(row) - {"0", "1"}:
            raise MaskFormatError(f"bad mask row {row!r}")
        mask[:, j] = np.frombuffer(row.encode(), dtype=np.uint8) == ord("1")
    return RasterMask(mask.reshape(ns), h)
