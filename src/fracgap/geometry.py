"""Bounded open domains in R^1 and R^2, and their rasterization onto uniform grids.

Domains are small frozen descriptions (interval unions, balls, boxes, ball
unions, raster masks). A Grid is an axis-aligned lattice of cell centers with
an inside mask; a cell is inside exactly when its center lies in the domain.
Geometric measurements on raster masks are deliberately conservative: the
diameter is padded so downstream lower bounds can only weaken, and the
inscribed ball is valid but not necessarily maximal.
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
    "dimension",
    "bounding_box",
    "contains",
    "diameter",
    "inscribed_radius",
    "dilate",
    "rasterize",
    "mask_from_predicate",
    "load_mask",
    "save_mask",
]

# lattice box cells (inside and outside) that rasterize may allocate; checked
# before any per-cell array exists
MAX_LATTICE_CELLS = 2**20


class EmptyGridError(ValueError):
    """Raised when rasterization produces fewer than two inside cells."""


class MaskFormatError(ValueError):
    """Raised when a mask file does not follow the plain-text format."""


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint union of open intervals (a, b) on the line."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("interval union must be nonempty")
        for a, b in self.intervals:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"invalid interval ({a}, {b})")
        ordered = sorted(self.intervals)
        for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
            if a2 < b1:
                raise ValueError(f"intervals ({a1}, {b1}) and ({a2}, {b2}) overlap")


@dataclass(frozen=True)
class Ball:
    """Open ball with the given center and radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0 or not math.isfinite(self.radius):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if len(self.center) not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box (lo_1, hi_1) x ... x (lo_d, hi_d)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or len(self.lo) not in (1, 2):
            raise ValueError("box corners must match and have dimension 1 or 2")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"invalid box edge ({a}, {b})")


@dataclass(frozen=True)
class BallUnion:
    """Disjoint union of open balls."""

    balls: tuple[Ball, ...]

    def __post_init__(self) -> None:
        if not self.balls:
            raise ValueError("ball union must be nonempty")
        dims = {len(b.center) for b in self.balls}
        if len(dims) != 1:
            raise ValueError("all balls must share one dimension")
        for i, bi in enumerate(self.balls):
            for bj in self.balls[i + 1 :]:
                dist = math.dist(bi.center, bj.center)
                if dist < bi.radius + bj.radius:
                    raise ValueError("balls overlap")


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
        if self.h <= 0.0:
            raise ValueError("mask spacing must be positive")
        object.__setattr__(self, "mask", m)
        origin = self.origin if self.origin else (0.0,) * m.ndim
        if len(origin) != m.ndim:
            raise ValueError("origin dimension does not match mask")
        object.__setattr__(self, "origin", tuple(float(c) for c in origin))


Domain = Union[IntervalUnion, Ball, Box, BallUnion, RasterMask]


def interval(a: float, b: float) -> IntervalUnion:
    """Single open interval (a, b)."""
    return IntervalUnion(((a, b),))


def dimension(dom: Domain) -> int:
    if isinstance(dom, IntervalUnion):
        return 1
    if isinstance(dom, Ball):
        return len(dom.center)
    if isinstance(dom, Box):
        return len(dom.lo)
    if isinstance(dom, BallUnion):
        return len(dom.balls[0].center)
    if isinstance(dom, RasterMask):
        return dom.mask.ndim
    raise TypeError(f"not a domain: {dom!r}")


def _raster_cell_centers(dom: RasterMask) -> np.ndarray:
    idx = np.argwhere(dom.mask).astype(float)
    return np.asarray(dom.origin) + (idx + 0.5) * dom.h


def bounding_box(dom: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Tight axis-aligned bounding box (lo, hi) of the closure of the domain."""
    if isinstance(dom, IntervalUnion):
        return (
            np.array([min(a for a, _ in dom.intervals)]),
            np.array([max(b for _, b in dom.intervals)]),
        )
    if isinstance(dom, Ball):
        c = np.asarray(dom.center, dtype=float)
        return c - dom.radius, c + dom.radius
    if isinstance(dom, Box):
        return np.asarray(dom.lo, dtype=float), np.asarray(dom.hi, dtype=float)
    if isinstance(dom, BallUnion):
        los, his = zip(*(bounding_box(b) for b in dom.balls))
        return np.min(los, axis=0), np.max(his, axis=0)
    if isinstance(dom, RasterMask):
        idx = np.argwhere(dom.mask)
        o = np.asarray(dom.origin)
        return o + idx.min(axis=0) * dom.h, o + (idx.max(axis=0) + 1) * dom.h
    raise TypeError(f"not a domain: {dom!r}")


def contains(dom: Domain, pts: np.ndarray) -> np.ndarray:
    """Membership of points in the open domain; pts has shape (m, d)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(dom, IntervalUnion):
        x = pts[:, 0]
        out = np.zeros(len(x), dtype=bool)
        for a, b in dom.intervals:
            out |= (x > a) & (x < b)
        return out
    if isinstance(dom, Ball):
        c = np.asarray(dom.center)
        return np.sum((pts - c) ** 2, axis=1) < dom.radius**2
    if isinstance(dom, Box):
        lo = np.asarray(dom.lo)
        hi = np.asarray(dom.hi)
        return np.all((pts > lo) & (pts < hi), axis=1)
    if isinstance(dom, BallUnion):
        out = np.zeros(len(pts), dtype=bool)
        for b in dom.balls:
            out |= contains(b, pts)
        return out
    if isinstance(dom, RasterMask):
        idx = np.floor((pts - np.asarray(dom.origin)) / dom.h).astype(int)
        shape = np.asarray(dom.mask.shape)
        ok = np.all((idx >= 0) & (idx < shape), axis=1)
        out = np.zeros(len(pts), dtype=bool)
        if ok.any():
            sel = idx[ok]
            out[ok] = dom.mask[tuple(sel.T)]
        return out
    raise TypeError(f"not a domain: {dom!r}")


def diameter(dom: Domain) -> float:
    """Supremum of pairwise distances; exact for analytic shapes.

    For raster masks: the maximal cell-center distance padded by h*sqrt(d),
    an upper bound, so a gap lower bound computed from it stays valid.
    """
    if isinstance(dom, IntervalUnion):
        return max(b for _, b in dom.intervals) - min(a for a, _ in dom.intervals)
    if isinstance(dom, Ball):
        return 2.0 * dom.radius
    if isinstance(dom, Box):
        return math.dist(dom.lo, dom.hi)
    if isinstance(dom, BallUnion):
        best = max(2.0 * b.radius for b in dom.balls)
        for i, bi in enumerate(dom.balls):
            for bj in dom.balls[i + 1 :]:
                best = max(best, math.dist(bi.center, bj.center) + bi.radius + bj.radius)
        return best
    if isinstance(dom, RasterMask):
        pts = _raster_cell_centers(dom)
        d = dom.mask.ndim
        best = 0.0
        # chunked pairwise max to keep memory flat on large masks
        for start in range(0, len(pts), 1024):
            blk = pts[start : start + 1024]
            d2 = np.sum((blk[:, None, :] - pts[None, :, :]) ** 2, axis=2)
            best = max(best, float(np.sqrt(d2.max())))
        return best + dom.h * math.sqrt(d)
    raise TypeError(f"not a domain: {dom!r}")


def _dist_to_raster_complement(dom: RasterMask, pts: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the complement of the cell union."""
    o = np.asarray(dom.origin)
    empty_idx = np.argwhere(~dom.mask)
    # distance to the outside of the mask extent
    lo = o
    hi = o + np.asarray(dom.mask.shape) * dom.h
    d_ext = np.min(np.minimum(pts - lo, hi - pts), axis=1)
    if len(empty_idx) == 0:
        return d_ext
    cell_lo = o + empty_idx * dom.h
    cell_hi = cell_lo + dom.h
    # point-to-box distance, vectorized over (points, empty cells)
    gap_lo = cell_lo[None, :, :] - pts[:, None, :]
    gap_hi = pts[:, None, :] - cell_hi[None, :, :]
    gap = np.maximum(np.maximum(gap_lo, gap_hi), 0.0)
    d_cells = np.sqrt(np.sum(gap**2, axis=2)).min(axis=1)
    return np.minimum(d_ext, d_cells)


def inscribed_radius(dom: Domain) -> tuple[float, np.ndarray]:
    """Radius and center of a ball contained in the domain.

    Exact (maximal) for analytic shapes. For raster masks the center is
    chosen among inside cell centers by maximizing the exact distance to
    the complement, which yields a valid, not necessarily maximal, ball.
    """
    if isinstance(dom, IntervalUnion):
        a, b = max(dom.intervals, key=lambda ab: ab[1] - ab[0])
        return (b - a) / 2.0, np.array([(a + b) / 2.0])
    if isinstance(dom, Ball):
        return dom.radius, np.asarray(dom.center, dtype=float)
    if isinstance(dom, Box):
        lo = np.asarray(dom.lo)
        hi = np.asarray(dom.hi)
        return float(np.min(hi - lo)) / 2.0, (lo + hi) / 2.0
    if isinstance(dom, BallUnion):
        b = max(dom.balls, key=lambda bb: bb.radius)
        return b.radius, np.asarray(b.center, dtype=float)
    if isinstance(dom, RasterMask):
        pts = _raster_cell_centers(dom)
        dist = _dist_to_raster_complement(dom, pts)
        k = int(np.argmax(dist))
        return float(dist[k]), pts[k]
    raise TypeError(f"not a domain: {dom!r}")


def dilate(dom: Domain, r: float) -> Domain:
    """Scale all coordinates of the domain by r > 0."""
    if r <= 0.0:
        raise ValueError("dilation factor must be positive")
    if isinstance(dom, IntervalUnion):
        return IntervalUnion(tuple((a * r, b * r) for a, b in dom.intervals))
    if isinstance(dom, Ball):
        return Ball(tuple(c * r for c in dom.center), dom.radius * r)
    if isinstance(dom, Box):
        return Box(tuple(c * r for c in dom.lo), tuple(c * r for c in dom.hi))
    if isinstance(dom, BallUnion):
        return BallUnion(tuple(dilate(b, r) for b in dom.balls))
    if isinstance(dom, RasterMask):
        return RasterMask(dom.mask, dom.h * r, tuple(c * r for c in dom.origin))
    raise TypeError(f"not a domain: {dom!r}")


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

    @property
    def volume(self) -> float:
        return self.n * self.h**self.d

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounding box of the full lattice (inside and outside cells)."""
        return self.origin, self.origin + np.asarray(self.dims) * self.h


def rasterize(dom: Domain, h: float, pad_cells: int = 2) -> Grid:
    """Lay a uniform grid over the domain; a cell is inside iff its center is.

    The lattice covers the domain's bounding box plus pad_cells extra layers
    of outside cells on every side. The grid origin is bbox_lo minus the
    padding, so domains whose boundaries align with multiples of h tile
    exactly.
    """
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError("h must be positive and finite")
    diam = diameter(dom)
    if h > diam / 4.0:
        raise ValueError(f"h = {h} too coarse for a domain of diameter {diam}")
    if pad_cells < 1:
        raise ValueError("need at least one layer of outside cells")
    lo, hi = bounding_box(dom)
    ncore = np.ceil((hi - lo) / h - 1e-9)
    cells = math.prod(float(n) + 2 * pad_cells for n in ncore)
    if cells > MAX_LATTICE_CELLS:
        raise ValueError(
            f"h = {h} needs a lattice of {cells:.3g} cells, more than {MAX_LATTICE_CELLS}; "
            "choose a coarser h"
        )
    dims = tuple(int(n) + 2 * pad_cells for n in ncore)
    origin = lo - pad_cells * h
    axes = [origin[k] + (np.arange(dims[k]) + 0.5) * h for k in range(len(dims))]
    if len(dims) == 1:
        pts = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    inside = contains(dom, pts).reshape(dims)
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
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dims = np.ceil((hi - lo) / h - 1e-9).astype(int)
    axes = [lo[k] + (np.arange(dims[k]) + 0.5) * h for k in range(len(dims))]
    if len(dims) == 1:
        pts = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    mask = np.asarray(predicate(pts), dtype=bool).reshape(tuple(dims))
    return RasterMask(mask, h, tuple(lo))


def save_mask(dom: RasterMask, path) -> None:
    """Write a mask in the plain-text format: 'd h nx [ny]' then 0/1 rows.

    For 2D masks, line j holds row j (the second lattice axis), one
    character per cell along the first axis.
    """
    m = dom.mask
    with open(path, "w") as fh:
        if m.ndim == 1:
            fh.write(f"1 {dom.h!r} {m.shape[0]}\n")
            fh.write("".join("1" if v else "0" for v in m) + "\n")
        else:
            nx, ny = m.shape
            fh.write(f"2 {dom.h!r} {nx} {ny}\n")
            for j in range(ny):
                fh.write("".join("1" if v else "0" for v in m[:, j]) + "\n")


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
    body = lines[1:]

    def parse_row(row: str, width: int) -> np.ndarray:
        if len(row) != width or set(row) - {"0", "1"}:
            raise MaskFormatError(f"bad mask row {row!r}")
        return np.frombuffer(row.encode(), dtype=np.uint8) == ord("1")

    if d == 1:
        if len(body) != 1:
            raise MaskFormatError("1D mask needs exactly one data row")
        return RasterMask(parse_row(body[0], ns[0]), h)
    nx, ny = ns
    if len(body) != ny:
        raise MaskFormatError(f"expected {ny} rows, found {len(body)}")
    mask = np.empty((nx, ny), dtype=bool)
    for j, row in enumerate(body):
        mask[:, j] = parse_row(row, nx)
    return RasterMask(mask, h)
