import math
import tracemalloc

import numpy as np
import pytest

from fracgap.geometry import (
    Ball,
    BallUnion,
    Box,
    MAX_LATTICE_CELLS,
    EmptyGridError,
    IntervalUnion,
    MaskFormatError,
    TOUCH_ULPS,
    RasterMask,
    contains,
    interval,
    load_mask,
    mask_from_predicate,
    rasterize,
    save_mask,
)


def test_rasterize_interval_exact_tiling():
    grid = rasterize(interval(-1.0, 1.0), 0.5)
    assert grid.n == 4
    xs = sorted(grid.centers[:, 0])
    assert xs == pytest.approx([-0.75, -0.25, 0.25, 0.75])
    assert grid.n * grid.h**grid.d == pytest.approx(2.0)


def test_rasterize_box_exact_tiling():
    grid = rasterize(Box((-1.0, -1.0), (1.0, 1.0)), 0.5)
    assert grid.n == 16
    assert grid.n * grid.h**grid.d == pytest.approx(4.0)


def test_rasterize_disk_volume_vs_enumeration():
    h = 0.1
    grid = rasterize(Ball((0.0, 0.0), 1.0), h)
    # independent enumeration of lattice centers inside the disk
    count = 0
    for i in range(grid.dims[0]):
        for j in range(grid.dims[1]):
            x = grid.origin[0] + (i + 0.5) * h
            y = grid.origin[1] + (j + 0.5) * h
            if x * x + y * y < 1.0:
                count += 1
    assert grid.n == count
    assert abs(grid.n * grid.h**grid.d - math.pi) <= 0.05 * math.pi


def test_disk_volume_convergence():
    errs = []
    for h in (0.2, 0.1, 0.05):
        grid = rasterize(Ball((0.0, 0.0), 1.0), h)
        err = abs(grid.n * grid.h**grid.d - math.pi)
        assert err <= 4.0 * (2.0 * math.pi) * h
        errs.append(err)
    assert errs[0] >= errs[1] >= errs[2]


def test_rasterize_preconditions():
    with pytest.raises(ValueError):
        rasterize(interval(-1.0, 1.0), 0.5001)  # not below diameter/4
    with pytest.raises(ValueError):
        rasterize(interval(-1.0, 1.0), -0.1)
    with pytest.raises(ValueError):
        rasterize(interval(-1.0, 1.0), float("nan"))


def test_rasterize_refuses_oversized_lattice_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lattice of"):
            rasterize(Ball((0.0, 0.0), 1.0), 1e-5)  # ~4e10 cells
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    core = MAX_LATTICE_CELLS - 4  # plus two padding cells per side: exactly at the cap
    assert rasterize(interval(0.0, 1.0), 1.0 / core).dims == (MAX_LATTICE_CELLS,)
    with pytest.raises(ValueError, match="lattice of"):
        rasterize(interval(0.0, 1.0), 1.0 / (core + 1))


def test_rasterize_empty_grid_error():
    # two tiny far-apart intervals: diameter is large but no cell center lands inside
    dom = IntervalUnion(((0.0, 0.02), (10.0, 10.02)))
    with pytest.raises(EmptyGridError):
        rasterize(dom, 1.0)


def test_grid_inside_centers_are_members():
    dom = Ball((0.3, -0.2), 0.9)
    grid = rasterize(dom, 0.07)
    assert contains(dom, grid.centers).all()
    # at least one padding layer of outside cells on every side
    assert grid.index.min() >= 1
    assert (grid.index.max(axis=0) <= np.asarray(grid.dims) - 2).all()


def test_diameter_exact_shapes():
    assert interval(-1.0, 1.0).diameter() == pytest.approx(2.0)
    assert Box((-1.0, -1.0), (1.0, 1.0)).diameter() == pytest.approx(2.0 * math.sqrt(2.0))
    two = BallUnion((Ball((-3.0, 0.0), 1.0), Ball((3.0, 0.0), 1.0)))
    assert two.diameter() == pytest.approx(8.0)
    assert Ball((0.5, -1.0), 2.0).diameter() == pytest.approx(4.0)


def test_inscribed_radius_exact_shapes():
    r, c = interval(-1.0, 1.0).inscribed_radius()
    assert r == pytest.approx(1.0) and c[0] == pytest.approx(0.0)
    r, c = Box((-1.0, -1.0), (1.0, 1.0)).inscribed_radius()
    assert r == pytest.approx(1.0) and np.allclose(c, 0.0)
    two = BallUnion((Ball((-4.0, 0.0), 1.0), Ball((4.0, 0.0), 1.0)))
    r, c = two.inscribed_radius()
    assert r == pytest.approx(1.0)
    assert abs(c[0]) == pytest.approx(4.0)


def lshape_mask(h: float):
    def pred(pts):
        in_box = np.all((pts > -1.0) & (pts < 1.0), axis=1)
        in_cut = (pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0)
        return in_box & ~in_cut

    return mask_from_predicate((-1.0, -1.0), (1.0, 1.0), h, pred)


def test_inscribed_ball_validity_on_raster():
    dom = lshape_mask(0.05)
    r, c = dom.inscribed_radius()
    assert r > 0.3  # the L has arms of width 1, so a decent ball must fit
    rng = np.random.default_rng(99)
    # rejection-sample 100 points in the returned ball, all must lie in the domain
    pts = []
    while len(pts) < 100:
        cand = c + rng.uniform(-r, r, size=(200, 2))
        cand = cand[np.sum((cand - c) ** 2, axis=1) < r * r]
        pts.extend(cand.tolist())
    pts = np.array(pts[:100])
    assert contains(dom, pts).all()


def test_raster_measurements_keep_memory_flat():
    r, c = lshape_mask(0.05).inscribed_radius()
    # the result of the one-shot (unblocked) computation, bit for bit
    assert r == 0.5750000000000001 and c.tolist() == [-0.42499999999999993] * 2
    dom = lshape_mask(0.025)  # 4800 inside cells, 1600 empty ones
    for measure in (dom.inscribed_radius, dom.diameter):
        tracemalloc.start()
        try:
            measure()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, measure.__name__


EVERY_KIND = [
    pytest.param(IntervalUnion(((-2.0, -0.5), (0.5, 1.0))), id="intervals-1d"),
    pytest.param(Ball((0.3, -0.2), 0.9), id="ball-2d"),
    pytest.param(Box((-1.0, 0.0), (2.0, 1.0)), id="box-2d"),
    pytest.param(BallUnion((Ball((-2.0, 0.0), 0.5), Ball((2.0, 0.0), 1.0))), id="balls-2d"),
    pytest.param(RasterMask(np.array([0, 1, 1, 0, 1, 1, 1, 0], dtype=bool), 0.25, (-1.0,)), id="mask-1d"),
    pytest.param(lshape_mask(0.25), id="mask-2d"),
]


@pytest.mark.parametrize("dom", EVERY_KIND)
def test_every_kind_carries_consistent_geometry(dom):
    grid = rasterize(dom, 0.05)
    assert dom.d == grid.d
    lo, hi = dom.bounding_box()
    assert np.all((grid.centers >= lo) & (grid.centers <= hi))
    assert contains(dom, grid.centers).all()
    r, c = dom.inscribed_radius()
    assert r > 0.0 and contains(dom, c).all()


def test_raster_diameter_is_conservative():
    dom = lshape_mask(0.05)
    # true diameter of the L-shape is the square's corner distance
    assert dom.diameter() >= 2.0 * math.sqrt(2.0) - 1e-9
    assert dom.diameter() <= 2.0 * math.sqrt(2.0) + 0.2


def test_mask_roundtrip_2d(tmp_path):
    dom = lshape_mask(0.25)
    path = tmp_path / "l.mask"
    save_mask(dom, path)
    back = load_mask(path)
    assert back.h == dom.h
    assert np.array_equal(back.mask, dom.mask)


def test_mask_roundtrip_1d(tmp_path):
    mask = np.array([False, True, True, False, True, False])
    from fracgap.geometry import RasterMask

    dom = RasterMask(mask, 0.5)
    path = tmp_path / "seg.mask"
    save_mask(dom, path)
    back = load_mask(path)
    assert np.array_equal(back.mask, mask)
    assert back.h == 0.5


def test_save_mask_writes_the_plain_text_format(tmp_path):
    path = tmp_path / "m.mask"
    # a 1D mask is the one row of the 2D format
    save_mask(RasterMask(np.array([False, True, True, False, True, False]), 0.5), path)
    assert path.read_text() == "1 0.5 6\n011010\n"
    # line j holds the cells whose second index is j
    mask = np.zeros((3, 2), dtype=bool)
    mask[0, 0] = mask[2, 0] = mask[1, 1] = True
    save_mask(RasterMask(mask, 0.1), path)
    assert path.read_text() == "2 0.1 3 2\n101\n010\n"


def test_mask_format_errors(tmp_path):
    bad = tmp_path / "bad.mask"
    bad.write_text("2 0.5 3 2\n111\n11\n")
    with pytest.raises(MaskFormatError):
        load_mask(bad)
    bad.write_text("nonsense\n")
    with pytest.raises(MaskFormatError):
        load_mask(bad)
    bad.write_text("1 0.5 3\n102\n")
    with pytest.raises(MaskFormatError):
        load_mask(bad)
    bad.write_text("2 0.1 -3 3\n111\n111\n111\n")
    with pytest.raises(MaskFormatError, match="cell count"):
        load_mask(bad)
    for h in ("nan", "inf"):
        bad.write_text(f"2 {h} 3 3\n111\n111\n111\n")
        with pytest.raises(ValueError, match="finite"):
            load_mask(bad)


def test_each_point_set_is_built_as_one_kind():
    # on the line every analytic set is an IntervalUnion; a union of balls has two or more
    for center in [(0.3,), (0.0, 0.0, 0.0)]:
        message = f"a Ball is planar, got {len(center)} center coordinates; on the line use IntervalUnion"
        with pytest.raises(ValueError, match=message):
            Ball(center, 1.0)
    for lo, hi in [((-1.0,), (0.5,)), ((-1.0, 0.0), (0.5,))]:
        message = f"a Box is planar, got corners of {len(lo)} and {len(hi)} coordinates; on the line use IntervalUnion"
        with pytest.raises(ValueError, match=message):
            Box(lo, hi)
    with pytest.raises(ValueError, match="a Ball is planar"):
        BallUnion((Ball((-2.0,), 0.5), Ball((2.0,), 1.0)))
    for balls in [(Ball((0.0, 0.0), 1.0),), ()]:
        message = f"a ball union needs at least two balls, got {len(balls)}; one ball is a Ball"
        with pytest.raises(ValueError, match=message):
            BallUnion(balls)
    two = BallUnion((Ball((-2.0, 0.0), 0.5), Ball((2.0, 0.0), 1.0)))
    assert Ball((0.0, 0.0), 1.0).d == Box((0.0, 0.0), (1.0, 1.0)).d == two.d == 2
    assert interval(-1.0, 1.0).d == 1


def test_domain_validation():
    with pytest.raises(ValueError):
        IntervalUnion(((0.0, 1.0), (0.5, 2.0)))  # overlap
    with pytest.raises(ValueError):
        IntervalUnion(((1.0, 0.0),))
    with pytest.raises(ValueError):
        Ball((0.0, 0.0), -1.0)
    for center in [(0.0, float("nan")), (float("inf"), 0.0), (float("-inf"), float("-inf"))]:
        with pytest.raises(ValueError, match="center coordinate .* must be finite"):
            Ball(center, 1.0)
    for piece in [(-1.0, 1.0, 2.0, 3.0), (0.0,), ()]:
        with pytest.raises(ValueError, match="interval piece .* needs 2 numbers"):
            IntervalUnion(((5.0, 6.0), piece))
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, -1.0))
    with pytest.raises(ValueError):
        BallUnion((Ball((0.0, 0.0), 1.0), Ball((1.5, 0.0), 1.0)))  # overlap
    for h in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            RasterMask(np.ones(3, dtype=bool), h)
    for origin in [(float("nan"),), (float("inf"),), (0.0, float("-inf"))]:
        with pytest.raises(ValueError, match="mask origin must be finite"):
            RasterMask(np.ones((3,) * len(origin), dtype=bool), 0.1, origin)

    def inside(pts):
        return np.ones(len(pts), dtype=bool)

    for h in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="mask spacing h must be positive and finite"):
            mask_from_predicate((0.0,), (1.0,), h, inside)
    for lo, hi in [((float("nan"),), (1.0,)), ((0.0,), (float("nan"),)), ((0.0, 0.0), (1.0, float("inf")))]:
        with pytest.raises(ValueError, match="mask corners lo = .* and hi = .* must be finite"):
            mask_from_predicate(lo, hi, 0.1, inside)
    # an empty box is refused before the predicate is sampled, naming both corners
    for lo, hi in [((1.0,), (0.0,)), ((0.0,), (0.0,)), ((0.0, 0.0), (1.0, -1.0))]:
        with pytest.raises(ValueError, match=r"mask corners lo = \(.*\) and hi = \(.*\) bound an empty box"):
            mask_from_predicate(lo, hi, 0.1, inside)
    # touching endpoints are disjoint as open sets, also when they meet only up to
    # rounding: TOUCH_ULPS ulps of the largest coordinate, here 0.5 or 0.3
    IntervalUnion(((-1.0, 0.0), (0.0, 1.0)))
    IntervalUnion(((-0.1, 0.1), (0.3 - 0.2, 0.5)))  # 0.3 - 0.2 < 0.1 by two ulps
    IntervalUnion(((-0.1, 0.1), (0.1 - TOUCH_ULPS * math.ulp(0.5), 0.5)))
    with pytest.raises(ValueError, match="intervals .* overlap"):
        IntervalUnion(((-0.1, 0.1), (0.1 - (TOUCH_ULPS + 1) * math.ulp(0.5), 0.5)))
    BallUnion((Ball((0.0, 0.0), 0.1), Ball((0.3, 0.0), 0.2)))  # 0.1 + 0.2 > 0.3 by one ulp
    with pytest.raises(ValueError, match="balls overlap"):
        BallUnion((Ball((0.0, 0.0), 0.1), Ball((0.25, 0.0), 0.2)))


def test_raster_contains_respects_cells():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 2] = True
    from fracgap.geometry import RasterMask

    dom = RasterMask(mask, 1.0, (0.0, 0.0))
    inside = contains(dom, np.array([[1.5, 2.5], [0.5, 0.5], [5.0, 5.0]]))
    assert inside.tolist() == [True, False, False]


def _all_pairs_diameter(dom: RasterMask) -> float:
    """The diameter as every pair of filled cells gives it (the reference)."""
    pts = dom._cell_centers()
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(d2.max())) + dom.h * math.sqrt(dom.d)


def test_raster_diameter_from_row_ends_is_the_all_pairs_value():
    masks = [lshape_mask(0.05), lshape_mask(0.25)]
    rng = np.random.default_rng(17)
    for _ in range(60):
        shape = tuple(int(m) for m in rng.integers(1, 25, size=rng.integers(1, 3)))
        mask = rng.random(shape) < rng.uniform(0.05, 0.9)
        mask.flat[rng.integers(mask.size)] = True  # at least one filled cell
        origin = tuple(rng.uniform(-3.0, 3.0, size=len(shape)))
        masks.append(RasterMask(mask, float(rng.uniform(0.01, 0.3)), origin))
    for dom in masks:
        assert dom.diameter() == _all_pairs_diameter(dom)


def _all_cells_dist_to_complement(dom: RasterMask, pts: np.ndarray) -> np.ndarray:
    """The distance to the complement as every empty cell gives it (the reference)."""
    o = np.asarray(dom.origin)
    hi = o + np.asarray(dom.mask.shape) * dom.h
    d_ext = np.min(np.minimum(pts - o, hi - pts), axis=1)
    cell_lo = o + np.argwhere(~dom.mask) * dom.h
    if len(cell_lo) == 0:
        return d_ext
    gap = np.maximum(np.maximum(cell_lo[None] - pts[:, None], pts[:, None] - (cell_lo + dom.h)[None]), 0.0)
    return np.minimum(d_ext, np.sqrt(np.sum(gap**2, axis=2)).min(axis=1))


def test_raster_distance_from_face_neighbours_is_the_all_cells_value():
    masks = [lshape_mask(0.05)]
    rng = np.random.default_rng(23)
    for _ in range(20):
        shape = tuple(int(m) for m in rng.integers(2, 30, size=2))
        mask = rng.random(shape) < rng.uniform(0.3, 0.95)
        mask.flat[rng.integers(mask.size)] = True  # at least one filled cell
        masks.append(RasterMask(mask, float(rng.uniform(0.01, 0.3)), tuple(rng.uniform(-3.0, 3.0, size=2))))
    for dom in masks:
        idx = np.argwhere(dom.mask)
        # the cell centers inscribed_radius uses, and points anywhere in the filled cells
        for pts in (dom._cell_centers(), np.asarray(dom.origin) + (idx + rng.random(idx.shape)) * dom.h):
            assert np.array_equal(dom._dist_to_complement(pts), _all_cells_dist_to_complement(dom, pts))
