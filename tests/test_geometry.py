import math
import warnings

import numpy as np
import pytest

from modelcg.geometry import (
    Box,
    ConstraintSet,
    L1Ball,
    L2Ball,
    NuclearBall,
    ProductSet,
    Simplex,
)
from modelcg.matfac import unit_atoms_set

from conftest import box_vertices, l1_vertices, simplex_vertices, sphere_points
from model_error import PowerGrowth


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------


def test_growth_closed_form_values():
    assert PowerGrowth(1.0, 1.0)(0.0) == 0.0
    assert PowerGrowth(2.0, 1.0)(3.0) == pytest.approx(9.0, abs=0)
    # independent evaluation: 1/(1+0.5) * 1^1.5
    assert PowerGrowth(1.0, 0.5)(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_growth_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PowerGrowth(0.0, 1.0)
    with pytest.raises(ValueError):
        PowerGrowth(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerGrowth(1.0, 1.5)
    with pytest.raises(ValueError):
        PowerGrowth(1.0, 1.0)(-0.1)


def test_growth_ratio_decreases_to_zero():
    omega = PowerGrowth(3.0, 0.75)
    ratios = [omega(10.0**-k) / 10.0**-k for k in range(1, 9)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-5


def test_growth_monotone_on_nonnegative_axis():
    omega = PowerGrowth(2.0, 0.5)
    t = np.linspace(0.0, 5.0, 400)
    vals = omega(t)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= 0)


# ---------------------------------------------------------------------------
# linear minimization oracles
# ---------------------------------------------------------------------------


def test_lmo_box_examples():
    np.testing.assert_allclose(
        Box(np.zeros(2), np.array([2.0, 5.0])).lmo(np.array([1.0, -1.0])), [0.0, 5.0]
    )
    # zero coefficients pick the lower corner
    np.testing.assert_allclose(Box(np.zeros(2), np.ones(2)).lmo(np.zeros(2)), [0.0, 0.0])
    # derived: enumerate all 8 vertices
    c = np.array([-3.0, 2.0, -1.0])
    lo, hi = -np.ones(3), np.ones(3)
    out = Box(lo, hi).lmo(c)
    best = min(box_vertices(lo, hi) @ c)
    assert c @ out == pytest.approx(best, abs=1e-12)
    np.testing.assert_allclose(out, [1.0, -1.0, 1.0])


def test_lmo_box_errors():
    with pytest.raises(ValueError):
        Box(np.zeros(3), np.ones(3)).lmo(np.zeros(2))
    with pytest.raises(ValueError):
        Box(np.zeros(3), np.ones(3)).lmo(np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        Box(np.ones(2), np.zeros(2))


def test_lmo_simplex_examples():
    s = Simplex(3)
    np.testing.assert_allclose(s.lmo(np.array([3.0, 1.0, 2.0])), [0, 1, 0])
    np.testing.assert_allclose(s.lmo(np.array([5.0, 5.0, 5.0])), [1, 0, 0])
    c = np.array([-1.0, 0.0, -1.0])
    out = s.lmo(c)
    assert c @ out == pytest.approx(min(simplex_vertices(3) @ c), abs=0)
    np.testing.assert_allclose(out, [1, 0, 0])  # lowest index on ties
    with pytest.raises(ValueError):
        s.lmo(np.array([]))


@pytest.mark.parametrize(
    "make", [lambda: Simplex(3), lambda: L1Ball(3, 1.0), lambda: L2Ball(3, 1.0),
             lambda: L2Ball(3, 1.0, mean_zero=True), lambda: Box(np.zeros(3), np.ones(3)),
             lambda: L2Ball(1, 1.0, count=3)],
    ids=["simplex", "l1", "l2", "l2_mean_zero", "box", "l2_stacked"],
)
@pytest.mark.parametrize("op", ["lmo", "project", "contains"])
@pytest.mark.parametrize("bad", [np.arange(5.0), np.ones(2), np.ones((3, 1)), np.array(1.0)],
                         ids=["longer", "shorter", "column", "scalar"])
def test_set_oracles_reject_inputs_of_the_wrong_length(make, op, bad):
    s = make()
    with pytest.raises(ValueError, match="shape"):
        getattr(s, op)(bad)
    out = getattr(s, op)(np.array([0.5, -0.25, 0.125]))
    assert np.shape(out) == (() if op == "contains" else (3,))


@pytest.mark.parametrize(
    "make", [lambda r: L1Ball(4, r), lambda r: L2Ball(4, r), lambda r: NuclearBall(2, 2, r)],
    ids=["l1", "l2", "nuclear"],
)
@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_balls_reject_a_radius_that_is_not_positive_and_finite(make, radius):
    # an infinite radius made a non-compact set, whose oracle returns inf
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        make(radius)
    assert make(2.5).radius == 2.5


def test_lmo_l1_examples():
    np.testing.assert_allclose(L1Ball(3, 1.0).lmo(np.array([1.0, -4.0, 2.0])), [0, 1, 0])
    np.testing.assert_allclose(L1Ball(3, 3.0).lmo(np.zeros(3)), np.zeros(3))
    c = np.array([2.0, -2.0])
    out = L1Ball(2, 2.0).lmo(c)
    assert c @ out == pytest.approx(min(l1_vertices(2, 2.0) @ c), abs=1e-12)
    np.testing.assert_allclose(out, [-2.0, 0.0])  # lowest index on magnitude ties


def test_lmo_l2_examples():
    np.testing.assert_allclose(L2Ball(2, 1.0).lmo(np.array([3.0, 4.0])), [-0.6, -0.8])
    np.testing.assert_allclose(
        L2Ball(2, 1.0, mean_zero=True).lmo(np.array([1.0, 1.0])), [0.0, 0.0]
    )
    c = np.array([1.0, 0.0, -1.0])
    out = L2Ball(3, 2.0, mean_zero=True).lmo(c)
    np.testing.assert_allclose(out, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)
    # projected-gradient oracle over the sphere intersected with mean-zero
    x = np.array([0.3, -0.2, 0.1])
    for _ in range(4000):
        x = x - 0.05 * c
        x -= x.mean()
        n = np.linalg.norm(x)
        if n > 2.0:
            x *= 2.0 / n
    assert c @ out <= c @ x + 1e-9


def test_lmo_nuclear_examples():
    out = NuclearBall(2, 2, 1.0).lmo(np.diag([5.0, 1.0]).ravel())
    np.testing.assert_allclose(out, [-1.0, 0.0, 0.0, 0.0], atol=1e-9)
    with pytest.raises(ValueError):
        NuclearBall(2, 2, 1.0).lmo(np.array([1.0, np.inf, 0.0, 0.0]))
    rng = np.random.default_rng(5)
    G = rng.standard_normal((5, 4))
    out = NuclearBall(5, 4, 2.0).lmo(G.ravel()).reshape(5, 4)
    U, s, Vt = np.linalg.svd(G)
    oracle = -2.0 * np.outer(U[:, 0], Vt[0])
    assert np.tensordot(G, out) == pytest.approx(np.tensordot(G, oracle), abs=1e-8)
    assert np.tensordot(G, out) == pytest.approx(-2.0 * s[0], abs=1e-8)


def test_lmo_nuclear_nearly_degenerate_top_pair():
    # nearly degenerate top singular pair: relative spectral gap 1e-6
    s = NuclearBall(3, 3, 2.0)
    c = np.diag([1.0, 1.0 - 1e-6, 0.5]).ravel()
    out = s.lmo(c)
    assert s.contains(out, 1e-9)
    assert c @ out == pytest.approx(-2.0, abs=1e-12)


def test_lmo_product_blocks():
    box1 = Box(np.zeros(2), np.array([2.0, 5.0]))
    box2 = Box(-np.ones(2), np.ones(2))
    prod = ProductSet([box1, box2])
    c = np.array([1.0, -1.0, -3.0, 2.0])
    out = prod.lmo(c)
    np.testing.assert_allclose(out[:2], box1.lmo(c[:2]))
    np.testing.assert_allclose(out[2:], box2.lmo(c[2:]))

    # per-block enumeration; ties may pick a different optimal vertex, so the
    # check is on the objective value
    prod2 = ProductSet([Simplex(2), L1Ball(2, 1.0)])
    c2 = np.array([2.0, 1.0, 3.0, -3.0])
    out2 = prod2.lmo(c2)
    verts = [
        np.concatenate([v, w])
        for v in simplex_vertices(2)
        for w in l1_vertices(2, 1.0)
    ]
    best = min(np.array(verts) @ c2)
    assert c2 @ out2 == pytest.approx(best, abs=1e-12)
    np.testing.assert_allclose(out2[:2], [0.0, 1.0])

    single = ProductSet([box1])
    np.testing.assert_allclose(single.lmo(c[:2]), box1.lmo(c[:2]))

    with pytest.raises(ValueError):
        prod.lmo(np.zeros(3))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_box_and_simplex_examples():
    np.testing.assert_allclose(
        Box(np.zeros(2), np.full(2, 5.0)).project(np.array([-1.0, 7.0])), [0.0, 5.0]
    )
    np.testing.assert_allclose(Simplex(2).project(np.array([1.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(Simplex(2).project(np.array([0.6, 0.6])), [0.5, 0.5])
    # fine-grid search confirms the hand KKT value
    t = np.linspace(0, 1, 2001)
    pts = np.stack([t, 1 - t], axis=1)
    d = ((pts - np.array([0.6, 0.6])) ** 2).sum(axis=1)
    np.testing.assert_allclose(pts[np.argmin(d)], [0.5, 0.5], atol=1e-3)


def test_projection_idempotence(rng):
    sets = [
        Box(-np.ones(4), np.arange(1.0, 5.0)),
        Simplex(5),
        L1Ball(4, 2.5),
        L2Ball(4, 1.5),
        L2Ball(4, 1.5, mean_zero=True),
        NuclearBall(3, 2, 2.0),
        ProductSet([Box(np.zeros(2), np.ones(2)), Simplex(3)]),
    ]
    for s in sets:
        for _ in range(20):
            x = 3.0 * rng.standard_normal(s.dim)
            p = s.project(x)
            assert s.contains(p, 1e-7), type(s).__name__
            np.testing.assert_allclose(s.project(p), p, atol=1e-12)


def test_project_l1_ball_against_dense_sampling():
    x = np.array([1.3, -0.4])
    p = L1Ball(2, 1.0).project(x)
    g = np.random.default_rng(0).uniform(-1, 1, size=(20000, 2))
    g = g[np.abs(g).sum(axis=1) <= 1.0]
    assert np.linalg.norm(x - p) <= np.linalg.norm(x - g, axis=1).min() + 1e-6
    assert np.abs(p).sum() <= 1.0 + 1e-12


def test_lmo_membership_and_optimality_over_enumeration(rng):
    cases = [
        (Box(-np.ones(4), np.ones(4)), box_vertices(-np.ones(4), np.ones(4))),
        (Simplex(5), simplex_vertices(5)),
        (L1Ball(4, 2.0), l1_vertices(4, 2.0)),
        (L2Ball(4, 1.5), sphere_points(4, 1.5)),
        (L2Ball(4, 1.5, mean_zero=True), sphere_points(4, 1.5, mean_zero=True)),
    ]
    for s, verts in cases:
        for _ in range(25):
            c = rng.standard_normal(s.dim)
            out = s.lmo(c)
            assert s.contains(out, 1e-9), type(s).__name__
            assert c @ out <= (verts @ c).min() + 1e-9, type(s).__name__


def test_ball_lmo_zero_cost_returns_origin():
    for s in (L1Ball(3, 2.0), L2Ball(3, 2.0), NuclearBall(2, 3, 1.0)):
        np.testing.assert_allclose(s.lmo(np.zeros(s.dim)), np.zeros(s.dim))


def test_nuclear_ball_lmo_matches_svd(rng):
    s = NuclearBall(4, 3, 1.5)
    for _ in range(10):
        c = rng.standard_normal(s.dim)
        out = s.lmo(c)
        assert s.contains(out, 1e-8)
        G = c.reshape(4, 3)
        sv = np.linalg.svd(G, compute_uv=False)
        assert c @ out == pytest.approx(-1.5 * sv[0], abs=1e-8 * (1 + sv[0]))


class _ColumnL2Ball(ConstraintSet):
    """One l2 ball computed on a lone vector with vector reductions: the
    reference the stacked ball must match bit for bit."""

    def __init__(self, dim, radius, mean_zero):
        self.dim, self.radius, self.mean_zero = dim, radius, mean_zero

    def contains(self, x, tol=1e-9):
        pad = tol * (1.0 + self.radius)
        if self.mean_zero and abs(float(x.mean())) > pad:
            return False
        return float(np.linalg.norm(x)) <= self.radius + pad

    def lmo(self, c):
        ct = c - c.mean() if self.mean_zero else c
        nrm = float(np.linalg.norm(ct))
        if nrm == 0.0:
            return np.zeros_like(c)
        return (-self.radius / nrm) * ct

    def project(self, x):
        y = x - x.mean() if self.mean_zero else x
        nrm = float(np.linalg.norm(y))
        return y * (self.radius / nrm) if nrm > self.radius else y

    def sample(self, rng):
        g = rng.standard_normal(self.dim)
        if self.mean_zero:
            g = g - g.mean()
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            return np.zeros(self.dim)
        free = self.dim - 1 if self.mean_zero else self.dim
        return (self.radius * rng.random() ** (1.0 / max(free, 1)) / nrm) * g


def _stacked_cases(seed):
    """(dim, count, mean_zero, radius, matrix of block columns): scales from
    1e-8 to 1e8 per column, zero and signed-zero columns, constant columns
    (zero after the mean is removed) and columns on the sphere."""
    rng = np.random.default_rng(seed)
    for dim, count in [(1, 3), (2, 4), (7, 5), (400, 9)]:
        for mean_zero in (False, True):
            radius = float(rng.uniform(0.5, 3.0))
            M = rng.standard_normal((count, dim)) * 10.0 ** rng.integers(-8, 9, size=(count, 1))
            M[0] = 0.0
            M[-1] = -0.0
            if count > 3:
                M[1] = 2.5
                M[2] *= radius / np.linalg.norm(M[2])
            yield dim, count, mean_zero, radius, M


def test_stacked_l2_ball_matches_a_product_of_single_balls_bit_for_bit():
    for dim, count, mean_zero, radius, M in _stacked_cases(3):
        stacked = L2Ball(dim, radius, mean_zero=mean_zero, count=count)
        columns = ProductSet([_ColumnL2Ball(dim, radius, mean_zero) for _ in range(count)])
        assert stacked.dim == columns.dim == dim * count
        for x in (M.ravel(), 1e-3 * M.ravel(), np.concatenate(M[::-1])):
            for op in ("lmo", "project"):
                got, want = getattr(stacked, op)(x), getattr(columns, op)(x)
                assert got.tobytes() == want.tobytes(), (dim, count, mean_zero, op)
            for tol in (1e-9, 0.0):
                assert stacked.contains(x, tol) == columns.contains(x, tol)
            p = columns.project(x)
            assert stacked.contains(p) == columns.contains(p)
        mine, ref = np.random.default_rng(count), np.random.default_rng(count)
        assert stacked.sample(mine).tobytes() == columns.sample(ref).tobytes()
        assert mine.random() == ref.random()  # the stream continues in step


def test_unit_atoms_set_matches_per_column_balls_bit_for_bit(rng):
    rows, cols = 12, 6
    s = unit_atoms_set(rows, cols)
    ref = ProductSet([_ColumnL2Ball(rows, 1.0, j > 0) for j in range(cols)])
    for scale in (1e-8, 1.0, 1e8):
        x = scale * rng.standard_normal(s.dim)
        x[rows : 2 * rows] = 0.0
        assert s.lmo(x).tobytes() == ref.lmo(x).tobytes()
        assert s.project(x).tobytes() == ref.project(x).tobytes()
        assert s.contains(x) == ref.contains(x)
        p = ref.project(x)
        assert s.contains(p) and ref.contains(p)
    assert s.sample(np.random.default_rng(4)).tobytes() == ref.sample(
        np.random.default_rng(4)).tobytes()
    assert unit_atoms_set(rows, 1).dim == rows


def test_stacked_l2_ball_rejects_an_empty_stack():
    with pytest.raises(ValueError, match="count must be an integer >= 1"):
        L2Ball(3, 1.0, count=0)


def test_l2_ball_oracles_take_costs_whose_squares_leave_the_float_range():
    ball = L2Ball(3, 1.0)
    for c in ([1e-170, 0.0, 0.0], [1e200, 0.0, 0.0], [5e-324, 0.0, 0.0], [1.7e308, 0.0, 0.0]):
        assert ball.lmo(c).tolist() == [-1.0, 0.0, 0.0], c
    assert ball.project([1e200, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0]
    assert ball.project([1e-170, 0.0, 0.0]).tolist() == [1e-170, 0.0, 0.0]
    np.testing.assert_allclose(ball.project([1.7e308, -1.7e308, 0.0]),
                               [math.sqrt(0.5), -math.sqrt(0.5), 0.0], rtol=1e-15)
    assert not ball.contains([1e200, 0.0, 0.0]) and ball.contains([1e-170, 0.0, 0.0])
    assert not ball.contains([1.7e308, 1.7e308, 0.0])
    stacked = L2Ball(2, 2.0, mean_zero=True, count=3)
    x = [0.0, 0.0, 3e-170, -3e-170, -3e200, 3e200]
    r = math.sqrt(2.0)
    np.testing.assert_allclose(stacked.lmo(x), [0.0, 0.0, -r, r, r, -r], rtol=1e-15)
    np.testing.assert_allclose(stacked.project(x), [0.0, 0.0, 3e-170, -3e-170, -r, r],
                               rtol=1e-15)


def test_mean_zero_l2_ball_takes_entries_whose_sum_leaves_the_float_range():
    ball, c = L2Ball(2, 1.0, mean_zero=True), [1e308, 1.5e308]
    r = math.sqrt(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(ball.lmo(c), [r, -r], rtol=1e-15)
        np.testing.assert_allclose(ball.project(c), [-r, r], rtol=1e-15)
        assert not ball.contains(c)


def test_l2_ball_lmo_keeps_the_signed_zeros_of_a_block_with_a_norm():
    # -r/||c|| * c as for a vector: a +0.0 cost entry gives -0.0, and the
    # all-zero block (mean-zero, so constant) gives +0.0 throughout
    ball = L2Ball(3, 2.0, mean_zero=True, count=2)
    out = ball.lmo([1.0, -1.0, 0.0, -0.0, -0.0, -0.0])
    scale = -2.0 / math.sqrt(2.0)
    assert out.tobytes() == np.array([scale, -scale, -0.0, 0.0, 0.0, 0.0]).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("op", ["lmo", "project"])
def test_l2_ball_oracles_reject_non_finite_entries(op, bad):
    for ball in (L2Ball(3, 1.0), L2Ball(3, 1.0, mean_zero=True, count=2)):
        x = np.ones(ball.dim)
        x[-2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            getattr(ball, op)(x)


def _unscaled_l2_oracles(dim, count, mean_zero, radius, x):
    # lmo and project of a stacked l2 ball with norms taken straight from
    # the squares, without scaling the rows first
    rows = x.reshape(count, dim)
    if mean_zero:
        rows = rows - np.add.reduce(rows, axis=1, keepdims=True) / dim
    nrm = np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, :, 0]
    out = np.divide(-radius, nrm, out=np.zeros_like(nrm), where=nrm > 0.0) * rows
    out[nrm[:, 0] == 0.0] = 0.0
    scale = np.divide(radius, nrm, out=np.ones_like(nrm), where=nrm > radius)
    return out.ravel(), (scale * rows).ravel()


def test_l2_ball_scaling_keeps_the_bits_of_the_unscaled_norms_in_range():
    rng = np.random.default_rng(21)
    for _ in range(400):
        dim, count = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        mean_zero = bool(rng.integers(2))
        radius = float(10.0 ** rng.uniform(-3, 3))
        M = rng.standard_normal((count, dim)) * 10.0 ** rng.uniform(-100, 100, size=(count, 1))
        if rng.random() < 0.2:
            M[int(rng.integers(count))] = 0.0
        if rng.random() < 0.2:
            M[:, 0] = -0.0
        ball, x = L2Ball(dim, radius, mean_zero=mean_zero, count=count), M.ravel()
        lmo, proj = _unscaled_l2_oracles(dim, count, mean_zero, radius, x)
        assert ball.lmo(x).tobytes() == lmo.tobytes()
        assert ball.project(x).tobytes() == proj.tobytes()


def _nuclear_cases():
    rng = np.random.default_rng(8)
    u, v = rng.standard_normal(6), rng.standard_normal(9)
    Q1, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    Q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    close = Q1[:, :5] @ np.diag([1.0, 1.0 - 1e-13, 0.7, 0.2, 0.0]) @ Q2.T
    return {
        "wide": rng.standard_normal((10, 300)),
        "tall": rng.standard_normal((40, 6)),
        "square": rng.standard_normal((5, 5)),
        "row": rng.standard_normal((1, 8)),
        "column": rng.standard_normal((8, 1)),
        "rank_one": np.outer(u, v),
        "rank_deficient": rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9)),
        "near_degenerate": close,
        "near_degenerate_wide": close.T,
        "one_entry": np.eye(4, 6) * np.array([0.0, 0.0, 3.0, 0.0])[:, None],
    }


@pytest.mark.parametrize("case", list(_nuclear_cases()))
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_nuclear_lmo_attains_the_top_singular_value(case, scale):
    G = scale * _nuclear_cases()[case]
    s = NuclearBall(*G.shape, 2.5)
    out = s.lmo(G.ravel())
    sigma = np.linalg.svd(G, compute_uv=False)[0]
    assert float(np.vdot(G.ravel(), out)) == pytest.approx(-2.5 * sigma, rel=1e-12)
    assert s.contains(out, 1e-12)
    assert np.linalg.matrix_rank(out.reshape(G.shape)) == 1


def test_nuclear_lmo_zero_cost_returns_origin():
    for shape in [(3, 5), (5, 3), (1, 1)]:
        out = NuclearBall(*shape, 2.0).lmo(-np.zeros(shape[0] * shape[1]))
        assert out.tobytes() == np.zeros(shape[0] * shape[1]).tobytes()


def test_nuclear_project_keeps_inside_points_and_thresholds_outside_ones(rng):
    s = NuclearBall(4, 7, 3.0)
    for _ in range(10):
        G = rng.standard_normal((4, 7))
        nuc = float(np.linalg.svd(G, compute_uv=False).sum())
        inside = (2.9 / nuc) * G.ravel()
        p = s.project(inside)
        assert p.tobytes() == inside.tobytes() and p is not inside
        U, sv, Vt = np.linalg.svd(G, full_matrices=False)
        # the simplex projection of sv at the radius, by bisection on the shift
        lo, hi = 0.0, float(sv[0])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.maximum(sv - mid, 0.0).sum() > 3.0 else (lo, mid)
        want = ((U * np.maximum(sv - lo, 0.0)) @ Vt).ravel()
        np.testing.assert_allclose(s.project(G.ravel()), want, rtol=0, atol=1e-12)
        assert np.linalg.svd(s.project(G.ravel()).reshape(4, 7),
                             compute_uv=False).sum() == pytest.approx(3.0, rel=1e-12)


def _svd_calls(monkeypatch, fail=False):
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        if fail:
            raise AssertionError("the projection took an SVD")
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_nuclear_project_keeps_an_interior_point_without_an_svd(monkeypatch, rng):
    s = NuclearBall(10, 300, 1.0)
    G = rng.standard_normal(s.dim)
    x = (0.99 / (math.sqrt(10) * np.linalg.norm(G))) * G  # within the Frobenius bound
    _svd_calls(monkeypatch, fail=True)
    p = s.project(x)
    assert p.tobytes() == x.tobytes() and not np.shares_memory(p, x)


def test_nuclear_project_bound_rejects_squares_that_underflow():
    # 1e-170 squared is 0.0, but the point lies outside a 1e-175 ball
    p = NuclearBall(2, 2, 1e-175).project([1e-170, 0.0, 0.0, 0.0])
    assert p.tolist() == pytest.approx([1e-175, 0.0, 0.0, 0.0], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("s, x, expected", [
    (NuclearBall(2, 2, 1e-300), [1e-170, 0.0, 0.0, 0.0], [1e-300, 0.0, 0.0, 0.0]),
    (L1Ball(2, 1e-300), [1e-170, 0.0], [1e-300, 0.0]),
    (L1Ball(2, 1e-300), [0.0, -1e-170], [0.0, -1e-300]),
    (Simplex(2), [1e20, 0.0], [1.0, 0.0]),
], ids=["nuclear", "l1", "l1_negative", "simplex"])
def test_projections_take_a_radius_below_the_rounding_of_the_largest_entry(s, x, expected):
    # largest entry - radius rounds back to the largest entry, so the
    # threshold test passes no index
    p = s.project(x)
    assert s.contains(p)
    assert np.abs(p).tolist() == pytest.approx(np.abs(expected).tolist(), rel=1e-9, abs=0.0)
    assert np.sign(p).tolist() == np.sign(expected).tolist()


def test_nuclear_project_bound_rejects_its_equality_case(monkeypatch):
    # equal singular values make sqrt(rank) ||X||_F the nuclear norm, so a
    # radius just below it leaves the point outside: one thin SVD projects it
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((7, 4)))
    X = 0.5 * Q.T  # 4 x 7 with four singular values 0.5
    s = NuclearBall(4, 7, np.nextafter(2.0, 0.0))
    flat = X.ravel()
    assert math.sqrt(4 * float(flat @ flat)) <= s.radius  # rounding, which the margin covers
    calls = _svd_calls(monkeypatch)
    p = s.project(X.ravel())
    assert calls == [{"full_matrices": False}]
    sv = np.linalg.svd(p.reshape(4, 7), compute_uv=False)
    assert sv.sum() == pytest.approx(s.radius, rel=1e-14)
    assert p.tobytes() != X.ravel().tobytes()
