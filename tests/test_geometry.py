import math

import numpy as np
import pytest

from modelcg.geometry import (
    Box,
    L1Ball,
    L2Ball,
    NuclearBall,
    PowerGrowth,
    ProductSet,
    Simplex,
    psd_projection,
)

from conftest import box_vertices, l1_vertices, simplex_vertices, sphere_points


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
             lambda: L2Ball(3, 1.0, mean_zero=True)],
    ids=["simplex", "l1", "l2", "l2_mean_zero"],
)
@pytest.mark.parametrize("op", ["lmo", "project"])
@pytest.mark.parametrize("bad", [np.arange(5.0), np.ones(2), np.ones((3, 1)), np.array(1.0)],
                         ids=["longer", "shorter", "column", "scalar"])
def test_set_oracles_reject_inputs_of_the_wrong_length(make, op, bad):
    s = make()
    with pytest.raises(ValueError, match="shape"):
        getattr(s, op)(bad)
    assert getattr(s, op)(np.array([0.5, -0.25, 0.125])).shape == (3,)


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


def test_diameter_bounds_sampled_pairs(rng):
    sets = [
        Box(-np.ones(3), np.array([1.0, 2.0, 3.0])),
        Simplex(4),
        L1Ball(3, 2.0),
        L2Ball(3, 1.5),
        L2Ball(4, 2.0, mean_zero=True),
        NuclearBall(3, 3, 1.5),
        ProductSet([Simplex(2), L1Ball(2, 1.0)]),
    ]
    for s in sets:
        d = s.diameter()
        pts = np.array([s.sample(rng) for _ in range(200)])
        diffs = pts[None, :, :] - pts[:, None, :]
        worst = np.sqrt((diffs**2).sum(-1)).max()  # 200^2 pairs = 4e4
        assert worst <= d + 1e-9, type(s).__name__


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


# ---------------------------------------------------------------------------
# PSD projection
# ---------------------------------------------------------------------------


def test_psd_projection_examples():
    np.testing.assert_allclose(
        psd_projection(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]), atol=1e-12
    )
    H = np.array([[2.0, 0.3], [0.3, 1.0]])  # already PSD
    np.testing.assert_allclose(psd_projection(H), H, atol=1e-12)
    np.testing.assert_allclose(
        psd_projection(np.array([[0.0, 1.0], [1.0, 0.0]])),
        [[0.5, 0.5], [0.5, 0.5]],
        atol=1e-12,
    )


def test_psd_projection_is_frobenius_nearest_2x2():
    H = np.array([[1.0, -2.0], [-2.0, -1.0]])
    P = psd_projection(H)
    assert np.linalg.eigvalsh(P).min() >= -1e-10
    dist = np.linalg.norm(P - H)
    # dense search over 2x2 PSD matrices [[a, b], [b, c]]
    a = np.linspace(0, 4, 61)
    b = np.linspace(-4, 4, 121)
    A, B, C = np.meshgrid(a, b, a, indexing="ij")
    ok = A * C >= B**2
    d = np.sqrt((A - 1) ** 2 + 2 * (B + 2) ** 2 + (C + 1) ** 2)
    assert dist <= d[ok].min() + 1e-6


def test_psd_projection_rejects_asymmetric():
    with pytest.raises(ValueError):
        psd_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))
