import copy
import tracemalloc

import numpy as np
import pytest

from modelcg.inner import (
    ALIGNMENT,
    GAP_RATIO,
    PdState,
    PiecewiseLinearSubproblem,
    pdhg_solve,
    precond_steps,
    primal_dual_gap,
)
from modelcg.regression import generate_regression_data, make_constraint_set, make_subproblem

from oracle import brute_force_subproblem


def random_subproblem(rng, m=None, n=None, with_prox=False):
    m = m or int(rng.integers(1, 9))
    n = n or int(rng.integers(1, 5))
    K = rng.standard_normal((m, n)) * (rng.random((m, n)) > 0.15)
    sub = PiecewiseLinearSubproblem(
        K=K,
        target=rng.standard_normal(m),
        l1_weight=float(2.0 * rng.random()),
        l1_mask=rng.random(n) > 0.4,
        lo=np.full(n, -2.0),
        hi=np.full(n, 2.0),
    )
    if with_prox:
        sub = sub.with_prox(float(0.2 + rng.random()), rng.standard_normal(n))
    return sub


def box_problem(K, target, mu, mask, lo, hi, **kw):
    return PiecewiseLinearSubproblem(
        K=np.asarray(K, float),
        target=np.asarray(target, float),
        l1_weight=mu,
        l1_mask=np.asarray(mask, bool),
        lo=np.asarray(lo, float),
        hi=np.asarray(hi, float),
        **kw,
    )


# ---------------------------------------------------------------------------
# preconditioned step sizes
# ---------------------------------------------------------------------------


def test_precond_steps_simple():
    sigma, theta = precond_steps(np.ones((2, 2)))
    np.testing.assert_allclose(sigma, [0.5, 0.5])
    np.testing.assert_allclose(theta, [0.5, 0.5])
    sigma, theta = precond_steps(np.eye(3))
    np.testing.assert_allclose(sigma, np.ones(3))
    np.testing.assert_allclose(theta, np.ones(3))


def test_precond_steps_scaled_operator_norm(rng):
    for _ in range(3):
        K = rng.standard_normal((3, 2))
        sigma, theta = precond_steps(K)
        S = np.sqrt(sigma)[:, None] * K * np.sqrt(theta)[None, :]
        assert np.linalg.norm(S, 2) <= 1.0 + 1e-12


def test_precond_steps_zero_rows_and_columns():
    K = np.array([[0.0, 1.0], [0.0, 0.0]])
    sigma, theta = precond_steps(K)
    np.testing.assert_allclose(sigma, [1.0, 1.0])
    np.testing.assert_allclose(theta, [1.0, 1.0])


# ---------------------------------------------------------------------------
# the primal-dual solve
# ---------------------------------------------------------------------------


def test_pdhg_degenerate_data_term():
    # K = 0, no penalty: any box point is optimal; the cold start sits at the
    # projected origin, the lower corner of a non-negative box
    sub = box_problem(np.zeros((3, 2)), np.ones(3), 0.0, [False, False], [0, 0], [2, 3])
    res = pdhg_solve(sub, gap_tol=1e-12, max_iters=200)
    assert res.converged
    np.testing.assert_allclose(res.u, [0.0, 0.0])
    assert res.gap <= 1e-10

    # proximal variant: unique solution is the box projection of the center
    subp = sub.with_prox(0.5, np.array([-1.0, 1.5]))
    resp = pdhg_solve(subp, gap_tol=1e-12, max_iters=2000)
    np.testing.assert_allclose(resp.u, [0.0, 1.5], atol=1e-9)


def test_pdhg_scalar_absolute_value():
    sub = box_problem([[1.0]], [1.0], 0.0, [False], [0.0], [2.0])
    res = pdhg_solve(sub, gap_tol=1e-10, max_iters=500)
    assert res.converged and res.iterations <= 500
    np.testing.assert_allclose(res.u, [1.0], atol=1e-9)
    assert res.gap <= 1e-10


def test_pdhg_matches_oracle_small_instance(rng):
    K = rng.standard_normal((6, 4))
    sub = box_problem(
        K, rng.standard_normal(6), 1.0, [True, True, False, False],
        np.full(4, -2.0), np.full(4, 2.0),
    )
    res = pdhg_solve(sub, gap_tol=1e-9, max_iters=100000)
    _, val = brute_force_subproblem(sub)
    assert sub.objective(res.u) == pytest.approx(val, abs=1e-6)


def test_pdhg_feasibility_every_iteration(rng):
    # the iterates of the reference loop, which pdhg_solve matches bit for
    # bit on these cases (test_pdhg_matches_reference_loop_bit_for_bit)
    for name, sub, kw in _reference_cases(rng):
        seen = []

        def observe(u, p, z):
            seen.append(bool(np.all(u >= sub.lo) and np.all(u <= sub.hi)
                             and np.all(np.abs(p) <= 1.0)))

        _reference_pdhg(sub, **{"gap_tol": 1e-10, "max_iters": 3000, **kw}, observe=observe)
        assert seen and all(seen), name


def test_pdhg_warm_start_resumes(rng):
    sub = random_subproblem(rng, m=7, n=4)
    res1 = pdhg_solve(sub, gap_tol=1e-6, max_iters=100000)
    res2 = pdhg_solve(sub, warm=res1.state, gap_tol=1e-6, max_iters=100000)
    assert res2.iterations == 0  # already below the tolerance
    res3 = pdhg_solve(sub, warm=res1.state, gap_tol=1e-10, max_iters=100000)
    assert res3.converged


def test_pdhg_rejects_a_warm_state_that_does_not_fit(rng):
    # warm is None or a PdState of the problem's shapes: a state of another
    # problem is an error, not a silent cold start
    sub = random_subproblem(rng, m=7, n=4)
    good = pdhg_solve(sub, gap_tol=1e-4, max_iters=1000).state
    for bad in (PdState(u=np.zeros(3), p=good.p), PdState(u=good.u, p=np.zeros(8)),
                PdState(u=good.u[None, :], p=good.p), (good.u, good.p),
                {"u": good.u, "p": good.p}, good.u):
        with pytest.raises(ValueError, match="warm"):
            pdhg_solve(sub, warm=bad)
        with pytest.raises(ValueError, match="warm"):
            _reference_pdhg(sub, warm=bad)


def test_pdhg_iteration_cap_reports_gap(rng):
    sub = random_subproblem(rng, m=8, n=4)
    res = pdhg_solve(sub, gap_tol=1e-14, max_iters=5)
    assert not res.converged
    assert res.gap > 1e-14
    assert res.iterations == 5


def test_pdhg_rejects_a_bad_tolerance_or_iteration_cap():
    # with a fractional cap `it == max_iters` never holds, so the solve would
    # report the gap of an earlier iterate; a NaN tolerance or a negative cap
    # would return at once, unconverged
    ds = generate_regression_data(P=4, M=30, mu=2.0, a_max=4.0, b_max=2.5, seed=1)
    sub = make_subproblem(ds, np.concatenate([np.full(4, 2.0), np.full(4, 1.25)]))
    # a bool is a numbers.Integral: max_iters=True would run one iteration
    # and gap_tol=True solve to a gap of 1.0
    for kw in ({"max_iters": 2.5}, {"max_iters": -1}, {"max_iters": 3.0},
               {"max_iters": "3"}, {"max_iters": None}, {"max_iters": True},
               {"gap_tol": np.nan}, {"gap_tol": -1e-3}, {"gap_tol": None},
               {"gap_tol": True}):
        with pytest.raises(ValueError):
            pdhg_solve(sub, **kw)
    # integer types of numpy count as integers, and a zero cap reports the
    # gap of the starting point
    res = pdhg_solve(sub, gap_tol=np.float64(0.0), max_iters=np.int64(3))
    assert res.iterations == 3 and res.gap == primal_dual_gap(sub, res.u, res.state.p)
    start = pdhg_solve(sub, gap_tol=0.0, max_iters=0)
    assert start.iterations == 0 and not start.converged
    assert start.gap == primal_dual_gap(sub, start.u, start.state.p)


def test_pdhg_rejects_a_non_finite_warm_state(rng):
    sub = random_subproblem(rng, m=6, n=3)
    good = pdhg_solve(sub, gap_tol=1e-4, max_iters=1000).state
    for bad in (np.nan, np.inf, -np.inf):
        u, p = good.u.copy(), good.p.copy()
        u[1] = bad
        with pytest.raises(ValueError, match="warm.u"):
            pdhg_solve(sub, warm=PdState(u=u, p=good.p))
        p[0] = bad
        with pytest.raises(ValueError, match="warm.p"):
            pdhg_solve(sub, warm=PdState(u=good.u, p=p))
    # a non-finite state of other dimensions is rejected for its shape
    with pytest.raises(ValueError, match="warm must be None or a PdState"):
        pdhg_solve(sub, warm=PdState(u=np.full(2, np.nan), p=np.zeros(6)))


def test_pdhg_with_an_anchor_value_stops_at_the_first_check_the_rule_allows():
    # with delta = anchor_value - primal value, the solve stops at the first
    # gap check where gap <= max(GAP_RATIO * delta, gap_tol - max(delta, 0));
    # the iterates are those of the plain solve
    ds = generate_regression_data(P=4, M=30, mu=2.0, a_max=4.0, b_max=2.5, seed=1)
    x = np.concatenate([np.full(4, 2.0), np.full(4, 1.25)])
    sub = make_subproblem(ds, x)
    anchor = sub.objective(x)
    best = pdhg_solve(sub, gap_tol=1e-9, max_iters=200000)
    minimum = sub.objective(best.u)  # within 1e-9 of the minimum

    def allowed(res, anchor_value, gap_tol):
        delta = anchor_value - sub.objective(res.u)
        return res.gap <= max(GAP_RATIO * delta, gap_tol - max(delta, 0.0))

    # an anchor far above the minimum (the ratio stop), one within the
    # tolerance of it (the certified stop), and one below it (delta < 0
    # throughout), which stops at gap_tol as the plain solve does
    for anchor_value, gap_tol in ((anchor, 1e-8), (minimum + 1e-4, 1e-3),
                                  (minimum - 1.0, 1e-6)):
        res = pdhg_solve(sub, gap_tol=gap_tol, anchor_value=anchor_value)
        assert res.converged and allowed(res, anchor_value, gap_tol)
        assert res.iterations % 25 == 0
        plain = pdhg_solve(sub, gap_tol=0.0, max_iters=res.iterations)
        assert np.array_equal(plain.u, res.u) and plain.gap == res.gap
        if res.iterations:
            earlier = pdhg_solve(sub, gap_tol=0.0, max_iters=res.iterations - 25)
            assert not allowed(earlier, anchor_value, gap_tol)
    assert res.iterations == pdhg_solve(sub, gap_tol=1e-6).iterations
    for bad in (np.nan, np.inf, True, "1"):
        with pytest.raises(ValueError, match="anchor_value"):
            pdhg_solve(sub, anchor_value=bad)


def test_pdhg_loop_memory_does_not_grow_with_iterations():
    # the loop works in preallocated buffers: the traced peak of a long
    # solve, above the memory traced before it, is no higher than that of a
    # short one on the same problem. Each length runs three times and keeps
    # its lowest peak, as the interpreter makes a few one-off allocations of
    # its own in the first traced calls.
    ds = generate_regression_data(P=20, M=200, mu=80.0, seed=0)
    sub = make_subproblem(ds, np.full(40, 1.0))
    peaks = {50: [], 2000: []}
    tracemalloc.start()
    try:
        for _ in range(3):
            for iters, seen in peaks.items():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                res = pdhg_solve(sub, gap_tol=0.0, max_iters=iters)
                seen.append(tracemalloc.get_traced_memory()[1] - before)
                assert res.iterations == iters
                del res
    finally:
        tracemalloc.stop()
    assert min(peaks[2000]) <= min(peaks[50]), peaks


# ---------------------------------------------------------------------------
# duality gap
# ---------------------------------------------------------------------------


def test_gap_zero_at_optimum(rng):
    for with_prox in (False, True):
        sub = random_subproblem(rng, m=6, n=3, with_prox=with_prox)
        res = pdhg_solve(sub, gap_tol=1e-11, max_iters=200000)
        assert res.converged
        assert primal_dual_gap(sub, res.u, res.state.p) <= 1e-10


def test_gap_nonnegative_at_random_pairs(rng):
    for _ in range(20):
        sub = random_subproblem(rng, with_prox=bool(rng.integers(0, 2)))
        for _ in range(50):
            u = sub.lo + rng.random(sub.n) * (sub.hi - sub.lo)
            p = rng.uniform(-1, 1, sub.m)
            assert primal_dual_gap(sub, u, p) >= -1e-12


def test_gap_running_minimum_decreases_along_iterates(rng):
    # the gap at every iterate of the reference loop (bit for bit that of
    # pdhg_solve) is non-negative, and its running minimum falls by eight
    # orders from the first iterate's on every case not capped at 37
    for name, sub, kw in _reference_cases(rng):
        gaps = []

        def observe(u, p, z):
            gaps.append(primal_dual_gap(sub, u, p))

        _reference_pdhg(sub, **{"gap_tol": 1e-10, "max_iters": 3000, **kw}, observe=observe)
        assert min(gaps) >= -1e-12, name
        if name != "max_iters":
            assert min(gaps) <= 1e-8 * gaps[0], name


def test_gap_bounds_suboptimality(rng):
    for _ in range(15):
        sub = random_subproblem(rng)
        _, val = brute_force_subproblem(sub)
        res = pdhg_solve(sub, gap_tol=1e-7, max_iters=100000)
        assert sub.objective(res.u) - val <= res.gap + 1e-8


# ---------------------------------------------------------------------------
# the brute-force oracle itself
# ---------------------------------------------------------------------------


def test_brute_force_scalar():
    sub = box_problem([[1.0]], [1.0], 0.0, [False], [0.0], [2.0])
    u, val = brute_force_subproblem(sub)
    np.testing.assert_allclose(u, [1.0], atol=1e-12)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_brute_force_separable_weighted_medians(rng):
    # diagonal coupling: each coordinate solves an independent weighted
    # l1 location problem; candidate enumeration is exact there
    n = 3
    K = np.vstack([np.diag([2.0, 1.0, 0.5]), np.diag([1.0, 3.0, 1.0])])
    target = rng.standard_normal(6)
    sub = box_problem(K, target, 0.7, [True, False, True], np.full(n, -2.0), np.full(n, 2.0))
    u, val = brute_force_subproblem(sub)
    for j in range(n):
        col = K[:, j]
        nz = col != 0
        cands = np.concatenate([(target[nz] / col[nz]), [0.0, -2.0, 2.0]])
        cands = np.clip(cands, -2.0, 2.0)
        w = 0.7 if sub.l1_mask[j] else 0.0

        def coord_obj(t):
            return np.abs(col * t - target).sum() + w * abs(t)

        best = min(coord_obj(t) for t in cands)
        assert coord_obj(u[j]) == pytest.approx(best, abs=1e-10)
    assert val == pytest.approx(sub.objective(u), abs=1e-12)


def test_brute_force_matches_linear_program(rng):
    scipy_opt = pytest.importorskip("scipy.optimize")
    for _ in range(10):
        sub = random_subproblem(rng)
        _, val = brute_force_subproblem(sub)
        m, n = sub.K.shape
        nmask = int(sub.l1_mask.sum())
        c = np.concatenate([np.zeros(n), np.ones(m), sub.l1_weight * np.ones(nmask)])
        rows, rhs = [], []
        for i in range(m):
            for sign in (1.0, -1.0):
                row = np.zeros(n + m + nmask)
                row[:n] = sign * sub.K[i]
                row[n + i] = -1.0
                rows.append(row)
                rhs.append(sign * sub.target[i])
        mi = 0
        for j in range(n):
            if sub.l1_mask[j]:
                for sign in (1.0, -1.0):
                    row = np.zeros(n + m + nmask)
                    row[j] = sign
                    row[n + m + mi] = -1.0
                    rows.append(row)
                    rhs.append(0.0)
                mi += 1
        bounds = [(sub.lo[j], sub.hi[j]) for j in range(n)]
        bounds += [(0, None)] * (m + nmask)
        lp = scipy_opt.linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                               bounds=bounds, method="highs")
        assert lp.status == 0
        assert val == pytest.approx(lp.fun, abs=1e-7)


def test_brute_force_agrees_with_pdhg(rng):
    for _ in range(15):
        sub = random_subproblem(rng, with_prox=bool(rng.integers(0, 2)))
        res = pdhg_solve(sub, gap_tol=1e-10, max_iters=150000)
        _, val = brute_force_subproblem(sub)
        assert abs(sub.objective(res.u) - val) <= 1e-5


def test_brute_force_rejects_large_dimension(rng):
    sub = box_problem(np.ones((2, 5)), np.ones(2), 0.0, [False] * 5,
                      np.zeros(5), np.ones(5))
    with pytest.raises(ValueError):
        brute_force_subproblem(sub)


# ---------------------------------------------------------------------------
# proximal variant optimality via directional derivatives
# ---------------------------------------------------------------------------


def test_prox_solution_directional_derivatives(rng):
    sub = random_subproblem(rng, m=6, n=4, with_prox=True)
    res = pdhg_solve(sub, gap_tol=1e-12, max_iters=200000)
    assert res.converged
    u = res.u
    f0 = sub.objective(u)
    t = 1e-7
    for _ in range(100):
        d = rng.standard_normal(4)
        z = np.clip(u + t * d, sub.lo, sub.hi)  # feasible direction
        if np.linalg.norm(z - u) == 0:
            continue
        assert (sub.objective(z) - f0) / np.linalg.norm(z - u) >= -1e-6


def test_subproblem_validation():
    with pytest.raises(ValueError):
        box_problem(np.ones((2, 2)), np.ones(3), 0.0, [False, False], [0, 0], [1, 1])
    with pytest.raises(ValueError):
        box_problem(np.ones((2, 2)), np.ones(2), -1.0, [False, False], [0, 0], [1, 1])
    with pytest.raises(ValueError):
        box_problem(np.ones((2, 2)), np.ones(2), 0.0, [False, False], [2, 2], [1, 1])
    sub = box_problem(np.ones((2, 2)), np.ones(2), 0.0, [False, False], [0, 0], [1, 1])
    for tau in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            sub.with_prox(tau, np.zeros(2))


# ---------------------------------------------------------------------------
# the aligned subproblem matrix
# ---------------------------------------------------------------------------


def _is_aligned(K):
    return K.flags.c_contiguous and K.ctypes.data % ALIGNMENT == 0


def _at_offset(K, offset):
    """A C-contiguous copy of K whose data starts ``offset`` bytes past a
    64-byte boundary."""
    buf = np.empty(K.size + 16)
    start = (-buf.ctypes.data % ALIGNMENT + offset) // 8
    out = buf[start : start + K.size].reshape(K.shape)
    out[...] = K
    assert out.ctypes.data % ALIGNMENT == offset
    return out


@pytest.mark.parametrize("P, M", [(100, 1000), (20, 200)])
def test_regression_subproblem_matrix_is_aligned_without_a_copy(P, M):
    ds = generate_regression_data(P=P, M=M, mu=80.0, seed=0)
    u = make_constraint_set(ds).midpoint()
    sub = make_subproblem(ds, u)
    assert _is_aligned(sub.K)
    # the proximal variant shares the matrix instead of copying it
    assert sub.with_prox(0.5, u).K is sub.K
    assert _is_aligned(make_subproblem(ds, u, tau=0.5).K)


def test_subproblem_copies_an_unaligned_matrix_to_an_aligned_one(rng):
    K = rng.standard_normal((7, 5))
    kw = dict(target=np.zeros(7), mu=0.5, mask=np.ones(5, bool), lo=np.zeros(5), hi=np.ones(5))
    # offset views (the last starts one 40-byte row into a larger matrix,
    # so 8 bytes off any 16-byte boundary) and a Fortran-order copy
    row_view = np.vstack([np.zeros((1, 5)), K])[1:]
    for given in (_at_offset(K, 16), _at_offset(K, 48), row_view, np.asfortranarray(K)):
        assert not _is_aligned(given)
        sub = box_problem(given, **kw)
        assert sub.K is not given and _is_aligned(sub.K)
        assert sub.K.tobytes() == K.tobytes()
    fitted = _at_offset(K, 0)
    assert box_problem(fitted, **kw).K is fitted


@pytest.mark.parametrize("P, M, tau", [(100, 1000, None), (20, 200, None), (20, 200, 0.5)])
def test_pdhg_iterates_do_not_depend_on_where_the_matrix_starts(P, M, tau):
    # the solver reads K wherever it sits: the same matrix at each 16-byte
    # offset from a cache line gives the same bits
    ds = generate_regression_data(P=P, M=M, mu=80.0, seed=0)
    sub = make_subproblem(ds, make_constraint_set(ds).midpoint(), tau=tau)
    runs = []
    for offset in (0, 16, 32, 48):
        # set past __post_init__, which would align the matrix again
        placed = copy.copy(sub)
        object.__setattr__(placed, "K", _at_offset(sub.K, offset))
        res = pdhg_solve(placed, gap_tol=1e-6, max_iters=500)
        runs.append((res.u.tobytes(), res.state.p.tobytes(), res.gap, res.iterations))
    assert all(run == runs[0] for run in runs[1:])


# ---------------------------------------------------------------------------
# the allocation-free loop against the reference loop
# ---------------------------------------------------------------------------


def _reference_pdhg(problem, warm=None, gap_tol=1e-8, max_iters=20000, observe=None):
    """The PDHG loop written with a fresh array per operation: the reference
    that ``pdhg_solve`` must match bit for bit. Returns (u, p, gap,
    iterations, converged). ``observe(u, p, z)``, if given, sees every
    iterate and the point z the primal step thresholds; the arrays are fresh
    each iteration, so it may keep them."""
    K, target, lo, hi = problem.K, problem.target, problem.lo, problem.hi
    m, n = K.shape
    sigma, theta = precond_steps(K)
    if warm is None:
        u = np.clip(np.zeros(n), lo, hi)
        p = np.zeros(m)
    elif isinstance(warm, PdState) and np.shape(warm.u) == (n,) and np.shape(warm.p) == (m,):
        u = np.clip(np.asarray(warm.u, float), lo, hi)
        p = np.clip(np.asarray(warm.p, float), -1.0, 1.0)
    else:
        raise ValueError("warm must be None or a PdState of the problem's shapes")
    u_bar = u.copy()
    if problem.prox_tau is not None:
        tau = problem.prox_tau
        blend = tau / (tau + theta)
        theta_eff = theta * blend
        center_term = (1.0 - blend) * problem.prox_center
    else:
        blend = None
        theta_eff = theta
    level = theta_eff * problem.penalty_weights()

    def soft(z):
        return np.sign(z) * np.maximum(np.abs(z) - level, 0.0)

    gap = primal_dual_gap(problem, u, p)
    it = 0
    while gap > gap_tol and it < max_iters:
        p = np.clip(p + sigma * (K @ u_bar - target), -1.0, 1.0)
        z = u - theta * (K.T @ p)
        if blend is not None:
            z = blend * z + center_term
        u_new = np.clip(soft(z), lo, hi)
        u_bar = 2.0 * u_new - u
        u = u_new
        it += 1
        if observe is not None:
            observe(u, p, z)
        if it % 25 == 0 or it == max_iters:
            gap = primal_dual_gap(problem, u, p)
    return u, p, gap, it, gap <= gap_tol


def _reference_cases(rng):
    """(name, problem, solve keywords) covering both branches of the loop."""
    cases = []
    for i in range(6):
        sub = random_subproblem(rng, m=8, n=4, with_prox=i % 2 == 1)
        cases.append((f"random{i}", sub, {}))
    sub = random_subproblem(rng, m=7, n=4)
    for name, weight, mask in (("no_penalty", 0.0, sub.l1_mask),
                               ("partial_mask", 1.3, [True, False, True, False])):
        cases.append((name, box_problem(sub.K, sub.target, weight, mask, sub.lo, sub.hi), {}))
    # coordinate 1 is pinned (lo == hi), coordinate 2 pinned at zero
    lo, hi = np.array([-2.0, 0.5, 0.0, -1.0]), np.array([2.0, 0.5, 0.0, 3.0])
    pinned = box_problem(sub.K, sub.target, 0.8, [True, True, True, False], lo, hi)
    cases.append(("zero_width", pinned, {}))
    cases.append(("zero_width_prox", pinned.with_prox(0.3, rng.standard_normal(4)), {}))
    capped = {"gap_tol": 1e-14, "max_iters": 37}
    cases.append(("max_iters", random_subproblem(rng, m=8, n=4), capped))
    ds = generate_regression_data(P=4, M=30, mu=2.0, a_max=4.0, b_max=2.5, seed=1)
    u0 = np.concatenate([np.full(4, 2.0), np.full(4, 1.25)])
    cases.append(("regression", make_subproblem(ds, u0), {"gap_tol": 1e-9}))
    cases.append(("regression_prox", make_subproblem(ds, u0, tau=0.05), {"gap_tol": 1e-9}))
    # one-signed boxes (lo > 0 on coordinates 0 and 3, lo == 0 on 1 and 2)
    # take the shifted primal step; the data pull coordinates 1 and 2 below
    # zero, onto their bound lo == 0
    lo, hi = np.array([0.25, 0.0, 0.0, 1e-3]), np.array([2.0, 1.5, 3.0, 2.0])
    pulled = sub.K @ np.array([1.0, -0.1, -0.1, 0.0]) + 0.1 * sub.target
    signed = box_problem(sub.K, pulled, 1.3, [True, True, False, True], lo, hi)
    cases.append(("one_signed", signed, {}))
    cases.append(("one_signed_prox", signed.with_prox(0.4, np.array([0.1, -0.5, 0.3, -1.0])), {}))
    return cases


def _assert_same_run(res, ref, name):
    u, p, gap, it, converged = ref
    assert res.u.tobytes() == u.tobytes(), name
    assert res.state.u.tobytes() == u.tobytes(), name
    assert res.state.p.tobytes() == p.tobytes(), name
    assert res.gap == gap, name
    assert res.iterations == it, name
    assert res.converged == converged, name


def test_pdhg_matches_reference_loop_bit_for_bit(rng):
    signed_zeros = 0
    for name, sub, kw in _reference_cases(rng):
        kw = {"gap_tol": 1e-10, "max_iters": 3000, **kw}
        res = pdhg_solve(sub, **kw)
        ref = _reference_pdhg(sub, **kw)
        _assert_same_run(res, ref, name)
        if name == "max_iters":
            assert res.iterations == 37 and not res.converged
        signed_zeros += int(np.sum(np.signbit(ref[0]) & (ref[0] == 0.0)))
        # warm start from the cold result (a tighter tolerance so it moves)
        warm_kw = {**kw, "gap_tol": kw["gap_tol"] * 1e-3, "max_iters": 500}
        _assert_same_run(pdhg_solve(sub, warm=res.state, **warm_kw),
                         _reference_pdhg(sub, warm=res.state, **warm_kw), name + "/warm")
    # the cases reach the -0.0 that the sign factor of the soft-threshold
    # produces inside a box around zero, so the byte comparison sees it
    assert signed_zeros > 0


@pytest.mark.parametrize("P, M, tau, iters", [
    (20, 200, None, 2000), (20, 200, 0.5, 2000), (100, 1000, None, 300), (100, 1000, 0.5, 300),
])
def test_pdhg_matches_reference_loop_bit_for_bit_at_the_bench_shapes(P, M, tau, iters):
    # the reference cases stop at 30 x 8; the products must also agree with
    # the reference's @ where the bench runs (200 x 40 and 1000 x 200), where
    # BLAS takes other kernels and blockings. gap_tol 0 runs the full count.
    ds = generate_regression_data(P=P, M=M, mu=80.0, seed=0)
    sub = make_subproblem(ds, make_constraint_set(ds).midpoint(), tau=tau)
    kw = {"gap_tol": 0.0, "max_iters": iters}
    res = pdhg_solve(sub, **kw)
    _assert_same_run(res, _reference_pdhg(sub, **kw), "cold")
    assert res.iterations == iters
    _assert_same_run(pdhg_solve(sub, warm=res.state, **kw),
                     _reference_pdhg(sub, warm=res.state, **kw), "warm")


def test_pdhg_reported_gap_is_the_gap_of_the_returned_pair(rng):
    # the loop's gap check reuses its K.T @ p; it must equal the standalone
    # evaluation at the returned point, bit for bit, cold and warm
    for name, sub, kw in _reference_cases(rng):
        kw = {"gap_tol": 1e-10, "max_iters": 3000, **kw}
        res = pdhg_solve(sub, **kw)
        warm = pdhg_solve(sub, warm=res.state, **{**kw, "gap_tol": kw["gap_tol"] * 1e-3})
        for tag, r in (("cold", res), ("warm", warm)):
            assert r.gap == primal_dual_gap(sub, r.u, r.state.p), (name, tag)


def test_pdhg_one_signed_cases_reach_the_zero_tie(rng):
    # on a one-signed box the shifted step agrees with the soft-threshold at
    # lo == +0.0 only through np.maximum(-0.0, +0.0) == +0.0: the cases must
    # reach a negative z within the threshold there, where the soft-threshold
    # forms -0.0, for the byte comparison above to see that tie
    cases = {name: sub for name, sub, _ in _reference_cases(rng)}
    for name in ("one_signed", "one_signed_prox"):
        sub = cases[name]
        _, theta = precond_steps(sub.K)
        blend = 1.0 if sub.prox_tau is None else sub.prox_tau / (sub.prox_tau + theta)
        level = theta * blend * sub.penalty_weights()
        ties = []

        def observe(u, p, z):
            ties.append(np.sum((sub.lo == 0.0) & np.signbit(z) & (-z <= level)))

        _reference_pdhg(sub, gap_tol=1e-10, max_iters=3000, observe=observe)
        assert sum(ties) > 0, name


# ---------------------------------------------------------------------------
# nothing handed out is overwritten by the in-place updates
# ---------------------------------------------------------------------------


def test_pdhg_warm_state_and_result_not_overwritten(rng):
    sub = random_subproblem(rng, m=7, n=4, with_prox=True)
    first = pdhg_solve(sub, gap_tol=1e-4, max_iters=100000)
    before = [a.copy() for a in (first.u, first.state.u, first.state.p)]
    second = pdhg_solve(sub, warm=first.state, gap_tol=1e-12, max_iters=100000)
    assert second.iterations > 0
    for a, b in zip((first.u, first.state.u, first.state.p), before):
        assert a.tobytes() == b.tobytes()
    # a caller-built warm state is only read, and a third solve does not
    # reach back into the second one's result
    warm = PdState(u=np.full(4, 0.5), p=np.full(7, 0.25))
    pdhg_solve(sub, warm=warm, gap_tol=1e-10, max_iters=300)
    assert np.all(warm.u == 0.5) and np.all(warm.p == 0.25)
    kept = [a.copy() for a in (second.u, second.state.p)]
    pdhg_solve(sub, warm=second.state, gap_tol=0.0, max_iters=50)
    assert second.u.tobytes() == kept[0].tobytes()
    assert second.state.p.tobytes() == kept[1].tobytes()
