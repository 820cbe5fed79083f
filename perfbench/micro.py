"""Microbenchmarks of single kernels at the workloads' sizes (traced runs).

Each figure is the median per-call time over several timed batches, with the
batch length grown until one batch lasts at least ``MIN_BATCH_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from modelcg.geometry import Box, L1Ball, L2Ball, NuclearBall, Simplex
from modelcg.inner import pdhg_solve, primal_dual_gap
from modelcg.matfac import MfProblem, default_start, make_mf_sets, mf_gradient
from modelcg.regression import (
    eval_F,
    eval_jacobian,
    generate_regression_data,
    make_constraint_set,
    make_subproblem,
)

from tracer import Tracer

MIN_BATCH_S = 0.02
BATCHES = 7
FIXED_PDHG_ITERS = 200

# (suffix, P, M) of the two regression workloads
REGRESSION_SIZES = (("full", 100, 1000), ("desk", 20, 200))


def per_call_us(fn):
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t >= MIN_BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n)
    return 1e6 * statistics.median(samples)


def pdhg_bytes_per_iter(m, n):
    """Bytes one PDHG iteration moves, computed from array sizes (cache
    effects ignored): two passes over the m x n matrix K, and 10 length-m
    plus 12 length-n vector passes for the dual and primal updates."""
    return 8 * (2 * m * n + 10 * m + 12 * n)


def inner_metrics(seed):
    out = {}
    rng = np.random.default_rng(seed)
    for suffix, P, M in REGRESSION_SIZES:
        ds = generate_regression_data(P=P, M=M, mu=80.0, seed=seed)
        sub = make_subproblem(ds, make_constraint_set(ds).midpoint())
        K = sub.K
        m, n = K.shape
        u = rng.random(n)
        p = np.clip(rng.standard_normal(m), -1.0, 1.0)
        # gap_tol 0 never stops early, so every call runs the fixed count
        res = pdhg_solve(sub, gap_tol=0.0, max_iters=FIXED_PDHG_ITERS)
        out[f"inner.iter_us.fixed.{suffix}"] = per_call_us(
            lambda: pdhg_solve(sub, gap_tol=0.0, max_iters=FIXED_PDHG_ITERS)
        ) / res.iterations
        out[f"inner.matvec_floor_us.{suffix}"] = per_call_us(lambda: (K @ u, K.T @ p))
        out[f"inner.gap_us.{suffix}"] = per_call_us(lambda: primal_dual_gap(sub, u, p))
        out[f"inner.bytes_per_iter.{suffix}"] = pdhg_bytes_per_iter(m, n)
    return out


def regression_metrics(seed):
    ds = generate_regression_data(P=100, M=1000, mu=80.0, seed=seed)
    a, b = ds.split(make_constraint_set(ds).midpoint())
    x = ds.covariates
    return {
        "regression.eval_F_us": per_call_us(lambda: eval_F(a, b, x)),
        "regression.eval_jacobian_us": per_call_us(lambda: eval_jacobian(a, b, x)),
    }


def geometry_metrics(seed):
    """One LMO per set kind, at the sizes the workloads use: the regression
    box (2P = 200), matrix-factorization columns (400 rows), the entrywise
    Y ball and the nuclear Y ball (10 x 300), and the whole factor set."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((400, 3)) @ rng.standard_normal((3, 300))
    A = A + 0.1 * rng.standard_normal(A.shape)
    problem = MfProblem(A=A, inner_dim=10, y_kind="low_rank", radius=1.5 * float(np.linalg.norm(A, "nuc")))
    product, _, _ = make_mf_sets(problem)
    g = mf_gradient(problem)(default_start(problem, seed=seed))
    g_y = g[problem.x_size :]
    sets = {
        "box": (Box(np.zeros(200), np.full(200, 20.0)), rng.standard_normal(200)),
        "simplex": (Simplex(400), rng.standard_normal(400)),
        "l1ball": (L1Ball(3000, 1.0), rng.standard_normal(3000)),
        "l2ball": (L2Ball(400, 1.0, mean_zero=True), rng.standard_normal(400)),
        "nuclearball": (NuclearBall(10, 300, problem.radius), g_y),
        "productset": (product, g),
    }
    return {f"geometry.lmo_us.{k}": per_call_us(lambda s=s, c=c: s.lmo(c)) for k, (s, c) in sets.items()}


def span_cost_us(calls=20000, repeats=5):
    """Added time of one traced call: a wrapped no-op against a bare one,
    median over ``repeats`` rounds of ``calls`` calls each."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("trace", "noop", noop)
        t = time.perf_counter()
        for _ in range(calls):
            traced()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((2 * mid - t - time.perf_counter()) / calls)
    return 1e6 * statistics.median(costs)


def all_metrics(seed):
    out = {}
    out.update(inner_metrics(seed))
    out.update(regression_metrics(seed))
    out.update(geometry_metrics(seed))
    return out
