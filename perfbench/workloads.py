"""The benchmark's workloads: instances drawn from the seed, one closed-loop
solve at a time, and the checks applied to every solve.

Each solve gets fresh objects (objective, oracle, constraint set) so that the
wrappers of one solve never reach another. The library is only called
through its public functions; the checks that decide ``correct`` use this
file's own statement of each objective and constraint set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from modelcg.baselines import prox_linear_bt_solve, prox_linear_ls_solve
from modelcg.matfac import MfProblem, default_start, make_mf_oracle, make_mf_sets, mf_objective
from modelcg.regression import (
    generate_regression_data,
    make_constraint_set,
    make_objective,
    make_oracle,
)
from modelcg.solver import (
    LineSearchParams,
    SolverConfig,
    mcgm_solve,
    rate_certificate,
    verify_trace_arrays,
)

from tracer import trace_constraint

RHO = 0.25  # sufficient-decrease constant of the acceptance fixtures
REACH_SHARE = 1e-4  # reach_s: f <= f_final + REACH_SHARE * (f0 - f_final)


@dataclass
class Instance:
    label: str
    layer: str  # library module that owns the objective
    make: Callable  # () -> (fun, oracle, constraint, x0), fresh objects
    objective: Callable  # this file's statement of the objective
    feasible: Callable  # this file's statement of the constraint set


@dataclass
class Workload:
    methods: tuple
    max_iterations: int
    build: Callable  # seed -> [(Instance, method)], the pass in order


def _regression_instance(data_seed, P, M):
    ds = generate_regression_data(
        P=P, M=M, mu=80.0, a_max=20.0, b_max=5.0, sparsity=0.8, seed=data_seed
    )
    x, y, mu = ds.covariates, ds.observations, ds.mu

    def objective(u):
        a, b = u[:P], u[P:]
        return float(np.abs(np.exp(-np.outer(x, b)) @ a - y).sum()) + mu * float(np.abs(a).sum())

    def feasible(u):
        a, b = u[:P], u[P:]
        tol = 1e-9 * (1.0 + ds.a_max)
        return bool(np.all(a >= -tol) and np.all(a <= ds.a_max + tol) and np.all(b >= -tol) and np.all(b <= ds.b_max + tol))

    def make():
        box = make_constraint_set(ds)
        return make_objective(ds), make_oracle(ds), box, box.midpoint()

    return Instance(f"data{data_seed}", "regression", make, objective, feasible)


MF_ROWS, MF_COLS, MF_RANK, MF_NOISE, MF_INNER = 400, 300, 3, 0.1, 10


def _matfac_instances(inst_seed):
    """One noisy low-rank matrix, posed once per model (cg, hybrid)."""
    rng = np.random.default_rng(inst_seed)
    low_rank = rng.standard_normal((MF_ROWS, MF_RANK)) @ rng.standard_normal((MF_RANK, MF_COLS))
    noise = MF_NOISE * rng.standard_normal((MF_ROWS, MF_COLS))
    A = low_rank + noise
    radius = 1.5 * float(np.linalg.norm(A, "nuc"))
    m, k, n = MF_ROWS, MF_INNER, MF_COLS

    def objective(v):
        X = v[: m * k].reshape((m, k), order="F")
        Y = v[m * k :].reshape(k, n)
        R = A - X @ Y
        return 0.5 * float((R * R).sum())

    def feasible(v):
        X = v[: m * k].reshape((m, k), order="F")
        Y = v[m * k :].reshape(k, n)
        tol = 1e-7
        if np.any(np.linalg.norm(X, axis=0) > 1.0 + tol):
            return False
        if np.any(np.abs(X[:, 1:].mean(axis=0)) > tol):
            return False
        return float(np.linalg.svd(Y, compute_uv=False).sum()) <= radius * (1.0 + tol)

    out = []
    for model in ("cg", "hybrid"):
        problem = MfProblem(
            A=A, inner_dim=k, x_kind="unit_atoms", y_kind="low_rank",
            radius=radius, model=model,
        )

        def make(problem=problem):
            constraint, _, _ = make_mf_sets(problem)
            x0 = default_start(problem, seed=inst_seed)
            return mf_objective(problem), make_mf_oracle(problem), constraint, x0

        instance = Instance(f"mf{inst_seed}", "matfac", make, objective, feasible)
        out.append((instance, f"mf_{model}"))
    return out


WORKLOADS = {
    # data seed = --seed, so seed 0 is the acceptance fixture's instance
    "regression-full": Workload(
        ("mcgm",), 400,
        lambda seed: [(_regression_instance(seed, 100, 1000), "mcgm")],
    ),
    # data seeds 5*seed .. 5*seed+4, so seed 0 is the acceptance fixture's set
    "regression-desk": Workload(
        ("mcgm", "proxlin_ls", "proxlin_bt"), 30,
        lambda seed: [
            (inst, method)
            for inst in (_regression_instance(5 * seed + i, 20, 200) for i in range(5))
            for method in ("mcgm", "proxlin_ls", "proxlin_bt")
        ],
    ),
    # matrices 4*seed .. 4*seed+3, each solved by both modes from one start
    "matfac-noisy": Workload(
        ("mf_cg", "mf_hybrid"), 200,
        lambda seed: [job for i in range(4) for job in _matfac_instances(4 * seed + i)],
    ),
}


def build_jobs(workload, seed):
    """The pass's (instance, method) list and fresh solver inputs for each."""
    jobs = workload.build(seed)
    parts = [inst.make() for inst, _ in jobs]
    return jobs, parts


# ---------------------------------------------------------------------------
# one solve
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    method: str
    label: str
    wall_s: float
    reach_s: float = math.nan
    status: str = ""
    error: str = ""
    final_f: float = math.nan
    outer: int = 0
    pdhg_iterations: int = 0
    evals: int = 0
    backtracks: int = 0
    inner_solves: int = 0
    host_s: float = math.nan  # median host-kernel time during the solve
    failure: str = ""  # why the solve counts as failed; empty if it did not
    problems: List[str] = field(default_factory=list)  # wrong outputs

    @property
    def returned(self):
        return not self.error

    def counters(self):
        """The deterministic facts of this solve, compared bit for bit."""
        return [
            self.method, self.label, self.status or self.error, self.outer,
            self.pdhg_iterations, self.evals, self.backtracks, self.inner_solves,
            float(self.final_f).hex(), self.failure,
        ]


def _observe(tracer, layer, name, fn, info=None):
    """``fn`` traced when a tracer is given, else only observed by ``info``."""
    if tracer is not None:
        return tracer.wrap(layer, name, fn, info)
    if info is None:
        return fn

    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        info(None, args, kwargs, result)
        return result

    return observed


class _Probe:
    """What one solve reveals through the objects handed to it: objective
    evaluations, and the gap of the last model minimization."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.evals = 0
        self.last_gap = None

    def count_eval(self, span, args, kwargs, result):
        self.evals += 1

    def watch_model(self, span, args, kwargs, model):
        tracer = self.tracer
        seen = {"calls": 0, "tau": None}

        def minimized(span, args, kwargs, result):
            # a re-solve of the same instance with an unchanged proximal
            # weight is a certification retry; a changed weight is a new trial
            tau = kwargs.get("tau", args[2] if len(args) > 2 else None)
            if span is not None:
                span.info["retry"] = seen["calls"] > 0 and tau == seen["tau"]
            seen["calls"] += 1
            seen["tau"] = tau
            self.last_gap = float(result.gap)

        for method in ("minimize", "minimize_proximal"):
            setattr(model, method, _observe(tracer, "models", "minimize", getattr(model, method), minimized))
        if tracer is not None:
            model.value = tracer.wrap("models", "value", model.value)


def _trace_oracle(tracer, oracle, layer):
    names = {"residual": "residual", "jacobian": "jacobian", "h": "objective", "grad_h": "gradient"}
    for attr, name in names.items():
        if hasattr(oracle, attr):
            setattr(oracle, attr, tracer.wrap(layer, name, getattr(oracle, attr)))


def _call_solver(method, fun, oracle, constraint, x0, cfg, callback):
    ls = LineSearchParams(rho=RHO)
    if method == "proxlin_ls":
        return prox_linear_ls_solve(oracle, fun, constraint, x0, ls=ls, cfg=cfg, callback=callback)
    if method == "proxlin_bt":
        return prox_linear_bt_solve(oracle, fun, constraint, x0, cfg=cfg, callback=callback)
    return mcgm_solve(oracle, fun, constraint, x0, ls=ls, cfg=cfg, callback=callback, method=method)


def run_solve(instance, method, parts, max_iterations, tracer=None, clock=None):
    """Solve once from ``parts`` and judge the result. With a ``clock``, the
    host kernel is sampled during the solve and its time taken off."""
    fun, oracle, constraint, x0 = parts
    cfg = SolverConfig(max_iterations=max_iterations)
    probe = _Probe(tracer)
    fun = _observe(tracer, instance.layer, "objective", fun, probe.count_eval)
    oracle.instantiate = _observe(tracer, "models", "instantiate", oracle.instantiate, probe.watch_model)
    solver = _call_solver
    if tracer is not None:
        _trace_oracle(tracer, oracle, instance.layer)
        trace_constraint(tracer, constraint)
        layer = "baselines" if method.startswith("proxlin") else "solver"
        solver = tracer.wrap(layer, "solve", _call_solver)

    seen = []  # (seconds since the call, f) per record
    spent = (lambda: clock.spent) if clock is not None else (lambda: 0.0)
    if clock is not None:
        clock.begin()
    start = time.perf_counter()

    def callback(record):
        seen.append((time.perf_counter() - start - spent(), record.f_value))

    try:
        trace = solver(method, fun, oracle, constraint, x0, cfg, callback)
    except Exception as exc:  # a failed solve is counted, never skipped
        trace, error = None, exc
    finally:
        if clock is not None:
            clock.end()
    wall = time.perf_counter() - start - spent()
    if trace is None:
        return SolveResult(
            method, instance.label, wall, error=type(error).__name__, evals=probe.evals,
            failure=f"raised {type(error).__name__}: {error}",
        )
    host_s = clock.median() if clock is not None else math.nan

    res = SolveResult(
        method, instance.label, wall, status=trace.status, final_f=float(trace.final_f),
        outer=len(trace.records),
        pdhg_iterations=sum(r.inner_iterations for r in trace.records),
        evals=probe.evals, backtracks=sum(r.backtracks for r in trace.records),
        inner_solves=sum(r.inner_solves for r in trace.records), host_s=host_s,
    )
    f0, ff = trace.f0, res.final_f
    res.reach_s = next((t for t, f in seen if f <= ff + REACH_SHARE * (f0 - ff)), wall)

    f_vals, deltas, gammas = trace.arrays()
    failures = verify_trace_arrays(f_vals, deltas, gammas, trace.rho, final_f=ff)
    if not rate_certificate(trace).passed:
        failures.append("rate certificate failed")
    tol = cfg.resolve_tol(f0)
    if trace.status == "stationary" and probe.last_gap is not None and probe.last_gap > tol:
        failures.append(f"stationary with inner gap {probe.last_gap:.3e} > tolerance {tol:.3e}")
    res.failure = "; ".join(failures)

    x = np.asarray(trace.final_x, dtype=float)
    if not np.all(np.isfinite(x)):
        res.problems.append("final point is not finite")
    elif not instance.feasible(x):
        res.problems.append("final point lies outside the constraint set")
    else:
        own = instance.objective(x)
        if abs(own - ff) > 1e-9 * (1.0 + abs(ff)):
            res.problems.append(f"reported final_f {ff!r} != objective at final point {own!r}")
    if ff > f0 + 1e-9 * (1.0 + abs(f0)):
        res.problems.append("final objective above the starting objective")
    return res


def run_pass(workload, seed, tracer=None, limit=None, clock=None):
    """Every (instance, method) of the workload once, one after another, or
    the first ``limit`` of them."""
    jobs, parts = build_jobs(workload, seed)
    results = []
    for i, ((instance, method), p) in enumerate(zip(jobs[:limit], parts)):
        if tracer is not None:
            tracer.solve_id = i
        results.append(run_solve(instance, method, p, workload.max_iterations, tracer, clock))
    return results
