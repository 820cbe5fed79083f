"""Benchmark runner: solve one dataset with each requested method from a
common start, write per-method CSV traces plus a JSON summary.

CSV schema (one row per outer iteration, then a terminal row):

    k,time_s,f,obj_err,delta,gamma,backtracks,inner_iters
    final,,<f>,<obj_err>,,,,

The terminal row holds the objective at the returned point, which the last
step's sufficient decrease is checked against. ``obj_err`` is the objective
value minus the smallest value found by any of the methods in the run.
Floats carry 17 significant digits, so numeric content is bit-stable across
reruns; only the timing column varies.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .baselines import ProxLinearConfig, prox_linear_bt_solve, prox_linear_ls_solve
from .regression import make_constraint_set, make_objective, make_oracle
from .solver import (
    LineSearchParams,
    SolverConfig,
    mcgm_solve,
    rate_certificate,
    rate_certificate_arrays,
    verify_trace_arrays,
)

__all__ = [
    "METHOD_NAMES",
    "CSV_COLUMNS",
    "ComparisonResult",
    "run_method",
    "methods_reading",
    "run_comparison",
    "write_trace_csv",
    "read_trace_csv",
    "check_trace_file",
]

METHOD_NAMES = ("mcgm", "proxlin_ls", "proxlin_bt")
# the solver of each method and the method-specific settings it reads: the
# line search ``ls`` (which holds rho) and the proximal config ``plcfg``
# (which holds tau0)
_SOLVERS = {
    "mcgm": (mcgm_solve, ("ls",)),
    "proxlin_ls": (prox_linear_ls_solve, ("plcfg", "ls")),
    "proxlin_bt": (prox_linear_bt_solve, ("plcfg",)),
}
CSV_COLUMNS = ("k", "time_s", "f", "obj_err", "delta", "gamma", "backtracks", "inner_iters")
FINAL_ROW = "final"  # the k field of the terminal row
SUMMARY_SCHEMA = "modelcg.summary/2"


def run_method(method, dataset, x0, ls=None, cfg=None, plcfg=None):
    """Solve the dataset with one method; a fresh oracle per call so warm
    starts never leak across methods."""
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}")
    oracle = make_oracle(dataset)
    fun = make_objective(dataset)
    box = make_constraint_set(dataset)
    solve, reads = _SOLVERS[method]
    settings = {"ls": ls or LineSearchParams(), "plcfg": plcfg or ProxLinearConfig()}
    read = {k: settings[k] for k in reads}
    return solve(oracle, fun, box, x0, cfg=cfg or SolverConfig(), **read)


def methods_reading(setting):
    """The methods whose solver reads ``setting`` (``"ls"`` or ``"plcfg"``)."""
    return tuple(m for m in METHOD_NAMES if setting in _SOLVERS[m][1])


@dataclass
class ComparisonResult:
    traces: Dict[str, object]
    f_lower: float
    trace_paths: Dict[str, str]
    summary_path: str
    summary: dict


def _fmt(v):
    return f"{float(v):.17g}"


def write_trace_csv(trace, path, f_lower):
    lines = [",".join(CSV_COLUMNS)]
    for r in trace.records:
        lines.append(
            ",".join(
                [
                    str(r.k),
                    _fmt(r.elapsed_s),
                    _fmt(r.f_value),
                    _fmt(r.f_value - f_lower),
                    _fmt(r.delta),
                    _fmt(r.gamma),
                    str(r.backtracks),
                    str(r.inner_iterations),
                ]
            )
        )
    final_f = trace.final_f
    lines.append(",".join([FINAL_ROW, "", _fmt(final_f), _fmt(final_f - f_lower)] + [""] * 4))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_trace(path):
    """The per-iteration columns and the final objective of a trace CSV."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected trace columns in {path}: {header}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = line.strip().split(",")
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(
                    f"{path} line {lineno} has {len(row)} fields, expected {len(CSV_COLUMNS)}"
                )
            rows.append(row)
    if len(rows) < 2 or rows[-1][0] != FINAL_ROW:
        raise ValueError(f"{path} needs iteration rows and a final row last")
    final_f = float(rows[-1][CSV_COLUMNS.index("f")])
    cols = {name: np.array([row[i] for row in rows[:-1]], dtype=float)
            for i, name in enumerate(CSV_COLUMNS)}
    return cols, final_f


def read_trace_csv(path):
    """The per-iteration columns of a trace CSV (the final row excluded)."""
    return _read_trace(path)[0]


def check_trace_file(path, rho):
    """Re-run the trace invariants on a CSV file: monotone objective,
    sufficient decrease (the last step's against the final objective),
    steps in [0, 1], and the telescoped rate bound against the best
    objective, the final one included, as :func:`rate_certificate` does.
    Returns a list of failure strings (empty means the trace checks out).
    ``rho`` must lie in (0, 1), as for :class:`LineSearchParams`, else
    ``ValueError``."""
    rho = LineSearchParams(rho=rho).rho
    cols, final_f = _read_trace(path)
    f, delta, gamma = cols["f"], cols["delta"], cols["gamma"]
    problems = verify_trace_arrays(f, delta, gamma, rho, final_f=final_f)
    f_lower = float(np.min(f, initial=final_f))
    cert = rate_certificate_arrays(f, delta, gamma, rho, f_lower)
    if not cert.passed:
        problems.append(
            f"rate bound violated at k={cert.worst_k} (ratio {cert.worst_ratio:.3e})"
        )
    return problems


def run_comparison(
    dataset,
    out_dir,
    methods=METHOD_NAMES,
    ls: Optional[LineSearchParams] = None,
    cfg: Optional[SolverConfig] = None,
    plcfg: Optional[ProxLinearConfig] = None,
    x0=None,
):
    """Run each method from the same start (box midpoint by default), write
    one CSV trace per method plus ``summary.json``, which records per method
    the ``rho`` to check its trace against (``SolverTrace.rho``)."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("no methods to compare")
    for m in methods:
        if m not in METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}")
    os.makedirs(out_dir, exist_ok=True)
    box = make_constraint_set(dataset)
    if x0 is None:
        x0 = box.midpoint()

    traces = {}
    for m in methods:
        traces[m] = run_method(m, dataset, x0, ls=ls, cfg=cfg, plcfg=plcfg)

    f_lower = min(t.best_f() for t in traces.values())
    trace_paths = {}
    per_method = {}
    for m, t in traces.items():
        path = os.path.join(out_dir, f"{m}.csv")
        write_trace_csv(t, path, f_lower)
        trace_paths[m] = path
        cert = rate_certificate(t, f_lower=f_lower)
        per_method[m] = {
            "status": t.status,
            "rho": t.rho,
            "iterations": len(t.records),
            "best_f": t.best_f(),
            "final_delta": t.records[-1].delta if t.records else None,
            "total_inner_solves": t.total_inner_solves(),
            "total_inner_iterations": sum(r.inner_iterations for r in t.records),
            "wall_time_s": t.records[-1].elapsed_s if t.records else 0.0,
            "rate_certificate": cert.passed,
        }

    summary = {
        "schema": SUMMARY_SCHEMA,
        "f_lower": f_lower,
        "methods": per_method,
        "dataset": {
            "P": dataset.P, "M": dataset.M, "mu": dataset.mu, "seed": dataset.seed,
        },
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return ComparisonResult(
        traces=traces, f_lower=f_lower, trace_paths=trace_paths,
        summary_path=summary_path, summary=summary,
    )
