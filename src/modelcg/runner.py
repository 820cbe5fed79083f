"""Benchmark runner: solve one problem with each requested method, write
per-method CSV traces plus a JSON summary.

A problem is handed over as its solver inputs ``(objective, oracle,
constraint, x0)``, which the problem modules build
(``regression.solver_inputs``, ``matfac.solver_inputs``); the runner knows
no problem. ``run_comparison`` takes a function that builds them, so each
method gets fresh objects and warm starts never leak across methods.

CSV schema (one row per outer iteration, then a terminal row):

    k,time_s,f,obj_err,delta,gamma,backtracks,inner_iters,rho
    final,,<f>,<obj_err>,,,,,<rho>

The terminal row holds the objective at the returned point, which the last
step's sufficient decrease is checked against. ``delta`` is the improvement
a step was accepted against, as the model solve reported it; on a row with
``gamma`` 0 (a zero step, or the last row of a stationary trace) it is that
solve's certified bound max(improvement, 0) + gap on the best model
improvement (``ModelMinimum.bound``), so no row's ``delta`` is negative.
``obj_err`` is the
objective value minus the smallest value found by any of the methods in the
run. ``rho`` is the trace's sufficient-decrease ratio (``SolverTrace.rho``),
the same on every row, so a trace file can be checked by itself. Floats
carry 17 significant digits, so numeric content is bit-stable across
reruns; only the timing column varies.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .baselines import ProxLinearConfig, prox_linear_bt_solve, prox_linear_ls_solve
from .solver import LineSearchParams, SolverConfig, mcgm_solve, verify_trace_arrays

__all__ = [
    "METHOD_NAMES",
    "CSV_COLUMNS",
    "ComparisonResult",
    "run_method",
    "methods_reading",
    "check_methods",
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
CSV_COLUMNS = ("k", "time_s", "f", "obj_err", "delta", "gamma", "backtracks", "inner_iters",
               "rho")
FINAL_ROW = "final"  # the k field of the terminal row
SUMMARY_SCHEMA = "modelcg.summary/4"


def run_method(method, inputs, ls=None, cfg=None, plcfg=None):
    """Solve the problem given by its solver inputs ``(objective, oracle,
    constraint, x0)`` with one method."""
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}")
    fun, oracle, constraint, x0 = inputs
    solve, reads = _SOLVERS[method]
    settings = {"ls": ls or LineSearchParams(), "plcfg": plcfg or ProxLinearConfig()}
    read = {k: settings[k] for k in reads}
    return solve(oracle, fun, constraint, x0, cfg=cfg or SolverConfig(), **read)


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
    rho = _fmt(trace.rho)
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
                    rho,
                ]
            )
        )
    final_f = trace.final_f
    lines.append(",".join([FINAL_ROW, "", _fmt(final_f), _fmt(final_f - f_lower)] + [""] * 4
                          + [rho]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path):
    """``(columns, final_f)`` of a trace CSV: the per-iteration columns by
    name (the final row excluded) and the objective on the final row. A
    ``rho`` column that holds more than one value, or a value
    :class:`LineSearchParams` refuses, is a ``ValueError``."""
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
    rho = np.array([row[CSV_COLUMNS.index("rho")] for row in rows], dtype=float)
    LineSearchParams(rho=float(rho[0]))
    if np.any(rho != rho[0]):
        raise ValueError(f"{path} records more than one rho")
    final_f = float(rows[-1][CSV_COLUMNS.index("f")])
    cols = {name: np.array([row[i] for row in rows[:-1]], dtype=float)
            for i, name in enumerate(CSV_COLUMNS)}
    return cols, final_f


def check_trace_file(path):
    """:func:`verify_trace_arrays` of a trace CSV, at the ``rho`` it
    records: a list of failure strings, empty when the trace checks out."""
    cols, final_f = read_trace_csv(path)
    return verify_trace_arrays(cols["f"], cols["delta"], cols["gamma"], cols["rho"][0],
                               final_f=final_f)


def check_methods(methods):
    """``methods`` as a tuple: a ValueError unless it names at least one
    method, each of ``METHOD_NAMES`` and none twice."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("no methods to compare")
    for m in methods:
        if m not in METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"a method is named twice in {', '.join(methods)}")
    return methods


def run_comparison(
    make_inputs,
    problem,
    out_dir,
    methods=METHOD_NAMES,
    ls: Optional[LineSearchParams] = None,
    cfg: Optional[SolverConfig] = None,
    plcfg: Optional[ProxLinearConfig] = None,
):
    """Make ``out_dir``, run each method on fresh inputs from ``make_inputs()``,
    and write one CSV trace per method plus ``summary.json``, which records
    ``problem`` (a JSON object describing the problem) and per method the
    failures :func:`verify_trace_arrays` finds in its trace (``checks``, empty
    when it checks out)."""
    methods = check_methods(methods)
    os.makedirs(out_dir, exist_ok=True)
    traces = {m: run_method(m, make_inputs(), ls=ls, cfg=cfg, plcfg=plcfg) for m in methods}

    f_lower = min(t.best_f() for t in traces.values())
    trace_paths = {}
    per_method = {}
    for m, t in traces.items():
        path = os.path.join(out_dir, f"{m}.csv")
        write_trace_csv(t, path, f_lower)
        trace_paths[m] = path
        per_method[m] = {
            "status": t.status,
            "iterations": len(t.records),
            "best_f": t.best_f(),
            "final_delta": t.records[-1].delta if t.records else None,
            "total_inner_solves": t.total_inner_solves(),
            "total_inner_iterations": sum(r.inner_iterations for r in t.records),
            "wall_time_s": t.records[-1].elapsed_s if t.records else 0.0,
            "checks": verify_trace_arrays(*t.arrays(), t.rho, final_f=t.final_f),
        }

    summary = {
        "schema": SUMMARY_SCHEMA,
        "f_lower": f_lower,
        "methods": per_method,
        "problem": problem,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return ComparisonResult(
        traces=traces, f_lower=f_lower, trace_paths=trace_paths,
        summary_path=summary_path, summary=summary,
    )
