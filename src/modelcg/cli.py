"""Command line interface.

Subcommands: ``gen`` (write a dataset file), ``solve`` (one method on a
dataset), ``compare`` (all methods, CSV traces + summary), ``mf-demo``
(matrix factorization: a comparison of ``mcgm`` alone on the problem's
model, plus ``factors.json``), ``check`` (re-verify a trace CSV at the
``rho`` it records). Options come from an optional JSON config file with
explicit flags taking precedence.

A method-specific flag passed explicitly to a run that selects no method
reading it is a configuration error: ``--rho`` (read by ``mcgm`` and
``proxlin_ls``), ``--tau0`` (``proxlin_ls`` and ``proxlin_bt``) and
``mf-demo --tau`` (the ``hybrid`` model). The same keys in a config file are
defaults and pass.

Exit codes: 0 success, 1 configuration/usage error, 2 solver or check
failure. Non-finite values in a dataset file are a configuration error;
non-finite model data computed during a solve (``NonFiniteModelError``) are
a solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import matfac, regression
from .baselines import ProxLinearConfig
from .geometry import require_integer, require_number
from .runner import (
    METHOD_NAMES,
    check_trace_file,
    methods_reading,
    run_comparison,
    run_method,
    write_trace_csv,
)
from .solver import LineSearchParams, SolverConfig

__all__ = ["cli_main", "main"]


class ConfigError(ValueError):
    pass


# the methods that read each method-specific flag: those whose solver reads
# the line search (rho) or the proximal config (tau0)
_SOLVER_FLAG_READERS = {"rho": methods_reading("ls"), "tau0": methods_reading("plcfg")}
_MF_FLAG_READERS = {"tau": ("hybrid",)}


class _Parser(argparse.ArgumentParser):
    # usage problems (unknown flags, bad values) exit 1 rather than argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="modelcg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults for the flags")

    dataset_flags = argparse.ArgumentParser(add_help=False)
    dataset_flags.add_argument("--P", type=int)
    dataset_flags.add_argument("--M", type=int)
    dataset_flags.add_argument("--mu", type=float)
    dataset_flags.add_argument("--a-max", type=float)
    dataset_flags.add_argument("--b-max", type=float)
    dataset_flags.add_argument("--sparsity", type=float)
    dataset_flags.add_argument("--noise-scale", type=float)
    dataset_flags.add_argument("--seed", type=int)

    g = sub.add_parser("gen", parents=[common, dataset_flags], help="generate a dataset file")
    g.add_argument("--out", required=True)

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--max-iterations", type=int)
    solver_flags.add_argument("--delta-tol", type=float)
    solver_flags.add_argument("--time-budget", type=float)
    solver_flags.add_argument("--rho", type=float)
    solver_flags.add_argument("--tau0", type=float)

    s = sub.add_parser("solve", parents=[common, solver_flags], help="run one method")
    s.add_argument("--dataset", required=True)
    s.add_argument("--method", choices=METHOD_NAMES, help="default: mcgm")
    s.add_argument("--out", help="trace CSV path")

    c = sub.add_parser(
        "compare", parents=[common, solver_flags, dataset_flags], help="run all methods"
    )
    c.add_argument("--dataset", help="dataset file (default: generate one from the dataset flags)")
    c.add_argument("--methods", help="comma separated subset of " + ",".join(METHOD_NAMES))
    c.add_argument("--out", required=True, help="output directory")

    m = sub.add_parser("mf-demo", parents=[common], help="matrix factorization demo")
    m.add_argument("--rows", type=int)
    m.add_argument("--cols", type=int)
    m.add_argument("--inner-dim", type=int)
    m.add_argument("--x-set", choices=("unit_atoms", "simplex"))
    m.add_argument("--y-set", choices=("sparsity", "low_rank"))
    m.add_argument("--radius", type=float)
    m.add_argument("--model", choices=("cg", "hybrid"))
    m.add_argument("--tau", type=float)
    m.add_argument("--seed", type=int)
    m.add_argument("--max-iterations", type=int)
    m.add_argument("--out", required=True, help="output directory")

    k = sub.add_parser("check", parents=[common], help="verify a trace CSV")
    k.add_argument("--trace", required=True)
    return parser


def _explicit(args):
    """The flags set on the command line."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "config") and v is not None}


def _merged(args):
    """Config-file values overlaid by explicitly set flags."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(data)
    merged.update(_explicit(args))
    return merged


def _reject_unread_flags(args, selected, readers):
    """A ConfigError for an explicitly passed flag that none of the
    ``selected`` methods reads."""
    for flag, methods in readers.items():
        if getattr(args, flag, None) is not None and not set(selected) & set(methods):
            raise ConfigError(
                f"--{flag} is read only by {', '.join(methods)}, "
                f"and this run selects {', '.join(selected)}"
            )


def _int_option(opts, key, default=None):
    # a config file can hold any JSON value (geometry.require_integer)
    return require_integer(opts.get(key, default), key)


def _float_option(opts, key, default=None):
    return require_number(opts.get(key, default), key)


def _dataset_params(opts):
    params = {k: _int_option(opts, k) for k in ("P", "M", "seed") if k in opts}
    for k in ("mu", "a_max", "b_max", "sparsity", "noise_scale"):
        if k in opts:
            params[k] = _float_option(opts, k)
    return params


def _dataset_source(args, opts):
    """A run's dataset as a file path, or as generation parameters. The
    ``dataset`` value is a path string or an object of parameters, which the
    explicit dataset flags override; without it, the parameters are read
    from ``opts`` itself."""
    source = opts.get("dataset")
    if source is None:
        return _dataset_params(opts)
    if isinstance(source, str):
        return source
    if not isinstance(source, dict):
        raise ConfigError(
            f"dataset must be a file path or an object of dataset parameters, got {source!r}"
        )
    return _dataset_params({**source, **_explicit(args)})


def _solver_configs(opts):
    ls_kwargs = {}
    if "rho" in opts:
        ls_kwargs["rho"] = _float_option(opts, "rho")
    cfg_kwargs = {}
    if "max_iterations" in opts:
        cfg_kwargs["max_iterations"] = _int_option(opts, "max_iterations")
    if "delta_tol" in opts:
        cfg_kwargs["delta_tol"] = _float_option(opts, "delta_tol")
    if "time_budget" in opts:
        cfg_kwargs["time_budget_s"] = _float_option(opts, "time_budget")
    pl_kwargs = {}
    if "tau0" in opts:
        pl_kwargs["tau0"] = _float_option(opts, "tau0")
    return LineSearchParams(**ls_kwargs), SolverConfig(**cfg_kwargs), ProxLinearConfig(**pl_kwargs)


def _cmd_gen(args):
    opts = _merged(args)
    params = _dataset_source(args, opts)
    if isinstance(params, str):
        raise ConfigError(f"gen needs dataset parameters, and the dataset is a file: {params!r}")
    dataset = regression.generate_regression_data(**params)
    regression.save_dataset(dataset, opts["out"])
    print(f"wrote {opts['out']} (P={dataset.P}, M={dataset.M}, seed={dataset.seed})")
    return 0


def _cmd_solve(args):
    opts = _merged(args)
    dataset = regression.load_dataset(opts["dataset"])
    ls, cfg, plcfg = _solver_configs(opts)
    method = opts.get("method", "mcgm")
    if method not in METHOD_NAMES:
        raise ConfigError(f"method must be one of {', '.join(METHOD_NAMES)}, got {method!r}")
    _reject_unread_flags(args, (method,), _SOLVER_FLAG_READERS)
    trace = run_method(method, regression.solver_inputs(dataset), ls=ls, cfg=cfg, plcfg=plcfg)
    if opts.get("out"):
        write_trace_csv(trace, opts["out"], trace.best_f())
    print(
        f"method={trace.method} status={trace.status} iterations={len(trace.records)} "
        f"f={trace.final_f:.9g} delta={trace.records[-1].delta:.3e}"
    )
    return 0


def _cmd_compare(args):
    opts = _merged(args)
    source = _dataset_source(args, opts)
    dataset = (regression.load_dataset(source) if isinstance(source, str)
               else regression.generate_regression_data(**source))
    methods = opts.get("methods", METHOD_NAMES)
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    elif not (isinstance(methods, (list, tuple)) and all(isinstance(m, str) for m in methods)):
        raise ConfigError(
            f"methods must be a comma-separated string or a list of strings, got {methods!r}"
        )
    _reject_unread_flags(args, methods, _SOLVER_FLAG_READERS)
    ls, cfg, plcfg = _solver_configs(opts)
    problem = {"P": dataset.P, "M": dataset.M, "mu": dataset.mu, "seed": dataset.seed}
    result = run_comparison(lambda: regression.solver_inputs(dataset), problem, opts["out"],
                            methods=methods, ls=ls, cfg=cfg, plcfg=plcfg)
    for m, info in result.summary["methods"].items():
        print(
            f"{m}: status={info['status']} best_f={info['best_f']:.9g} "
            f"inner_solves={info['total_inner_solves']}"
        )
    print(f"wrote {result.summary_path}")
    return 0


def _cmd_mf_demo(args):
    opts = _merged(args)
    _reject_unread_flags(args, (opts.get("model", "cg"),), _MF_FLAG_READERS)
    rows = _int_option(opts, "rows", 20)
    cols = _int_option(opts, "cols", 15)
    seed = _int_option(opts, "seed", 0)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, 1)) @ rng.standard_normal((1, cols))
    problem = matfac.MfProblem(
        A=A,
        inner_dim=_int_option(opts, "inner_dim", 4),
        x_kind=opts.get("x_set", "unit_atoms"),
        y_kind=opts.get("y_set", "low_rank"),
        radius=_float_option(opts, "radius", 1.5 * np.linalg.norm(A, "nuc")),
        model=opts.get("model", "cg"),
        tau=_float_option(opts, "tau", 1.0),
    )
    described = {"rows": rows, "cols": cols, "inner_dim": problem.inner_dim,
                 "x_set": problem.x_kind, "y_set": problem.y_kind,
                 "radius": problem.radius, "model": problem.model,
                 "tau": problem.tau, "seed": seed}
    cfg = SolverConfig(max_iterations=_int_option(opts, "max_iterations", 150))
    result = run_comparison(lambda: matfac.solver_inputs(problem, seed), described, opts["out"],
                            methods=("mcgm",), cfg=cfg)
    trace = result.traces["mcgm"]
    matfac.write_factors(problem, trace.final_x, os.path.join(opts["out"], "factors.json"))
    X, Y = matfac.unpack_factors(problem, trace.final_x)
    rel = float(np.linalg.norm(A - X @ Y) / np.linalg.norm(A))
    print(
        f"mf-demo status={trace.status} iterations={len(trace.records)} "
        f"relative_residual={rel:.4f}"
    )
    return 0


def _cmd_check(args):
    problems = check_trace_file(_merged(args)["trace"])
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 2
    print("trace checks passed")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "mf-demo": _cmd_mf_demo,
    "check": _cmd_check,
}


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver failures
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
