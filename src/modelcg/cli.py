"""Command line interface.

Subcommands: ``gen`` (write a dataset file), ``compare`` (the one command
that runs methods, on ``--problem regression`` or ``matfac``: every method
the problem can run, or ``--methods``; CSV traces + summary, and for matfac
each method's factors), ``check`` (re-verify a trace CSV at the ``rho`` it
records).

A JSON config file (``--config``) gives defaults for any flag, required
ones included, and explicit flags win. A config key is its flag's name
(``max_iterations`` for ``--max-iterations``), and a config value must be
what its flag accepts (``_config_value``). A flag passed explicitly that
the run does not read is a configuration error: ``--rho`` or ``--tau0``
when no selected method reads it, a flag of the other problem (``--dataset``
included), and a dataset flag given with a dataset file. The same keys in a
config file are defaults.

Exit codes: 0 success, 1 configuration/usage error, 2 solver or check
failure. Non-finite values in a dataset file are a configuration error;
non-finite model data computed during a solve (``NonFiniteModelError``) are
a solver failure. So is an ``OSError`` inside a solve, while one on a path
the user named or a file the run would write is a configuration error,
found before the first solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import partial

from . import matfac, regression
from .baselines import ProxLinearConfig
from .geometry import require_integer, require_number
from .runner import (
    METHOD_NAMES,
    check_methods,
    check_trace_file,
    methods_reading,
    output_files,
    run_comparison,
)
from .solver import LineSearchParams, SolverConfig

__all__ = ["cli_main", "main"]


class ConfigError(ValueError):
    pass


# the methods that read each method-specific flag: those whose solver reads
# the line search (rho) or the proximal config (tau0)
_SOLVER_FLAG_READERS = {"rho": methods_reading("ls"), "tau0": methods_reading("plcfg")}
# the problems that read each problem flag: seed is shared
_PROBLEM_PARAMETERS = {"regression": (*regression.GENERATION_PARAMETERS, "dataset"),
                       "matfac": tuple(matfac.GENERATION_PARAMETERS)}
_PROBLEM_FLAG_READERS = {k: tuple(p for p, keys in _PROBLEM_PARAMETERS.items() if k in keys)
                         for keys in _PROBLEM_PARAMETERS.values() for k in keys}


def _flag(name):
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """A parser whose namespace holds only the flags given. A flag's
    ``default`` and ``required`` apply once the config file is merged
    (``_settings``), so a config file can give either."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)

    def add_argument(self, *args, default=None, required=False, **kwargs):
        if default is not None:
            kwargs.setdefault("help", f"default: {default}")
        action = super().add_argument(*args, **kwargs)
        action.setting_default, action.setting_required = default, required
        return action

    # usage problems (unknown flags, bad values) exit 1 rather than argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    """The ``modelcg`` parser, and the parser of each subcommand by name."""
    parser = _Parser(prog="modelcg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults for the flags")

    dataset_flags = _Parser(add_help=False)
    for name, kind in regression.GENERATION_PARAMETERS.items():
        dataset_flags.add_argument(_flag(name), type=kind)

    g = sub.add_parser("gen", parents=[common, dataset_flags], help="generate a dataset file")
    g.set_defaults(run=_cmd_gen)
    g.add_argument("--out", required=True)

    solver_flags = _Parser(add_help=False)
    solver_flags.add_argument("--max-iterations", type=int)
    solver_flags.add_argument("--delta-tol", type=float)
    solver_flags.add_argument("--time-budget", type=float)
    solver_flags.add_argument("--rho", type=float)
    solver_flags.add_argument("--tau0", type=float)

    c = sub.add_parser(
        "compare", parents=[common, solver_flags, dataset_flags], help="run methods"
    )
    c.set_defaults(run=_cmd_compare)
    c.add_argument("--problem", choices=tuple(_PROBLEM_PARAMETERS), default="regression")
    for name, kind in matfac.GENERATION_PARAMETERS.items():
        if name not in regression.GENERATION_PARAMETERS:
            c.add_argument(_flag(name), **({"choices": kind} if isinstance(kind, tuple)
                                           else {"type": kind}))
    c.add_argument("--dataset", help="dataset file (default: generate one from the dataset flags)")
    c.add_argument("--methods", help="comma separated subset of " + ",".join(METHOD_NAMES))
    c.add_argument("--out", required=True, help="output directory")

    k = sub.add_parser("check", parents=[common], help="verify a trace CSV")
    k.set_defaults(run=_cmd_check)
    k.add_argument("--trace", required=True)
    return parser, sub.choices


def _config_value(flags, key, value):
    """A config file's ``value`` for ``key``, read through the flag of that
    name in ``flags``: an integer for an ``int`` flag (``6.0`` reads as 6), a
    number for a ``float`` flag, one of the choices of a flag with choices,
    and a string for any other. ``methods`` may also be a list of names, and
    ``dataset``, beside the dataset flags, an object of dataset parameters."""
    if key == "dataset" and regression.GENERATION_PARAMETERS.keys() <= flags.keys():
        if isinstance(value, str):
            return value
        if not isinstance(value, dict):
            raise ConfigError(
                f"dataset must be a file path or an object of dataset parameters, got {value!r}"
            )
        dataset_flags = {k: flags[k] for k in regression.GENERATION_PARAMETERS}
        return {k: _config_value(dataset_flags, k, v) for k, v in value.items()}
    if key not in flags:
        raise ConfigError(f"the config key {key!r} is none of {', '.join(flags)}")
    if key == "methods" and not (isinstance(value, str) or isinstance(value, list)
                                 and all(isinstance(m, str) for m in value)):
        raise ConfigError(
            f"methods must be a comma-separated string or a list of strings, got {value!r}"
        )
    action = flags[key]
    if action.type is int:
        # JSON has one number type: an integral float such as 6.0 reads as 6
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return require_integer(value, key)
    if action.type is float:
        return require_number(value, key)
    if action.choices is not None:
        if value not in action.choices:
            raise ConfigError(f"{key} must be one of {', '.join(action.choices)}, got {value!r}")
    elif not isinstance(value, str) and key != "methods":
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _settings(parser, args):
    """The run's settings by name: the flags of ``parser`` given, over the
    config file's values, over the flags' defaults."""
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    config = {}
    if "config" in args:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    settings = {k: a.setting_default for k, a in flags.items() if a.setting_default is not None}
    settings.update((key, _config_value(flags, key, value)) for key, value in config.items())
    settings.update((k, v) for k, v in vars(args).items() if k in flags)
    for k, a in flags.items():
        if a.setting_required and k not in settings:
            raise ConfigError(f"{a.option_strings[0]} is required, as a flag or in the config")
    return settings


def _reject_unread_flags(args, selected, readers):
    """A ConfigError for an explicitly passed flag that none of the
    ``selected`` methods or problems reads."""
    for flag, names in readers.items():
        if flag in args and not set(selected) & set(names):
            raise ConfigError(
                f"{_flag(flag)} is read only by {', '.join(names)}, "
                f"and this run selects {', '.join(selected)}"
            )


def _dataset_source(args, settings):
    """A run's dataset as a file path, which no explicit dataset flag may
    come with, or as generation parameters: the ``dataset`` object under the
    explicit dataset flags, or else the dataset settings."""
    source = settings.get("dataset")
    if source is None:
        return {k: v for k, v in settings.items() if k in regression.GENERATION_PARAMETERS}
    given = {k: v for k, v in vars(args).items() if k in regression.GENERATION_PARAMETERS}
    if isinstance(source, str) and given:
        raise ConfigError(f"the dataset flags {', '.join(given)} cannot be given with the "
                          f"dataset file {source!r}")
    return source if isinstance(source, str) else {**source, **given}


def _solver_configs(settings):
    """The solver configs, each given the settings named as its fields
    (``time_budget`` is ``SolverConfig.time_budget_s``)."""
    given = {"time_budget_s" if k == "time_budget" else k: v for k, v in settings.items()}
    return [cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})
            for cls in (LineSearchParams, SolverConfig, ProxLinearConfig)]


@contextmanager
def _user_path(path):
    """An ``OSError`` on ``path``, a path the user named, as a ConfigError
    that names the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot use {path!r}: {exc.strerror or exc}") from exc


def _cmd_gen(args, settings):
    params = _dataset_source(args, settings)
    if isinstance(params, str):
        raise ConfigError(f"gen needs dataset parameters, and the dataset is a file: {params!r}")
    dataset = regression.generate_regression_data(**params)
    with _user_path(settings["out"]):
        regression.save_dataset(dataset, settings["out"])
    print(f"wrote {settings['out']} (P={dataset.P}, M={dataset.M}, seed={dataset.seed})")
    return 0


def _check_writable(path):
    """Open ``path``, a file the run will write, for appending (a
    ConfigError that names it if that fails), and remove it again if that
    made it."""
    made = not os.path.lexists(path)
    with _user_path(path), open(path, "a", encoding="utf-8"):
        pass
    if made:
        os.remove(path)


def _regression_problem(args, settings):
    """The function that makes the regression run's solver inputs, and its
    summary's problem object: the dataset's parameters, and the file it was
    read from."""
    source = _dataset_source(args, settings)
    if isinstance(source, str):
        with _user_path(source):
            dataset = regression.load_dataset(source)
        problem = {**dataset.generation_parameters, "dataset": source}
    else:
        dataset = regression.generate_regression_data(**source)
        problem = dataset.generation_parameters
    return partial(regression.solver_inputs, dataset), problem


def _cmd_compare(args, settings):
    _reject_unread_flags(args, (settings["problem"],), _PROBLEM_FLAG_READERS)
    mf = None
    if settings["problem"] == "matfac":
        mf, problem = matfac.generate_problem(
            **{k: v for k, v in settings.items() if k in matfac.GENERATION_PARAMETERS})
        make_inputs = partial(matfac.solver_inputs, mf, problem["seed"])
    else:
        make_inputs, problem = _regression_problem(args, settings)
    methods = settings.get("methods")
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    methods = check_methods(methods, make_inputs()[4])
    _reject_unread_flags(args, methods, _SOLVER_FLAG_READERS)
    ls, cfg, plcfg = _solver_configs(settings)
    out = settings["out"]
    factors = {} if mf is None else {m: os.path.join(out, f"{m}-factors.json") for m in methods}
    with _user_path(out):  # before the first solve, as is every file the run writes
        os.makedirs(out, exist_ok=True)
    for path in output_files(out, methods) + list(factors.values()):
        _check_writable(path)
    result = run_comparison(make_inputs, problem, out, methods=methods, ls=ls, cfg=cfg,
                            plcfg=plcfg)
    for m, path in factors.items():
        matfac.write_factors(mf, result.traces[m].final_x, path, m)
    for m, info in result.summary["methods"].items():
        print(
            f"{m}: status={info['status']} best_f={info['best_f']:.9g} "
            f"inner_solves={info['total_inner_solves']}"
        )
    print(f"wrote {result.summary_path}")
    return 0


def _cmd_check(args, settings):
    with _user_path(settings["trace"]):
        problems = check_trace_file(settings["trace"])
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 2
    print("trace checks passed")
    return 0


def cli_main(argv=None):
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, _settings(subparsers[args.command], args))
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver failures
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
