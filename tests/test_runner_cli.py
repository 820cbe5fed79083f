import errno
import json
import re

import numpy as np
import pytest

from modelcg.baselines import ACCEPT_RATIO
from modelcg.cli import cli_main
from modelcg.regression import (
    RegressionDataset,
    eval_F,
    generate_regression_data,
    load_dataset,
    save_dataset,
    solver_inputs,
)
from modelcg.runner import (
    CSV_COLUMNS,
    METHOD_NAMES,
    check_methods,
    check_trace_file,
    read_trace_csv,
    run_comparison,
    run_method,
    write_trace_csv,
)
from modelcg.solver import LineSearchParams, SolverConfig, rate_certificate, verify_trace_arrays


# the methods a regression problem runs, which designates no coordinate block
REGRESSION_METHODS = ("mcgm", "proxlin_ls", "proxlin_bt")
# a compare run on the matrix factorization problem
MATFAC = ["compare", "--problem", "matfac"]
SMALL_MATFAC = MATFAC + ["--rows", "6", "--cols", "5", "--inner-dim", "2"]


def small_dataset(seed=0):
    # sparsity 0.5 keeps 2 of the 4 amplitudes: the default 0.8 zeroes all 4
    return generate_regression_data(P=4, M=30, mu=2.0, a_max=4.0, b_max=2.5, sparsity=0.5,
                                    seed=seed)


def compare(ds, out_dir, **kwargs):
    """``run_comparison`` on a regression dataset."""
    return run_comparison(lambda: solver_inputs(ds), {"seed": ds.seed}, out_dir, **kwargs)


def strip_time_column(path):
    lines = open(path).read().strip().splitlines()
    idx = CSV_COLUMNS.index("time_s")
    return [
        ",".join(v for i, v in enumerate(line.split(",")) if i != idx)
        for line in lines
    ]


# ---------------------------------------------------------------------------
# comparison runner
# ---------------------------------------------------------------------------


def test_run_comparison_outputs(tmp_path):
    ds = small_dataset()
    res = run_comparison(lambda: solver_inputs(ds), {"name": "small"}, str(tmp_path / "out"),
                         cfg=SolverConfig(max_iterations=25))
    assert set(res.trace_paths) == set(REGRESSION_METHODS)
    header = None
    for path in res.trace_paths.values():
        cols, _ = read_trace_csv(path)
        assert set(cols) == set(CSV_COLUMNS)
        if header is None:
            header = open(path).readline()
        assert open(path).readline() == header  # identical schema
        assert np.all(cols["obj_err"] >= -1e-12)
    summary = json.loads(open(res.summary_path).read())
    assert summary["schema"] == "modelcg.summary/4"
    assert summary["problem"] == {"name": "small"}
    assert set(summary["methods"]) == set(REGRESSION_METHODS)
    for info in summary["methods"].values():
        assert info["checks"] == []
        assert info["best_f"] >= res.f_lower


@pytest.mark.parametrize(
    "method, final_f, inner_iterations, backtracks, inner_solves, status",
    [
        ("mcgm", "0x1.76666010efc38p+4", 26575, 106, 30, "max_iterations"),
        ("proxlin_ls", "0x1.767cfb830d238p+4", 850, 0, 30, "max_iterations"),
        ("proxlin_bt", "0x1.765e19eb7a4dfp+4", 2600, 24, 38, "stationary"),
    ],
    ids=["mcgm", "proxlin_ls", "proxlin_bt"],
)
def test_regression_golden_run(method, final_f, inner_iterations, backtracks,
                               inner_solves, status):
    # pins the defaults of the line search, the stationarity tolerance, the
    # inner stop rule and the proximal-weight rule (SHRINK, MAX_BACKTRACKS,
    # DELTA_RTOL, inner.GAP_RATIO, TAU_*, ACCEPT_RATIO); the instance makes
    # mcgm backtrack and proxlin_bt shrink its weight
    ds = generate_regression_data(P=5, M=40, mu=3.0, seed=11)
    trace = run_method(method, solver_inputs(ds), cfg=SolverConfig(max_iterations=30))
    assert trace.final_f.hex() == final_f
    assert sum(r.inner_iterations for r in trace.records) == inner_iterations
    assert sum(r.backtracks for r in trace.records) == backtracks
    assert trace.total_inner_solves() == inner_solves
    assert trace.status == status


def test_single_method_lower_bound_is_its_own_best(tmp_path):
    ds = small_dataset(seed=1)
    res = compare(ds, str(tmp_path / "solo"), methods=("mcgm",),
                  cfg=SolverConfig(max_iterations=25))
    assert res.f_lower == res.traces["mcgm"].best_f()


def test_rerun_is_bit_identical_outside_timing(tmp_path):
    ds = small_dataset(seed=2)
    cfg = SolverConfig(max_iterations=20)
    res1 = compare(ds, str(tmp_path / "a"), cfg=cfg)
    res2 = compare(ds, str(tmp_path / "b"), cfg=cfg)
    for m in REGRESSION_METHODS:
        assert strip_time_column(res1.trace_paths[m]) == strip_time_column(res2.trace_paths[m])


def test_check_trace_file_detects_corruption(tmp_path):
    ds = small_dataset(seed=3)
    res = compare(ds, str(tmp_path / "c"), methods=("mcgm",),
                  cfg=SolverConfig(max_iterations=20))
    path = res.trace_paths["mcgm"]
    assert check_trace_file(path) == []
    lines = open(path).read().splitlines()
    parts = lines[1].split(",")
    parts[CSV_COLUMNS.index("delta")] = "1e12"  # inflate one improvement
    lines[1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert check_trace_file(str(bad)) != []


def test_csv_check_and_in_memory_certificate_agree(tmp_path):
    # the CSV path and the trace path give the same verdict on the same
    # trace, clean and with one improvement inflated; the per-step check
    # rejects the inflated trace the telescoped rate bound rejects
    ds = small_dataset(seed=3)
    res = compare(ds, str(tmp_path / "c"), methods=("mcgm",),
                  cfg=SolverConfig(max_iterations=20))
    trace = res.traces["mcgm"]
    assert check_trace_file(res.trace_paths["mcgm"]) == []
    assert rate_certificate(trace).passed
    trace.records[0].delta = 1e12
    bad = tmp_path / "bad.csv"
    write_trace_csv(trace, str(bad), res.f_lower)
    problems = check_trace_file(str(bad))
    assert problems == verify_trace_arrays(*trace.arrays(), trace.rho, final_f=trace.final_f)
    assert "sufficient decrease violated at k=0" in problems
    assert not rate_certificate(trace).passed


def test_csv_check_reads_the_final_objective(tmp_path):
    # one iteration: the only step ends at the returned point, so its
    # sufficient decrease needs final_f
    res = compare(small_dataset(seed=0), str(tmp_path / "one"), methods=("mcgm",),
                  cfg=SolverConfig(max_iterations=1))
    trace = res.traces["mcgm"]
    f, delta, gamma = trace.arrays()
    assert trace.final_f < f[-1]
    assert verify_trace_arrays(f, delta, gamma, trace.rho, final_f=trace.final_f) == []
    assert rate_certificate(trace).passed
    path = res.trace_paths["mcgm"]
    assert check_trace_file(path) == []
    cols, final_f = read_trace_csv(path)
    np.testing.assert_array_equal(cols["f"], f)
    assert final_f == trace.final_f

    # a final objective that decreased, but by less than rho * gamma * delta
    bad_f = f[-1] - 0.1 * trace.rho * gamma[-1] * delta[-1]
    lines = open(path).read().splitlines()
    parts = lines[-1].split(",")
    assert parts[0] == "final"
    parts[CSV_COLUMNS.index("f")] = repr(float(bad_f))
    lines[-1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    trace.final_f = bad_f
    problems = check_trace_file(str(bad))
    assert problems[0] == "sufficient decrease violated at k=0"
    assert problems == verify_trace_arrays(f, delta, gamma, trace.rho, final_f=bad_f)
    # the raised lower bound also breaks the telescoped rate bound, which
    # adds nothing to the per-step check
    assert not rate_certificate(trace).passed
    assert problems == ["sufficient decrease violated at k=0"]

    # a trace without its final row is malformed, not silently shorter
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        check_trace_file(str(cut))


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(ValueError):
        compare(small_dataset(), str(tmp_path), methods=("nope",))


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------


def test_cli_gen_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
    base = ["gen", "--seed", "7", "--P", "6", "--M", "40"]
    assert cli_main(base + ["--out", str(p1)]) == 0
    assert cli_main(base + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_solve_stationary_start_gives_single_record(tmp_path, capsys):
    # hand-built dataset whose box midpoint is already optimal: observations
    # exactly match the midpoint parameters and there is no penalty
    P, M = 3, 20
    x = np.linspace(0, 1, M)
    a = np.full(P, 2.0)
    b = np.full(P, 1.0)
    ds = RegressionDataset(
        covariates=x, observations=eval_F(a, b, x), a_true=a, b_true=b,
        P=P, M=M, mu=0.0, a_max=4.0, b_max=2.0, sparsity=0.0,
        noise_scale=0.0, seed=0,
    )
    path = tmp_path / "stationary.json"
    save_dataset(ds, path)
    out = tmp_path / "r"
    code = cli_main(["compare", "--dataset", str(path), "--methods", "mcgm",
                     "--out", str(out)])
    assert code == 0
    cols, _ = read_trace_csv(str(out / "mcgm.csv"))
    assert len(cols["k"]) == 1
    assert cols["gamma"][0] == 0.0
    assert "stationary" in capsys.readouterr().out


def test_cli_compare_and_check_roundtrip(tmp_path):
    cfg = {"P": 4, "M": 30, "mu": 2.0, "sparsity": 0.5, "seed": 5, "max_iterations": 20}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    assert cli_main(["compare", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    for m in REGRESSION_METHODS:
        assert (out_dir / f"{m}.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert cli_main(["check", "--trace", str(out_dir / "mcgm.csv")]) == 0


def _with_rho_column(path, values, out):
    """A copy of the trace CSV at ``path`` whose rho field on row i (the
    header excluded) is ``values[i]``, the last value repeated."""
    lines = open(path).read().splitlines()
    idx = CSV_COLUMNS.index("rho")
    for i in range(1, len(lines)):
        parts = lines[i].split(",")
        parts[idx] = values[min(i - 1, len(values) - 1)]
        lines[i] = ",".join(parts)
    out.write_text("\n".join(lines) + "\n")
    return str(out)


def test_cli_check_reads_the_rho_each_compare_trace_records(tmp_path):
    # proxlin_bt accepts at its own ratio, not the line search's, and its
    # trace records that ratio: checked at rho 0.9 it would fail the
    # sufficient decrease at k=4 to 8. check takes no rho, from a flag or
    # from a config file
    out_dir = tmp_path / "results"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.9}))
    assert cli_main(["compare", "--P", "8", "--M", "60", "--mu", "2", "--seed", "3",
                     "--rho", "0.9", "--max-iterations", "10", "--out", str(out_dir)]) == 0
    rhos = {m: read_trace_csv(str(out_dir / f"{m}.csv"))[0]["rho"] for m in REGRESSION_METHODS}
    assert {m: set(r) for m, r in rhos.items()} == {
        "mcgm": {0.9}, "proxlin_ls": {0.9}, "proxlin_bt": {ACCEPT_RATIO},
    }
    for m in REGRESSION_METHODS:
        trace = str(out_dir / f"{m}.csv")
        assert cli_main(["check", "--trace", trace]) == 0, m
        assert cli_main(["check", "--config", str(cfg), "--trace", trace]) == 1, m
    at_09 = _with_rho_column(out_dir / "proxlin_bt.csv", ["0.9"], tmp_path / "bt09.csv")
    assert check_trace_file(at_09) == [
        f"sufficient decrease violated at k={k}" for k in range(4, 9)
    ]


def test_summary_checks_are_those_of_the_trace_file_and_of_the_trace(tmp_path):
    res = compare(small_dataset(seed=3), str(tmp_path / "r"),
                  ls=LineSearchParams(rho=0.9), cfg=SolverConfig(max_iterations=10))
    summary = json.loads(open(res.summary_path).read())
    for m, trace in res.traces.items():
        in_memory = verify_trace_arrays(*trace.arrays(), trace.rho, final_f=trace.final_f)
        assert summary["methods"][m]["checks"] == check_trace_file(res.trace_paths[m]), m
        assert summary["methods"][m]["checks"] == in_memory, m
    # a failing check is recorded the same way by all three
    trace = res.traces["mcgm"]
    trace.records[0].delta = 1e12
    write_trace_csv(trace, str(tmp_path / "bad.csv"), res.f_lower)
    problems = check_trace_file(str(tmp_path / "bad.csv"))
    assert problems == verify_trace_arrays(*trace.arrays(), trace.rho, final_f=trace.final_f)
    assert "sufficient decrease violated at k=0" in problems


@pytest.mark.parametrize("problem, flags, message", [
    ("regression", ["--methods", "proxlin_bt", "--rho", "0.9"], "--rho is read only by"),
    ("regression", ["--methods", "mcgm", "--tau0", "5"], "--tau0 is read only by"),
    ("matfac", ["--methods", "mcgm", "--tau0", "2"],
     "--tau0 is read only by proxlin_ls, proxlin_bt, mcgm_hybrid, and this run selects mcgm"),
    ("matfac", ["--P", "4"], "--P is read only by regression, and this run selects matfac"),
    ("matfac", ["--dataset", "{dataset}"], "--dataset is read only by regression"),
    ("regression", ["--rows", "6"], "--rows is read only by matfac, and this run selects "
                                    "regression"),
    ("regression", ["--x-set", "simplex"], "--x-set is read only by matfac"),
], ids=["compare-rho-bt", "compare-tau0-mcgm", "mf-tau-cg", "mf-regression-flag", "mf-dataset",
        "compare-mf-flag", "compare-mf-choice"])
def test_cli_rejects_a_flag_no_selected_method_reads(tmp_path, capsys, problem, flags, message):
    # a flag that no selected method, or not the selected problem, reads is
    # an error, not silently dropped
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    where = {"regression": ["compare", "--dataset", str(path)], "matfac": SMALL_MATFAC}
    argv = where[problem] + [f.format(dataset=path) for f in flags]
    assert cli_main(argv + ["--max-iterations", "2", "--out", str(tmp_path / "out")]) == 1
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--rho", "0.9"], ["--tau0", "5"]],
                         ids=["no-flag", "rho", "tau0"])
def test_cli_compare_names_an_unknown_method_before_any_unread_flag(tmp_path, capsys, flags):
    # the method names are checked first: a flag read by no selected method
    # cannot be judged before the run knows which methods it selects
    out = tmp_path / "r"
    assert cli_main(["compare", "--P", "4", "--M", "30", "--methods", "nope",
                     "--out", str(out)] + flags) == 1
    assert "configuration error: unknown method 'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_keeps_config_file_flags_as_defaults(tmp_path):
    # a config file is shared by several runs: a key one method does not
    # read is a default, not an error
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.5, "tau0": 2.0, "max_iterations": 2}))
    assert cli_main(["compare", "--dataset", str(path), "--methods", "mcgm",
                     "--config", str(cfg), "--out", str(tmp_path / "mcgm")]) == 0
    assert cli_main(["compare", "--dataset", str(path), "--methods", "proxlin_bt",
                     "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    # and so is a key of the other problem
    cfg.write_text(json.dumps({"tau0": 3.0, "P": 4, "dataset": str(path), "max_iterations": 2}))
    assert cli_main(SMALL_MATFAC + ["--methods", "mcgm", "--config", str(cfg),
                                    "--out", str(tmp_path / "mf")]) == 0
    cfg.write_text(json.dumps({"rows": 6, "y_set": "sparsity", "max_iterations": 2}))
    assert cli_main(["compare", "--dataset", str(path), "--methods", "mcgm",
                     "--config", str(cfg), "--out", str(tmp_path / "reg")]) == 0


@pytest.mark.parametrize("method, flags, rho", [
    ("mcgm", ["--rho", "0.5"], 0.5),
    ("proxlin_ls", [], 0.25),
    ("proxlin_bt", ["--tau0", "2"], ACCEPT_RATIO),
])
def test_cli_solve_writes_the_rho_its_trace_checks_against(tmp_path, capsys, monkeypatch,
                                                           method, flags, rho):
    # a relative output path, so the directory printed holds no "rho"
    monkeypatch.chdir(tmp_path)
    save_dataset(small_dataset(seed=2), "d.json")
    out = tmp_path / "r" / f"{method}.csv"
    assert cli_main(["compare", "--dataset", "d.json", "--methods", method, "--out", "r",
                     "--max-iterations", "6"] + flags) == 0
    assert "rho" not in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert {line.split(",")[CSV_COLUMNS.index("rho")] for line in lines[1:]} == {repr(rho)}
    assert cli_main(["check", "--trace", str(out)]) == 0


@pytest.mark.parametrize("values, message", [
    (["nan"], "rho must lie in (0, 1)"),
    (["0"], "rho must lie in (0, 1)"),
    (["1"], "rho must lie in (0, 1)"),
    (["1.5"], "rho must lie in (0, 1)"),
    (["0.25", "0.5"], "records more than one rho"),
    (["0.25", "nan"], "records more than one rho"),
], ids=["nan", "0", "1", "1.5", "two-values", "then-nan"])
def test_cli_check_rejects_a_trace_whose_rho_column_is_bad(tmp_path, capsys, values, message):
    ds = small_dataset(seed=4)
    res = compare(ds, str(tmp_path / "r"), methods=("mcgm",),
                  cfg=SolverConfig(max_iterations=5))
    assert len(res.traces["mcgm"].records) >= 2
    path = _with_rho_column(res.trace_paths["mcgm"], values, tmp_path / "bad.csv")
    with pytest.raises(ValueError, match=re.escape(message)):
        check_trace_file(path)
    assert cli_main(["check", "--trace", path]) == 1
    err = capsys.readouterr().err
    assert "configuration error: " in err and message in err


@pytest.mark.parametrize("budget", ["nan", "-5"])
def test_cli_solve_rejects_a_nan_or_negative_time_budget(tmp_path, capsys, budget):
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(path), "--time-budget", budget,
                     "--out", str(out)]) == 1
    assert "configuration error: time_budget_s must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    ("gen", {"P": 6.9, "M": 40, "seed": 1}, "P"),
    ("gen", {"P": 6, "M": 40.5, "seed": 1}, "M"),
    ("gen", {"P": 6, "M": 40, "seed": 1.7}, "seed"),
    ("gen", {"P": 6, "M": 40, "seed": True}, "seed"),
    ("compare", {"P": 4, "M": 30.5, "max_iterations": 2}, "M"),
    ("compare", {"max_iterations": 2.5}, "max_iterations"),
    ("compare", {"max_iterations": True}, "max_iterations"),
    ("compare", {"max_iterations": "2"}, "max_iterations"),
    ("matfac", {"rows": 6.5}, "rows"),
    ("matfac", {"cols": 5.5}, "cols"),
    ("matfac", {"inner_dim": True}, "inner_dim"),
    ("matfac", {"seed": 0.5}, "seed"),
    ("matfac", {"max_iterations": 3.9}, "max_iterations"),
], ids=["gen-P", "gen-M", "gen-seed", "gen-seed-bool", "compare-dataset-M", "compare-iters",
        "compare-bool-iters", "compare-iters-string", "mf-rows", "mf-cols", "mf-inner-dim-bool",
        "mf-seed", "mf-iters"])
def test_cli_rejects_a_non_integer_config_value_for_an_integer_setting(
    tmp_path, capsys, command, config, key
):
    # int() truncated these: P=6.9 wrote P=6 and max_iterations 3.9 ran 3 iterations
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    where = {"gen": ["gen"], "matfac": MATFAC,
             "compare": ["compare", "--dataset", str(path)]}
    assert cli_main(where[command] + ["--config", str(cfg), "--out", str(out)]) == 1
    assert (f"configuration error: {key} must be an integer, got {config[key]!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    ("gen", {"P": 4, "M": 30, "mu": True, "seed": 1}, "mu"),
    ("gen", {"P": 4, "M": 30, "a_max": True, "seed": 1}, "a_max"),
    ("gen", {"P": 4, "M": 30, "b_max": False, "seed": 1}, "b_max"),
    ("gen", {"P": 4, "M": 30, "sparsity": True, "seed": 1}, "sparsity"),
    ("gen", {"P": 4, "M": 30, "noise_scale": True, "seed": 1}, "noise_scale"),
    ("compare", {"rho": True}, "rho"),
    ("compare", {"tau0": True}, "tau0"),
    ("compare", {"delta_tol": True}, "delta_tol"),
    ("compare", {"time_budget": True}, "time_budget"),
    ("compare", {"P": 4, "M": 30, "mu": True, "max_iterations": 2}, "mu"),
    ("compare", {"delta_tol": "0.5"}, "delta_tol"),
    ("matfac", {"radius": True}, "radius"),
    ("matfac", {"methods": "mcgm_hybrid", "tau0": True}, "tau0"),
    ("matfac", {"tau0": [1.0]}, "tau0"),
], ids=["gen-mu", "gen-a-max", "gen-b-max", "gen-sparsity", "gen-noise-scale", "compare-rho",
        "compare-tau0", "compare-bool-delta-tol", "compare-time-budget", "compare-dataset-mu",
        "compare-delta-tol-string", "mf-radius", "mf-tau", "mf-tau-list"])
def test_cli_rejects_a_non_number_config_value_for_a_float_setting(
    tmp_path, capsys, command, config, key
):
    # float() read these: "mu": true wrote mu = 1.0, and "delta_tol": true
    # stopped a solve stationary at a tolerance of 1.0
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    where = {"gen": ["gen"], "matfac": MATFAC,
             "compare": ["compare", "--dataset", str(path)]}
    assert cli_main(where[command] + ["--config", str(cfg), "--out", str(out)]) == 1
    assert (f"configuration error: {key} must be a number, got {config[key]!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_reads_integral_config_values_for_integer_settings(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"P": 6.0, "M": 40, "seed": 1.0}))
    assert cli_main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.json")]) == 0
    assert "(P=6, M=40, seed=1)" in capsys.readouterr().out
    ds = load_dataset(tmp_path / "d.json")
    assert (ds.P, ds.M, ds.seed) == (6, 40, 1)
    cfg.write_text(json.dumps({"max_iterations": 2.0, "time_budget": 80}))
    out = tmp_path / "r"
    assert cli_main(["compare", "--dataset", str(tmp_path / "d.json"), "--methods", "mcgm",
                     "--config", str(cfg), "--out", str(out)]) == 0
    cols, _ = read_trace_csv(out / "mcgm.csv")
    assert len(cols["k"]) == 2
    assert json.loads((out / "summary.json").read_text())["methods"]["mcgm"]["iterations"] == 2


def test_cli_check_fails_on_corrupted_trace(tmp_path, capsys):
    ds = small_dataset(seed=4)
    res = compare(ds, str(tmp_path / "r"), methods=("mcgm",),
                  cfg=SolverConfig(max_iterations=15))
    lines = open(res.trace_paths["mcgm"]).read().splitlines()
    parts = lines[1].split(",")
    parts[CSV_COLUMNS.index("delta")] = "1e12"
    lines[1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli_main(["check", "--trace", str(bad)]) == 2
    assert "FAIL sufficient decrease violated at k=0" in capsys.readouterr().out


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert cli_main(["gen", "--out", str(tmp_path / "x.json"), "--bogus-flag"]) == 1
    assert cli_main(["frobnicate"]) == 1
    capsys.readouterr()


def test_cli_config_errors_exit_one(tmp_path):
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == 1
    assert not out.exists()
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("not json{")
    assert cli_main(["gen", "--out", str(tmp_path / "d.json"),
                     "--config", str(bad_cfg)]) == 1


def test_cli_non_finite_jacobian_mid_solve_exits_two(tmp_path, monkeypatch, capsys):
    import modelcg.regression as regression

    path = tmp_path / "ds.json"
    save_dataset(small_dataset(), path)
    real = regression.eval_jacobian
    calls = []

    def nan_on_second_call(a, b, x):
        calls.append(1)
        jac = real(a, b, x)
        return np.full_like(jac, np.nan) if len(calls) == 2 else jac

    monkeypatch.setattr(regression, "eval_jacobian", nan_on_second_call)
    assert cli_main(["compare", "--dataset", str(path), "--methods", "mcgm",
                     "--max-iterations", "5", "--out", str(tmp_path / "out")]) == 2
    assert len(calls) == 2
    assert "solver failure: NonFiniteModelError" in capsys.readouterr().err


def test_cli_malformed_dataset_or_config_exits_one(tmp_path, capsys):
    good = tmp_path / "ds.json"
    save_dataset(small_dataset(), good)
    payload = json.loads(good.read_text())
    payload["covariates"][3] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(bad), "--out", str(out)]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta_tol": -1.0}))
    assert cli_main(["compare", "--dataset", str(good), "--config", str(cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error") == 2
    assert "covariates contains non-finite entries" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("observations", [1.0], "observations has shape (1,), expected (30,)"),
    ("a_true", [0.0] * 3, "a_true has shape (3,), expected (4,)"),
    ("P", 0, "P must be an integer >= 1"),
    ("mu", float("nan"), "must be finite"),
    ("b_max", -1.0, "b_max must be positive and finite"),
    ("sparsity", 1.0, "sparsity must lie in [0, 1)"),
], ids=["observations", "a_true", "P", "mu", "b_max", "sparsity"])
def test_cli_rejects_inconsistent_dataset_file(tmp_path, capsys, field, value, message):
    path = tmp_path / "ds.json"
    save_dataset(small_dataset(), path)
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(path), "--max-iterations", "2",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not out.exists()


def test_cli_check_rejects_rows_with_wrong_field_count(tmp_path, capsys):
    res = compare(small_dataset(seed=2), str(tmp_path / "r"), methods=("mcgm",),
                  cfg=SolverConfig(max_iterations=3))
    lines = open(res.trace_paths["mcgm"]).read().splitlines()
    short_iteration = lines[:1] + [",".join(lines[1].split(",")[:5])] + lines[2:]
    short_final = lines[:-1] + ["final,,4.0"]
    for bad_lines, lineno in ((short_iteration, 2), (short_final, len(lines))):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(bad_lines) + "\n")
        assert cli_main(["check", "--trace", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {bad} line {lineno} has" in err


def test_cli_check_fails_on_nan_objectives(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text(
        ",".join(CSV_COLUMNS) + "\n"
        "0,0.01,nan,nan,1.0,0.5,0,10,0.25\n"
        "1,0.02,nan,nan,0.5,0,0,10,0.25\n"
        "final,,nan,,,,,,0.25\n"
    )
    assert check_trace_file(str(bad)) == [
        "non-finite objective recorded", "non-finite final objective"
    ]
    assert cli_main(["check", "--trace", str(bad)]) == 2
    assert "FAIL non-finite objective recorded" in capsys.readouterr().out


def test_cli_compare_generates_a_dataset_from_the_dataset_flags(tmp_path):
    out = tmp_path / "results"
    code = cli_main(["compare", "--P", "4", "--M", "30", "--sparsity", "0.5",
                     "--max-iterations", "2", "--out", str(out)])
    assert code == 0
    dataset = json.loads((out / "summary.json").read_text())["problem"]
    assert (dataset["P"], dataset["M"]) == (4, 30)
    for m in REGRESSION_METHODS:
        assert (out / f"{m}.csv").exists()


def test_cli_compare_flags_override_the_config_dataset_keys(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"P": 4, "M": 30, "mu": 2.0, "sparsity": 0.5, "seed": 5,
                               "max_iterations": 2}))
    out = tmp_path / "results"
    assert cli_main(["compare", "--config", str(cfg), "--P", "6", "--seed", "9",
                     "--out", str(out)]) == 0
    problem = json.loads((out / "summary.json").read_text())["problem"]
    assert problem == {"P": 6, "M": 30, "mu": 2.0, "a_max": 20.0, "b_max": 5.0,
                       "sparsity": 0.5, "noise_scale": 0.5, "seed": 9}


def test_cli_compare_rejects_a_dataset_flag_given_with_a_dataset_file(tmp_path, capsys):
    # the file's P=4, seed=0 used to run, and the flags were dropped
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(path), "--P", "6", "--seed", "9",
                     "--methods", "mcgm", "--max-iterations", "2", "--out", str(out)]) == 1
    assert (f"configuration error: the dataset flags P, seed cannot be given with the dataset "
            f"file {str(path)!r}" in capsys.readouterr().err)
    assert not out.exists()
    # the same keys in a config file are defaults, and the file is read
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": str(path), "P": 6, "max_iterations": 2}))
    assert cli_main(["compare", "--config", str(cfg), "--methods", "mcgm",
                     "--out", str(out)]) == 0
    problem = json.loads((out / "summary.json").read_text())["problem"]
    assert (problem["P"], problem["seed"], problem["dataset"]) == (4, 0, str(path))


def test_cli_compare_summary_records_every_dataset_parameter(tmp_path):
    # problem used to hold P, M, mu and seed alone, so --a-max 4 left it as it was
    base = ["compare", "--P", "4", "--M", "30", "--sparsity", "0.5", "--methods", "mcgm",
            "--max-iterations", "2"]
    problems = []
    for extra, out in (([], "a"), (["--a-max", "4"], "b")):
        assert cli_main(base + extra + ["--out", str(tmp_path / out)]) == 0
        problems.append(json.loads((tmp_path / out / "summary.json").read_text())["problem"])
    assert problems[0] == {"P": 4, "M": 30, "mu": 80.0, "a_max": 20.0, "b_max": 5.0,
                           "sparsity": 0.5, "noise_scale": 0.5, "seed": 0}
    assert problems[1] == {**problems[0], "a_max": 4.0}
    # a run on a dataset file records the file's parameters and its path
    path = tmp_path / "d.json"
    save_dataset(small_dataset(seed=3), path)
    assert cli_main(["compare", "--dataset", str(path), "--methods", "mcgm",
                     "--max-iterations", "2", "--out", str(tmp_path / "c")]) == 0
    problem = json.loads((tmp_path / "c" / "summary.json").read_text())["problem"]
    assert problem == {"P": 4, "M": 30, "mu": 2.0, "a_max": 4.0, "b_max": 2.5,
                       "sparsity": 0.5, "noise_scale": 0.5, "seed": 3, "dataset": str(path)}


@pytest.mark.parametrize("command, config, key", [
    ("compare", {"rhoo": 0.5, "max_iteratons": 3}, "rhoo"),
    ("gen", {"dataset": {"P": 4, "M": 30, "seed": 1}}, "dataset"),
    ("compare", {"model": "hybrid"}, "model"),
    ("gen", {"P": 4, "M": 30, "max_iterations": 3}, "max_iterations"),
    ("compare", {"method": "mcgm"}, "method"),
    ("matfac", {"tau": 2.0}, "tau"),
    ("check", {"config": "other.json"}, "config"),
], ids=["compare-misspelled", "gen-dataset", "compare-mf-key", "gen-solver-key",
        "compare-method", "mf-tau", "check-config"])
def test_cli_rejects_a_config_key_that_names_no_flag(tmp_path, capsys, command, config, key):
    # such a key used to be ignored: the misspelled config ran at the defaults
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    where = {"gen": ["gen", "--out", str(out)],
             "compare": ["compare", "--P", "4", "--M", "30", "--out", str(out)],
             "matfac": MATFAC + ["--out", str(out)],
             "check": ["check", "--trace", str(tmp_path / "t.csv")]}
    assert cli_main(where[command] + ["--config", str(cfg)]) == 1
    assert f"configuration error: the config key {key!r} is none of " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("compare", {"dataset": "d.json", "out": 5}, "out must be a string, got 5"),
    ("compare", {"dataset": "d.json", "out": ["r"]}, "out must be a string, got ['r']"),
    ("compare", {"problem": "prox"}, "problem must be one of regression, matfac, got 'prox'"),
    ("matfac", {"y_set": ["low_rank"]}, "y_set must be one of sparsity, low_rank"),
], ids=["compare-out-number", "compare-out", "compare-problem", "mf-y-set"])
def test_cli_reads_a_config_value_as_its_flag_reads_it(tmp_path, capsys, monkeypatch,
                                                         command, config, message):
    # "out": 5 used to open file descriptor 5, and a matrix factorization
    # choice was checked only once the problem was built
    monkeypatch.chdir(tmp_path)
    save_dataset(small_dataset(), "d.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    where = {"compare": ["compare", "--max-iterations", "2"], "matfac": MATFAC + ["--out", "mf"]}
    assert cli_main(where[command] + ["--config", str(cfg)]) == 1
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.json"]


def test_cli_takes_required_settings_from_a_config_file(tmp_path, capsys):
    # the README's "defaults for any of the flags" held for no required flag
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r"
    cfg.write_text(json.dumps({"dataset": str(path), "methods": "mcgm", "max_iterations": 2,
                               "out": str(out)}))
    assert cli_main(["compare", "--config", str(cfg)]) == 0
    assert json.loads((out / "summary.json").read_text())["methods"]["mcgm"]["iterations"] == 2
    cfg.write_text(json.dumps({"trace": str(out / "mcgm.csv")}))
    assert cli_main(["check", "--config", str(cfg)]) == 0
    cfg.write_text(json.dumps({"P": 4, "M": 30, "out": str(tmp_path / "g.json")}))
    assert cli_main(["gen", "--config", str(cfg)]) == 0
    assert load_dataset(tmp_path / "g.json").P == 4
    capsys.readouterr()
    # an explicit flag still wins, and a setting given nowhere is an error
    assert cli_main(["gen", "--config", str(cfg), "--out", str(tmp_path / "h.json")]) == 0
    assert (tmp_path / "h.json").exists()
    for argv, flag in ((["gen", "--P", "4"], "--out"),
                       (["check"], "--trace"), (["compare", "--P", "4"], "--out"),
                       (MATFAC, "--out")):
        assert cli_main(argv) == 1
        assert f"configuration error: {flag} is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "compare"])
@pytest.mark.parametrize("dataset", [5, ["d.json"], True, {"P": 4}])
def test_cli_rejects_a_config_dataset_of_another_type(tmp_path, capsys, command, dataset):
    # compare used to fall back to the full-scale default dataset; gen has
    # no dataset flag, and compare's is a path
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": dataset, "max_iterations": 2}))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
    message = {"gen": "the config key 'dataset' is none of ",
               "compare": f"dataset must be a string, got {dataset!r}"}[command]
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_rejects_a_config_dataset_file(tmp_path, capsys):
    # gen used to fail with "dictionary update sequence element #0 has length 1"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": "d.json"}))
    out = tmp_path / "out.json"
    assert cli_main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    assert "configuration error: the config key 'dataset' is none of " in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_reads_the_config_dataset_keys_under_the_flags(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"P": 4, "M": 30, "seed": 5}))
    out = tmp_path / "d.json"
    assert cli_main(["gen", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert (ds.P, ds.M, ds.seed) == (4, 30, 9)


def test_duplicate_methods_are_rejected(tmp_path, capsys):
    # a repeated method used to be solved twice, with one trace kept
    with pytest.raises(ValueError, match="a method is named twice"):
        compare(small_dataset(), str(tmp_path / "r"), methods=("mcgm", "proxlin_bt", "mcgm"))
    out = tmp_path / "out"
    assert cli_main(["compare", "--P", "4", "--M", "30", "--sparsity", "0.5",
                     "--max-iterations", "2", "--methods", "mcgm,mcgm", "--out", str(out)]) == 1
    assert "configuration error: a method is named twice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_compare_rejects_an_empty_method_list(tmp_path, capsys):
    path = tmp_path / "ds.json"
    save_dataset(small_dataset(), path)
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(path), "--methods", ",",
                     "--out", str(out)]) == 1
    assert "no methods to compare" in capsys.readouterr().err
    assert not out.exists()


def test_cli_solve_runs_the_method_of_a_config_file(tmp_path, capsys):
    # a flag default used to override the config file's method
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": "proxlin_bt", "max_iterations": 3}))
    assert cli_main(["compare", "--dataset", str(path), "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
    assert re.findall(r"^(\w+): status=", capsys.readouterr().out, re.M) == ["proxlin_bt"]
    # an explicit flag still takes precedence
    assert cli_main(["compare", "--dataset", str(path), "--config", str(cfg),
                     "--methods", "proxlin_ls", "--out", str(tmp_path / "b")]) == 0
    assert re.findall(r"^(\w+): status=", capsys.readouterr().out, re.M) == ["proxlin_ls"]


@pytest.mark.parametrize("method", ["nope", 5, ["mcgm", "nope"], "mcgm,nope"])
def test_cli_solve_rejects_an_unknown_config_method(tmp_path, capsys, method):
    # a config file's methods are checked as --methods is, before any solve
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": method, "max_iterations": 3}))
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(path), "--config", str(cfg),
                     "--out", str(out)]) == 1
    message = ("unknown method 'nope'" if isinstance(method, str) else
               f"methods must be a string, got {method!r}")
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods", [5, ["mcgm", 3], {"mcgm": 1}, None, ["mcgm"]])
def test_cli_compare_rejects_methods_that_are_not_names(tmp_path, capsys, methods):
    # {"methods": 5} exited 2 with a TypeError; methods are one
    # comma-separated string, as --methods takes them
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": methods, "max_iterations": 2}))
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(path), "--config", str(cfg),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: methods must be a string, got {methods!r}" in err
    assert not out.exists()


def test_cli_mf_demo(tmp_path):
    out = tmp_path / "mf"
    code = cli_main(MATFAC + ["--rows", "10", "--cols", "8", "--inner-dim", "3",
                              "--methods", "mcgm", "--max-iterations", "40", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "mcgm-factors.json").read_text())["method"] == "mcgm"
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["methods"]) == ["mcgm"]
    assert summary["problem"]["rows"] == 10 and "model" not in summary["problem"]
    assert cli_main(["check", "--trace", str(out / "mcgm.csv")]) == 0


def test_the_default_methods_are_every_method_the_problem_can_run(tmp_path):
    # mcgm_hybrid needs the coordinate block a problem designates with its
    # solver inputs, and regression designates none
    assert check_methods(None, None) == REGRESSION_METHODS
    assert check_methods(None, np.ones(4, dtype=bool)) == METHOD_NAMES
    ds = small_dataset()
    for methods in (["mcgm_hybrid"], ["mcgm", "mcgm_hybrid"]):
        with pytest.raises(ValueError, match="mcgm_hybrid takes proximal steps on the block"):
            check_methods(methods, None)
        with pytest.raises(ValueError, match="this problem designates none"):
            compare(ds, str(tmp_path / "r"), methods=methods)
    with pytest.raises(ValueError, match="this problem designates none"):
        run_method("mcgm_hybrid", solver_inputs(ds))
    assert not (tmp_path / "r").exists()


def test_cli_refuses_mcgm_hybrid_on_regression_before_any_solve(tmp_path, capsys, monkeypatch):
    import modelcg.runner as runner

    solved = []
    monkeypatch.setattr(runner, "run_method", lambda m, *a, **k: solved.append(m))
    out = tmp_path / "smoke-h"
    assert cli_main(["compare", "--P", "8", "--M", "60", "--methods", "mcgm,mcgm_hybrid",
                     "--out", str(out)]) == 1
    assert ("configuration error: mcgm_hybrid takes proximal steps on the block of coordinates "
            "a problem designates, and this problem designates none" in capsys.readouterr().err)
    assert solved == [] and not out.exists()


def test_cli_compare_matfac_runs_every_method_by_default(tmp_path, capsys):
    # the four-way comparison: each method writes its trace and its factors,
    # and every trace checks out
    out = tmp_path / "mf"
    assert cli_main(MATFAC + ["--max-iterations", "20", "--out", str(out)]) == 0
    printed = re.findall(r"^(\w+): status=", capsys.readouterr().out, re.M)
    assert printed == list(METHOD_NAMES)
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == set(METHOD_NAMES)
    assert summary["problem"] == {"rows": 20, "cols": 15, "inner_dim": 4, "x_set": "unit_atoms",
                                  "y_set": "low_rank", "radius": summary["problem"]["radius"],
                                  "seed": 0}
    for m in METHOD_NAMES:
        assert summary["methods"][m]["checks"] == [], m
        assert cli_main(["check", "--trace", str(out / f"{m}.csv")]) == 0, m
        factors = json.loads((out / f"{m}-factors.json").read_text())
        assert (factors["schema"], factors["method"]) == ("modelcg.mf-factors/2", m)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{m}.csv" for m in METHOD_NAMES] + [f"{m}-factors.json" for m in METHOD_NAMES]
        + ["summary.json"])


@pytest.mark.parametrize("flags, final_f, iterations", [
    (["--methods", "mcgm"], "0x1.afab19733803cp-51", 33),
    (["--methods", "mcgm_hybrid"], "0x1.63d8a06c0741dp-47", 48),
    (["--methods", "mcgm_hybrid", "--tau0", "0.5"], "0x1.f4b13111a56b2p-41", 138),
], ids=["cg", "hybrid", "hybrid-tau"])
def test_cli_compare_matfac_runs_what_mf_demo_ran(tmp_path, flags, final_f, iterations):
    # the final objectives and iteration counts of the removed mf-demo at its
    # defaults (150 iterations), with --model hybrid and with --tau 0.5
    out = tmp_path / "mf"
    assert cli_main(MATFAC + flags + ["--max-iterations", "150", "--out", str(out)]) == 0
    method = flags[1]
    cols, f = read_trace_csv(out / f"{method}.csv")
    assert (f.hex(), len(cols["k"])) == (final_f, iterations)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["methods"][method]["status"] == "stationary"


@pytest.mark.parametrize("problem, name", [
    ("regression", "mcgm.csv"),
    ("regression", "summary.json"),
    ("matfac", "mcgm-factors.json"),
], ids=["trace", "summary", "factors"])
def test_cli_checks_every_file_it_writes_before_any_solve(tmp_path, capsys, monkeypatch,
                                                          problem, name):
    # a trace CSV that was a directory used to exit 2 as a solver failure
    # once every method had run
    import modelcg.runner as runner

    solved = []
    monkeypatch.setattr(runner, "run_method", lambda m, *a, **k: solved.append(m))
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = {"regression": ["compare", "--P", "4", "--M", "30"], "matfac": SMALL_MATFAC}[problem]
    assert cli_main(argv + ["--methods", "mcgm", "--out", str(out)]) == 1
    assert (f"configuration error: cannot use {str(out / name)!r}: Is a directory"
            in capsys.readouterr().err)
    assert solved == []
    assert [p.name for p in out.iterdir()] == [name]


def test_cli_rejects_an_infinite_proximal_weight(tmp_path, capsys):
    # an infinite weight used to pass as a NaN inner gap and a false
    # "stationary" status (regression), or fail later inside the SVD (matfac)
    out = tmp_path / "out"
    assert cli_main(["compare", "--P", "4", "--M", "30", "--sparsity", "0.5", "--tau0", "inf",
                     "--methods", "proxlin_ls,proxlin_bt", "--max-iterations", "5",
                     "--out", str(out)]) == 1
    assert "configuration error: tau0 must be finite" in capsys.readouterr().err
    assert cli_main(MATFAC + ["--rows", "10", "--cols", "8", "--methods", "mcgm_hybrid",
                              "--tau0", "inf", "--out", str(tmp_path / "mf")]) == 1
    assert "configuration error: tau0 must be finite" in capsys.readouterr().err
    assert not (tmp_path / "mf").exists()


def test_cli_compare_rejects_an_infinite_stationarity_tolerance(tmp_path, capsys):
    # every method used to stop stationary at k = 0, recording f itself as
    # its bound, and `check` passed those traces
    out = tmp_path / "r"
    assert cli_main(["compare", "--P", "6", "--M", "40", "--seed", "1", "--delta-tol", "inf",
                     "--max-iterations", "5", "--out", str(out)]) == 1
    assert ("configuration error: delta_tol must be positive and finite, got inf"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("y_kind", ["low_rank", "sparsity"])
def test_cli_mf_demo_rejects_an_infinite_radius(tmp_path, capsys, y_kind):
    # an infinite radius used to start a solve over an unbounded set, which
    # failed in the line search after a RuntimeWarning from the oracle's inf
    out = tmp_path / "mf"
    assert cli_main(SMALL_MATFAC + ["--y-set", y_kind, "--radius", "inf",
                                    "--out", str(out)]) == 1
    assert "configuration error: radius must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, setting", [
    (["--rows", "0"], "rows"),
    (["--cols", "0"], "cols"),
    (["--rows", "0", "--radius", "1"], "rows"),
    (["--cols", "-2", "--radius", "1"], "cols"),
], ids=["rows", "cols", "rows-radius", "cols-negative-radius"])
def test_cli_mf_demo_names_a_target_size_below_one(tmp_path, capsys, flags, setting):
    # these used to name the radius taken from an empty target, or the
    # dimension of a set built from it
    out = tmp_path / "mf"
    assert cli_main(MATFAC + ["--out", str(out)] + flags) == 1
    value = flags[flags.index("--" + setting) + 1]
    assert (f"configuration error: {setting} must be an integer >= 1, got {value}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_compare_matfac_names_a_negative_seed(tmp_path, capsys):
    # numpy's "expected non-negative integer" named no setting
    out = tmp_path / "mf"
    assert cli_main(MATFAC + ["--seed", "-1", "--out", str(out)]) == 1
    assert ("configuration error: seed must be non-negative and an integer, got -1"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("method", REGRESSION_METHODS)
def test_cli_compare_of_one_method_writes_the_trace_of_run_method(tmp_path, method):
    # compare --methods <m> writes, time_s aside, the trace CSV that
    # write_trace_csv makes of run_method's trace against its own best f
    path = tmp_path / "d.json"
    save_dataset(generate_regression_data(P=8, M=60, mu=2.0, seed=3), path)
    out = tmp_path / "r"
    assert cli_main(["compare", "--dataset", str(path), "--methods", method,
                     "--max-iterations", "10", "--out", str(out)]) == 0
    trace = run_method(method, solver_inputs(load_dataset(path)),
                       cfg=SolverConfig(max_iterations=10))
    write_trace_csv(trace, str(tmp_path / "direct.csv"), trace.best_f())
    assert strip_time_column(out / f"{method}.csv") == strip_time_column(tmp_path / "direct.csv")
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["methods"]) == [method]
    assert summary["methods"][method]["checks"] == []


@pytest.mark.parametrize("argv, named", [
    (["compare", "--P", "4", "--M", "30", "--out", "{F}"], "{F}"),
    (["compare", "--P", "4", "--M", "30", "--out", "{F}/sub"], "{F}/sub"),
    (["gen", "--P", "4", "--M", "30", "--out", "{F}/d.json"], "{F}/d.json"),
    (SMALL_MATFAC + ["--out", "{F}"], "{F}"),
    (["compare", "--dataset", "{D}", "--out", "{D}/out"], "{D}"),
    (["check", "--trace", "{D}"], "{D}"),
], ids=["compare-out-file", "compare-out-under-file", "gen-out-under-file", "mf-out-file",
        "compare-dataset-directory", "check-trace-directory"])
def test_cli_names_a_path_it_cannot_use_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         argv, named):
    # each used to exit 2 as a solver failure, compare --out <file> only
    # after every method had run
    import modelcg.runner as runner

    (tmp_path / "F").write_text("a file\n")
    paths = {"F": str(tmp_path / "F"), "D": str(tmp_path)}
    solved = []
    monkeypatch.setattr(runner, "run_method", lambda m, *a, **k: solved.append(m))
    assert cli_main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: cannot use {named.format(**paths)!r}: " in err
    assert solved == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [OSError(errno.ENOMEM, "Cannot allocate memory"),
                                   FileNotFoundError(errno.ENOENT, "No such file")],
                         ids=["enomem", "file-not-found"])
def test_cli_an_os_error_inside_a_solve_is_a_solver_failure(tmp_path, monkeypatch, capsys,
                                                            error):
    # only a path the user named maps an OSError to exit 1; a
    # FileNotFoundError raised by a solve used to exit 1 as well
    import modelcg.regression as regression

    path = tmp_path / "ds.json"
    save_dataset(small_dataset(), path)

    def fail(a, b, x):
        raise error

    monkeypatch.setattr(regression, "eval_jacobian", fail)
    assert cli_main(["compare", "--dataset", str(path), "--methods", "mcgm",
                     "--out", str(tmp_path / "out")]) == 2
    assert f"solver failure: {type(error).__name__}" in capsys.readouterr().err


def test_dataset_file_roundtrip_preserves_solver_behaviour(tmp_path):
    ds = small_dataset(seed=8)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(str(path))
    cfg = SolverConfig(max_iterations=8)
    t_mem = run_method("mcgm", solver_inputs(ds), cfg=cfg)
    t_file = run_method("mcgm", solver_inputs(loaded), cfg=cfg)
    assert [r.f_value for r in t_mem.records] == [r.f_value for r in t_file.records]
    assert [r.delta for r in t_mem.records] == [r.delta for r in t_file.records]
    assert [r.inner_iterations for r in t_mem.records] == [
        r.inner_iterations for r in t_file.records
    ]


def test_cli_write_and_read_trace_roundtrip(tmp_path):
    ds = small_dataset(seed=6)
    trace = run_method("mcgm", solver_inputs(ds), cfg=SolverConfig(max_iterations=10))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, str(path), trace.best_f())
    cols, final_f = read_trace_csv(str(path))
    # 17 significant digits round-trip float64 exactly
    assert final_f == trace.final_f
    np.testing.assert_array_equal(cols["f"], [r.f_value for r in trace.records])
    np.testing.assert_array_equal(cols["delta"], [r.delta for r in trace.records])
    np.testing.assert_array_equal(cols["gamma"], [r.gamma for r in trace.records])
    np.testing.assert_array_equal(cols["rho"], trace.rho)
