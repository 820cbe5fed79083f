import json

import numpy as np
import pytest

from modelcg.baselines import ACCEPT_RATIO
from modelcg.cli import cli_main
from modelcg.regression import (
    RegressionDataset,
    eval_F,
    generate_regression_data,
    make_constraint_set,
    save_dataset,
)
from modelcg.runner import (
    CSV_COLUMNS,
    METHOD_NAMES,
    check_trace_file,
    read_trace_csv,
    run_comparison,
    run_method,
    write_trace_csv,
)
from modelcg.solver import SolverConfig, rate_certificate, verify_trace_arrays


def small_dataset(seed=0):
    return generate_regression_data(P=4, M=30, mu=2.0, a_max=4.0, b_max=2.5, seed=seed)


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
    res = run_comparison(ds, str(tmp_path / "out"), cfg=SolverConfig(max_iterations=25))
    assert set(res.trace_paths) == set(METHOD_NAMES)
    header = None
    for path in res.trace_paths.values():
        cols = read_trace_csv(path)
        assert set(cols) == set(CSV_COLUMNS)
        if header is None:
            header = open(path).readline()
        assert open(path).readline() == header  # identical schema
        assert np.all(cols["obj_err"] >= -1e-12)
    summary = json.loads(open(res.summary_path).read())
    assert summary["schema"] == "modelcg.summary/2"
    assert set(summary["methods"]) == set(METHOD_NAMES)
    for info in summary["methods"].values():
        assert info["rate_certificate"] is True
        assert info["best_f"] >= res.f_lower


@pytest.mark.parametrize(
    "method, final_f, inner_iterations, backtracks, inner_solves, status",
    [
        ("mcgm", "0x1.7669f6f2d696cp+4", 91075, 113, 30, "max_iterations"),
        ("proxlin_ls", "0x1.767d076fff302p+4", 2375, 0, 30, "max_iterations"),
        ("proxlin_bt", "0x1.765e19b7a78f2p+4", 3300, 3, 15, "stationary"),
    ],
)
def test_regression_golden_run(method, final_f, inner_iterations, backtracks,
                               inner_solves, status):
    # pins the defaults of the line search, the stationarity tolerance and
    # the proximal-weight rule (SHRINK, MAX_BACKTRACKS, DELTA_RTOL, TAU_*,
    # ACCEPT_RATIO), which were config fields when these were recorded; the
    # instance makes mcgm backtrack and proxlin_bt shrink its weight
    ds = generate_regression_data(P=5, M=40, mu=3.0, seed=11)
    x0 = make_constraint_set(ds).midpoint()
    trace = run_method(method, ds, x0, cfg=SolverConfig(max_iterations=30))
    assert trace.final_f.hex() == final_f
    assert sum(r.inner_iterations for r in trace.records) == inner_iterations
    assert sum(r.backtracks for r in trace.records) == backtracks
    assert trace.total_inner_solves() == inner_solves
    assert trace.status == status


def test_single_method_lower_bound_is_its_own_best(tmp_path):
    ds = small_dataset(seed=1)
    res = run_comparison(ds, str(tmp_path / "solo"), methods=("mcgm",),
                         cfg=SolverConfig(max_iterations=25))
    assert res.f_lower == res.traces["mcgm"].best_f()


def test_rerun_is_bit_identical_outside_timing(tmp_path):
    ds = small_dataset(seed=2)
    cfg = SolverConfig(max_iterations=20)
    res1 = run_comparison(ds, str(tmp_path / "a"), cfg=cfg)
    res2 = run_comparison(ds, str(tmp_path / "b"), cfg=cfg)
    for m in METHOD_NAMES:
        assert strip_time_column(res1.trace_paths[m]) == strip_time_column(res2.trace_paths[m])


def test_check_trace_file_detects_corruption(tmp_path):
    ds = small_dataset(seed=3)
    res = run_comparison(ds, str(tmp_path / "c"), methods=("mcgm",),
                         cfg=SolverConfig(max_iterations=20))
    path = res.trace_paths["mcgm"]
    assert check_trace_file(path, rho=0.25) == []
    lines = open(path).read().splitlines()
    parts = lines[1].split(",")
    parts[CSV_COLUMNS.index("delta")] = "1e12"  # inflate one improvement
    lines[1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert check_trace_file(str(bad), rho=0.25) != []


def test_csv_check_and_in_memory_certificate_agree(tmp_path):
    # one rate check: the CSV path and the trace path give the same verdict
    # on the same trace, clean and with one improvement inflated
    ds = small_dataset(seed=3)
    res = run_comparison(ds, str(tmp_path / "c"), methods=("mcgm",),
                         cfg=SolverConfig(max_iterations=20))
    trace = res.traces["mcgm"]

    def csv_rate_passed(path):
        problems = check_trace_file(str(path), rho=trace.rho)
        return not any(p.startswith("rate bound violated at k=") for p in problems)

    assert csv_rate_passed(res.trace_paths["mcgm"])
    assert rate_certificate(trace).passed
    trace.records[0].delta = 1e12
    bad = tmp_path / "bad.csv"
    write_trace_csv(trace, str(bad), res.f_lower)
    assert not csv_rate_passed(bad)
    assert not rate_certificate(trace).passed


def test_csv_check_reads_the_final_objective(tmp_path):
    # one iteration: the only step ends at the returned point, so both its
    # sufficient decrease and the rate bound's lower bound need final_f
    res = run_comparison(small_dataset(seed=0), str(tmp_path / "one"), methods=("mcgm",),
                         cfg=SolverConfig(max_iterations=1))
    trace = res.traces["mcgm"]
    f, delta, gamma = trace.arrays()
    assert trace.final_f < f[-1]
    assert verify_trace_arrays(f, delta, gamma, trace.rho, final_f=trace.final_f) == []
    assert rate_certificate(trace).passed
    path = res.trace_paths["mcgm"]
    assert check_trace_file(path, rho=trace.rho) == []
    np.testing.assert_array_equal(read_trace_csv(path)["f"], f)

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
    problems = check_trace_file(str(bad), rho=trace.rho)
    assert problems[0] == "sufficient decrease violated at k=0"
    assert problems[:1] == verify_trace_arrays(f, delta, gamma, trace.rho, final_f=bad_f)
    # the raised lower bound also breaks the rate bound, in memory and in the CSV
    assert not rate_certificate(trace).passed
    assert problems[1].startswith("rate bound violated at k=0")
    assert len(problems) == 2

    # a trace without its final row is malformed, not silently shorter
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        check_trace_file(str(cut), rho=trace.rho)


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_comparison(small_dataset(), str(tmp_path), methods=("nope",))


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
    out = tmp_path / "trace.csv"
    code = cli_main(["solve", "--dataset", str(path), "--method", "mcgm",
                     "--out", str(out)])
    assert code == 0
    cols = read_trace_csv(str(out))
    assert len(cols["k"]) == 1
    assert cols["gamma"][0] == 0.0
    assert "stationary" in capsys.readouterr().out


def test_cli_compare_and_check_roundtrip(tmp_path):
    cfg = {
        "dataset": {"P": 4, "M": 30, "mu": 2.0, "seed": 5},
        "max_iterations": 20,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    assert cli_main(["compare", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    for m in METHOD_NAMES:
        assert (out_dir / f"{m}.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert cli_main(["check", "--trace", str(out_dir / "mcgm.csv"), "--rho", "0.25"]) == 0


def test_cli_compare_records_the_rho_each_trace_checks_against(tmp_path):
    # proxlin_bt accepts at its own ratio, not the line search's: its trace
    # fails the sufficient-decrease check at rho 0.9 (at k=5 here)
    out_dir = tmp_path / "results"
    assert cli_main(["compare", "--P", "8", "--M", "60", "--mu", "2", "--seed", "3",
                     "--rho", "0.9", "--max-iterations", "10", "--out", str(out_dir)]) == 0
    methods = json.loads((out_dir / "summary.json").read_text())["methods"]
    assert {m: info["rho"] for m, info in methods.items()} == {
        "mcgm": 0.9, "proxlin_ls": 0.9, "proxlin_bt": ACCEPT_RATIO,
    }
    for m, info in methods.items():
        trace = str(out_dir / f"{m}.csv")
        assert cli_main(["check", "--trace", trace, "--rho", repr(info["rho"])]) == 0, m
    assert check_trace_file(str(out_dir / "proxlin_bt.csv"), 0.9) == [
        "sufficient decrease violated at k=5"
    ]


@pytest.mark.parametrize("argv, message", [
    (["solve", "--method", "proxlin_bt", "--rho", "0.9"], "--rho is read only by"),
    (["solve", "--method", "mcgm", "--tau0", "5"], "--tau0 is read only by"),
    (["solve", "--tau0", "5"], "--tau0 is read only by"),
    (["compare", "--methods", "proxlin_bt", "--rho", "0.9"], "--rho is read only by"),
    (["compare", "--methods", "mcgm", "--tau0", "5"], "--tau0 is read only by"),
    (["mf-demo", "--model", "cg", "--tau", "2"], "--tau is read only by hybrid"),
    (["mf-demo", "--tau", "2"], "--tau is read only by hybrid"),
], ids=["solve-rho-bt", "solve-tau0-mcgm", "solve-tau0-default", "compare-rho-bt",
        "compare-tau0-mcgm", "mf-tau-cg", "mf-tau-default"])
def test_cli_rejects_a_flag_no_selected_method_reads(tmp_path, capsys, argv, message):
    # a flag that no selected method reads is an error, not silently dropped
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    where = {"solve": ["--dataset", str(path), "--max-iterations", "2"],
             "compare": ["--dataset", str(path), "--max-iterations", "2",
                         "--out", str(tmp_path / "out")],
             "mf-demo": ["--rows", "6", "--cols", "5", "--inner-dim", "2",
                         "--max-iterations", "2", "--out", str(tmp_path / "out")]}
    assert cli_main(argv + where[argv[0]]) == 1
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_keeps_config_file_flags_as_defaults(tmp_path):
    # a config file is shared by several runs: a key one method does not
    # read is a default, not an error
    path = tmp_path / "d.json"
    save_dataset(small_dataset(), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.5, "tau0": 2.0, "tau": 3.0, "max_iterations": 2}))
    assert cli_main(["solve", "--dataset", str(path), "--method", "mcgm",
                     "--config", str(cfg)]) == 0
    assert cli_main(["compare", "--dataset", str(path), "--methods", "proxlin_bt",
                     "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert cli_main(["mf-demo", "--rows", "6", "--cols", "5", "--inner-dim", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "mf")]) == 0


@pytest.mark.parametrize("method, flags, rho", [
    ("mcgm", ["--rho", "0.5"], 0.5),
    ("proxlin_ls", [], 0.25),
    ("proxlin_bt", ["--tau0", "2"], ACCEPT_RATIO),
])
def test_cli_solve_prints_the_rho_its_trace_checks_against(tmp_path, capsys, method, flags, rho):
    path = tmp_path / "d.json"
    save_dataset(small_dataset(seed=2), path)
    out = tmp_path / "t.csv"
    assert cli_main(["solve", "--dataset", str(path), "--method", method, "--out", str(out),
                     "--max-iterations", "6"] + flags) == 0
    line = capsys.readouterr().out.strip()
    printed = line.rsplit(" ", 1)[1]
    assert printed == f"rho={rho!r}", line
    assert cli_main(["check", "--trace", str(out), "--rho", printed.split("=")[1]]) == 0


@pytest.mark.parametrize("rho", ["nan", "0", "1"])
def test_cli_check_rejects_a_rho_outside_the_open_unit_interval(tmp_path, capsys, rho):
    ds = small_dataset(seed=4)
    res = run_comparison(ds, str(tmp_path / "r"), methods=("mcgm",),
                         cfg=SolverConfig(max_iterations=5))
    path = res.trace_paths["mcgm"]
    with pytest.raises(ValueError, match="rho"):
        check_trace_file(path, float(rho))
    assert cli_main(["check", "--trace", path, "--rho", rho]) == 1
    assert "configuration error: rho must lie in (0, 1)" in capsys.readouterr().err


def test_cli_check_fails_on_corrupted_trace(tmp_path, capsys):
    ds = small_dataset(seed=4)
    res = run_comparison(ds, str(tmp_path / "r"), methods=("mcgm",),
                         cfg=SolverConfig(max_iterations=15))
    lines = open(res.trace_paths["mcgm"]).read().splitlines()
    parts = lines[1].split(",")
    parts[CSV_COLUMNS.index("delta")] = "1e12"
    lines[1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli_main(["check", "--trace", str(bad)]) == 2
    assert "FAIL rate bound violated at k=" in capsys.readouterr().out


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert cli_main(["gen", "--out", str(tmp_path / "x.json"), "--bogus-flag"]) == 1
    assert cli_main(["frobnicate"]) == 1
    capsys.readouterr()


def test_cli_config_errors_exit_one(tmp_path):
    assert cli_main(["solve", "--dataset", str(tmp_path / "missing.json")]) == 1
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
    assert cli_main(["solve", "--dataset", str(path), "--max-iterations", "5"]) == 2
    assert len(calls) == 2
    assert "solver failure: NonFiniteModelError" in capsys.readouterr().err


def test_cli_malformed_dataset_or_config_exits_one(tmp_path, capsys):
    good = tmp_path / "ds.json"
    save_dataset(small_dataset(), good)
    payload = json.loads(good.read_text())
    payload["covariates"][3] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(payload))
    assert cli_main(["solve", "--dataset", str(bad)]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta_tol": -1.0}))
    assert cli_main(["solve", "--dataset", str(good), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error") == 2
    assert "covariates contains non-finite entries" in err


@pytest.mark.parametrize("field, value, message", [
    ("observations", [1.0], "observations has shape (1,), expected (30,)"),
    ("a_true", [0.0] * 3, "a_true has shape (3,), expected (4,)"),
    ("P", 0, "P and M must be positive"),
    ("mu", float("nan"), "must be finite"),
    ("b_max", -1.0, "out of range"),
    ("sparsity", 1.0, "sparsity must lie in [0, 1)"),
], ids=["observations", "a_true", "P", "mu", "b_max", "sparsity"])
def test_cli_rejects_inconsistent_dataset_file(tmp_path, capsys, field, value, message):
    path = tmp_path / "ds.json"
    save_dataset(small_dataset(), path)
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    assert cli_main(["solve", "--dataset", str(path), "--max-iterations", "2"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_cli_check_rejects_rows_with_wrong_field_count(tmp_path, capsys):
    res = run_comparison(small_dataset(seed=2), str(tmp_path / "r"), methods=("mcgm",),
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
        "0,0.01,nan,nan,1.0,0.5,0,10\n"
        "1,0.02,nan,nan,0.5,0,0,10\n"
        "final,,nan,,,,,\n"
    )
    assert check_trace_file(str(bad), rho=0.25) == [
        "non-finite objective recorded", "non-finite final objective"
    ]
    assert cli_main(["check", "--trace", str(bad)]) == 2
    assert "FAIL non-finite objective recorded" in capsys.readouterr().out


def test_cli_compare_generates_a_dataset_from_the_dataset_flags(tmp_path):
    out = tmp_path / "results"
    code = cli_main(["compare", "--P", "4", "--M", "30", "--max-iterations", "2",
                     "--out", str(out)])
    assert code == 0
    dataset = json.loads((out / "summary.json").read_text())["dataset"]
    assert (dataset["P"], dataset["M"]) == (4, 30)
    for m in METHOD_NAMES:
        assert (out / f"{m}.csv").exists()


def test_cli_compare_rejects_an_empty_method_list(tmp_path, capsys):
    path = tmp_path / "ds.json"
    save_dataset(small_dataset(), path)
    out = tmp_path / "out"
    assert cli_main(["compare", "--dataset", str(path), "--methods", ",",
                     "--out", str(out)]) == 1
    assert "no methods to compare" in capsys.readouterr().err
    assert not out.exists()


def test_cli_mf_demo(tmp_path):
    out = tmp_path / "mf"
    code = cli_main(["mf-demo", "--rows", "10", "--cols", "8", "--inner-dim", "3",
                     "--max-iterations", "40", "--out", str(out)])
    assert code == 0
    assert (out / "factors.json").exists()
    assert (out / "mf_trace.csv").exists()


def test_cli_rejects_an_infinite_proximal_weight(tmp_path, capsys):
    # an infinite weight used to pass as a NaN inner gap and a false
    # "stationary" status (compare), or fail later inside the SVD (mf-demo)
    out = tmp_path / "out"
    assert cli_main(["compare", "--P", "4", "--M", "30", "--tau0", "inf",
                     "--methods", "proxlin_ls,proxlin_bt", "--max-iterations", "5",
                     "--out", str(out)]) == 1
    assert "configuration error: tau0 must be finite" in capsys.readouterr().err
    assert cli_main(["mf-demo", "--rows", "10", "--cols", "8", "--model", "hybrid",
                     "--tau", "inf", "--out", str(tmp_path / "mf")]) == 1
    assert "configuration error: tau must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("y_kind", ["low_rank", "sparsity"])
def test_cli_mf_demo_rejects_an_infinite_radius(tmp_path, capsys, y_kind):
    # an infinite radius used to start a solve over an unbounded set, which
    # failed in the line search after a RuntimeWarning from the oracle's inf
    out = tmp_path / "mf"
    assert cli_main(["mf-demo", "--rows", "6", "--cols", "5", "--inner-dim", "2",
                     "--y-set", y_kind, "--radius", "inf", "--out", str(out)]) == 1
    assert "configuration error: radius must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_dataset_file_roundtrip_preserves_solver_behaviour(tmp_path):
    from modelcg.regression import load_dataset, make_constraint_set
    from modelcg.runner import run_method

    ds = small_dataset(seed=8)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(str(path))
    cfg = SolverConfig(max_iterations=8)
    x0 = make_constraint_set(ds).midpoint()
    t_mem = run_method("mcgm", ds, x0, cfg=cfg)
    t_file = run_method("mcgm", loaded, x0, cfg=cfg)
    assert [r.f_value for r in t_mem.records] == [r.f_value for r in t_file.records]
    assert [r.delta for r in t_mem.records] == [r.delta for r in t_file.records]
    assert [r.inner_iterations for r in t_mem.records] == [
        r.inner_iterations for r in t_file.records
    ]


def test_cli_write_and_read_trace_roundtrip(tmp_path):
    ds = small_dataset(seed=6)
    from modelcg.runner import run_method
    from modelcg.regression import make_constraint_set

    trace = run_method("mcgm", ds, make_constraint_set(ds).midpoint(),
                       cfg=SolverConfig(max_iterations=10))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, str(path), trace.best_f())
    cols = read_trace_csv(str(path))
    # 17 significant digits round-trip float64 exactly
    np.testing.assert_array_equal(cols["f"], [r.f_value for r in trace.records])
    np.testing.assert_array_equal(cols["delta"], [r.delta for r in trace.records])
    np.testing.assert_array_equal(cols["gamma"], [r.gamma for r in trace.records])
