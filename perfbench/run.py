"""Benchmark command: solve one workload closed loop, check every solve, and
print the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload regression-full --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload's pass of solves untraced, again for as long
as another pass should end within ``--seconds``, and reports the end-to-end
metrics. ``--trace 1`` runs the first instance's solves untraced, one traced
pass and the kernel microbenchmarks, and reports the per-layer metrics.
Either way the last line of standard output is one JSON object: correct,
attempted, failed, metrics.
Lines before it give the run environment, every solve, every metric of the
workload by name and unit, and the deterministic counters.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("solver", "baselines", "models", "inner", "regression", "matfac", "geometry")
SETUP_BATCHES = 9
SETUP_MIN_S = 1.0
SETUP_BATCH_S = 0.01


def pin_allocator():
    """Keep freed heap memory in the process (glibc only). Otherwise the page
    faults of re-mapping numpy temporaries take up to half of a solve on a
    virtual machine and vary several-fold from run to run. Only the untraced
    run sets this; the traced run keeps the default allocator and reports
    its minor page faults."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default"
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    settings = ((m_mmap_threshold, 32 << 20), (m_trim_threshold, 1 << 30), (m_top_pad, 64 << 20))
    if all(libc.mallopt(param, value) == 1 for param, value in settings):
        return "mmap_threshold=32MiB,trim_threshold=1GiB,top_pad=64MiB"
    return "default"


def import_library():
    """Import modelcg from this checkout's src/, and nowhere else."""
    if not (SRC / "modelcg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'modelcg'}")
    sys.path.insert(0, str(SRC))
    import modelcg

    if Path(modelcg.__file__).resolve().parent != (SRC / "modelcg").resolve():
        sys.exit(f"perfbench: imported modelcg from {modelcg.__file__}, not from {SRC}")


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(seed, malloc):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
        "malloc": malloc,
    }
    env.update({v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def measure_setup(workload, seed, clock):
    """Reference-host seconds to build the pass's instances and their
    oracles/sets. Builds run in batches of at least SETUP_BATCH_S, each
    followed by one host-kernel sample; the median over at least
    SETUP_BATCHES batches and SETUP_MIN_S seconds."""
    from hostclock import to_reference
    from workloads import build_jobs

    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            build_jobs(workload, seed)
        if time.perf_counter() - t >= SETUP_BATCH_S:
            break
        n *= 2
    values = []
    start = time.perf_counter()
    while len(values) < SETUP_BATCHES or time.perf_counter() - start < SETUP_MIN_S:
        t = time.perf_counter()
        for _ in range(n):
            build_jobs(workload, seed)
        batch = (time.perf_counter() - t) / n
        values.append(to_reference(batch, clock.sample()))
    return statistics.median(values)


def step_us(results):
    """Reference-host microseconds per solver step (PDHG iteration or outer
    iteration) over the solves that returned."""
    from hostclock import to_reference

    done = [r for r in results if r.returned]
    ref_s = sum(to_reference(r.wall_s, r.host_s) for r in done)
    return 1e6 * ref_s / sum(r.pdhg_iterations + r.outer for r in done)


def report_metrics(workload, passes, setup_s, rss_mb):
    """Every end-to-end figure of the workload: name -> (value, unit)."""
    first = passes[0]
    out = {"setup_s": (setup_s, "s")}
    for method in workload.methods:
        out[f"solve_s.{method}"] = (
            median(mean(r.wall_s for r in p if r.method == method and not r.failure) for p in passes), "s",
        )
    if "mcgm" in workload.methods:
        out["reach_s.mcgm"] = (
            median(mean(r.reach_s for r in p if r.method == "mcgm" and not r.failure) for p in passes), "s",
        )
    for method in workload.methods:
        out[f"final_f.{method}"] = (mean(r.final_f for r in first if r.method == method and r.returned), "1")
    out["failed_frac"] = (sum(1 for r in first if r.failure) / len(first), "1")
    out["step_us"] = (step_us([r for p in passes for r in p]), "us")
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


def layer_metrics(tracer, traced, untraced, minflt):
    """Per-layer figures of one traced pass: name -> value."""
    spans = tracer.spans
    dur = lambda ss: sum(s.duration for s in ss)  # noqa: E731
    m = {}

    pdhg = tracer.select("inner", "pdhg_solve")
    iters = sum(s.info.get("iterations", 0) for s in pdhg)
    hits = sum(1 for s in pdhg if not s.info.get("converged", False))
    m["inner.pdhg_calls"] = len(pdhg)
    m["inner.pdhg_iterations"] = iters
    m["inner.pdhg_s"] = dur(pdhg)
    m["inner.iter_us"] = 1e6 * dur(pdhg) / iters if iters else 0.0
    m["inner.budget_hits"] = hits
    m["inner.converged_ratio"] = (len(pdhg) - hits) / len(pdhg) if pdhg else 0.0

    retries = [s for s in tracer.select("models", "minimize") if s.info.get("retry")]
    searches = tracer.select("solver", "linesearch")
    search_ids = {i for i, s in enumerate(spans) if s.layer == "solver" and s.name == "linesearch"}
    m["solver.outer_iterations"] = sum(r.outer for r in traced)
    m["solver.certify_retries"] = len(retries)
    m["solver.certify_s"] = dur(retries)
    m["solver.linesearch_evals"] = sum(1 for s in spans if s.name == "objective" and s.parent in search_ids)
    m["solver.backtracks"] = sum(s.info.get("backtracks", 0) for s in searches)
    m["solver.linesearch_s"] = dur(searches)

    for name in ("instantiate", "value"):
        ss = tracer.select("models", name)
        m[f"models.{name}_calls"] = len(ss)
        m[f"models.{name}_s"] = dur(ss)

    m["baselines.subproblem_solves"] = sum(r.inner_solves for r in traced if r.method.startswith("proxlin"))
    m["baselines.tau_shrinks"] = sum(r.backtracks for r in traced if r.method == "proxlin_bt")

    lmos = [s for s in tracer.select("geometry") if s.name.startswith("lmo.") and s.name != "lmo.productset"]
    nuclear = tracer.select("geometry", "lmo.nuclearball")
    m["geometry.lmo_calls"] = len(lmos)
    m["geometry.lmo_s.nuclear"] = dur(nuclear)
    m["geometry.lmo_s.l2"] = dur(tracer.select("geometry", "lmo.l2ball"))
    m["geometry.project_s.nuclear"] = dur(tracer.select("geometry", "project.nuclearball"))
    m["geometry.power_failures"] = sum(1 for s in nuclear if s.info.get("error") == "PowerIterationError")

    for layer in ("regression", "matfac"):
        ss = tracer.select(layer, "objective")
        m[f"{layer}.objective_evals"] = len(ss)
        m[f"{layer}.objective_s"] = dur(ss)

    for layer, t in tracer.layer_self_times().items():
        m[f"{layer}.self_s"] = t
    for layer in LAYERS:
        m.setdefault(f"{layer}.self_s", 0.0)

    m["trace.spans"] = len(spans)
    m["trace.solve_s"] = dur(s for s in spans if s.parent < 0)
    m["trace.self_sum_s"] = sum(tracer.self_times())
    m["trace.untraced_solve_s"] = sum(r.wall_s for r in untraced)
    m["trace.overhead_s"] = sum(r.wall_s for r in traced[: len(untraced)]) - m["trace.untraced_solve_s"]
    m["process.minflt"] = minflt / len(traced)
    return m


# counters that must repeat exactly for a fixed seed (the rest are timings)
LAYER_COUNTERS = (
    "inner.pdhg_calls", "inner.pdhg_iterations", "inner.budget_hits",
    "solver.outer_iterations", "solver.certify_retries", "solver.linesearch_evals",
    "solver.backtracks", "models.instantiate_calls", "models.value_calls",
    "baselines.subproblem_solves", "baselines.tau_shrinks", "geometry.lmo_calls",
    "geometry.power_failures", "regression.objective_evals", "matfac.objective_evals",
)


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def print_solves(tag, results):
    for r in results:
        line = (
            f"solve {tag} {r.method} {r.label} {r.status or r.error} wall_s={r.wall_s:.4f} "
            f"outer={r.outer} pdhg={r.pdhg_iterations} evals={r.evals} host_ms={1e3 * r.host_s:.3f} "
            f"final_f={r.final_f!r}"
        )
        if r.failure:
            line += f" FAILED: {r.failure}"
        if r.problems:
            line += f" WRONG: {'; '.join(r.problems)}"
        print(line, flush=True)


def check_solves(results, repeats):
    """Wrong outputs of any solve, and repeated solves whose counters differ
    from the first run of the same solves."""
    problems = [f"{r.method}/{r.label}: {msg}" for r in results for msg in r.problems]
    first = [r.counters() for r in repeats[0]]
    for i, p in enumerate(repeats[1:], start=1):
        if [r.counters() for r in p] != first:
            problems.append(f"repeat {i} counters differ from the first run")
    return problems


def measure(workload, seed, seconds):
    """Set-up time, then untraced passes within ``seconds``; returns
    (the first pass's results, problems, counters, metric values). Later
    passes repeat the same solves for timing; ``check_solves`` holds them to
    the first pass's counters and outcomes, so only the first is counted."""
    from hostclock import HostClock
    from workloads import run_pass

    clock = HostClock()
    setup_s = measure_setup(workload, seed, clock)
    passes = []
    start = time.perf_counter()
    # another pass only if it should end within --seconds, judged by the
    # longest pass so far; a pass longer than --seconds runs once
    longest = 0.0
    while not passes or time.perf_counter() - start + longest <= seconds:
        t = time.perf_counter()
        passes.append(run_pass(workload, seed, clock=clock))
        longest = max(longest, time.perf_counter() - t)
        print_solves(f"pass={len(passes) - 1}", passes[-1])
        if len(passes) == 1:
            rss_mb = peak_rss_mb()  # later passes only add allocator slack
    figures = report_metrics(workload, passes, setup_s, rss_mb)
    for name, (value, unit) in figures.items():
        print(f"metric {name} {value!r} {unit}")
    values = {name: value for name, (value, _) in figures.items()}
    problems = check_solves([r for p in passes for r in p], passes)
    return passes[0], problems, [r.counters() for r in passes[0]], values


def trace(workload, seed, units):
    """One traced pass, the first instance's solves untraced, and the
    microbenchmarks; returns (the traced pass's results, problems, counters,
    metric values). The untraced solves repeat traced ones and are not
    counted again."""
    from micro import all_metrics, span_cost_us
    from tracer import Tracer, traced_library
    from workloads import run_pass

    untraced = run_pass(workload, seed, limit=len(workload.methods))
    print_solves("untraced", untraced)
    tracer = Tracer()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with traced_library(tracer):
        traced = run_pass(workload, seed, tracer)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print_solves("traced", traced)
    values = layer_metrics(tracer, traced, untraced, faults)
    values.update(all_metrics(seed))
    values["trace.span_cost_s"] = values["trace.spans"] * span_cost_us() * 1e-6
    for name, value in values.items():
        print(f"metric {name} {value!r} {units.get(name, '?')}")

    problems = check_solves(traced + untraced, [untraced, traced[: len(untraced)]])
    # the root spans must cover the traced solves as timed apart from the tracer
    wall = sum(r.wall_s for r in traced)
    gap = abs(values["trace.solve_s"] - wall)
    if gap > 1e-3 * wall + 1e-4 * len(traced):
        problems.append(f"root spans miss the traced solve time by {gap:.3e} s")
    counters = {name: values[name] for name in LAYER_COUNTERS}
    return traced, problems, counters, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    malloc = pin_allocator() if args.trace == 0 else "default"
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]

    for key, value in environment(args.seed, malloc).items():
        print(f"env {key}={value}")
    print(f"env workload={args.workload} trace={args.trace} seconds={args.seconds}", flush=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace == 0:
        results, problems, counters, values = measure(workload, args.seed, args.seconds)
    else:
        units = {m["name"]: m["unit"] for m in wanted}
        results, problems, counters, values = trace(workload, args.seed, units)
    print(f"counters {json.dumps(counters)}")
    print(f"counters_digest {digest(counters)}")
    for p in problems:
        print(f"WRONG {p}")

    missing = [m["name"] for m in wanted if not isinstance(values.get(m["name"]), (int, float))
               or math.isnan(values[m["name"]])]
    if missing:
        sys.exit(f"perfbench: no value for {', '.join(missing)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
