"""mixlasso benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sim-H1 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``sim-H1``,
``sim-biggroups`` and ``cli-session``. With ``--trace 0`` the run repeats
passes over the workload for ``--seconds`` and reports end-to-end metrics;
with ``--trace 1`` it runs one pass untraced and one traced, and reports
per-layer metrics (calls, inclusive and self time, computed flops and bytes
per public function of each module), kernel probes and the tracing overhead.
Both modes check every output, print a report with units and sample counts,
write the full record to ``perfbench/results/`` and end with one JSON line.
The exit code is 1 when an output check fails, 2 when the tree is not a
mixlasso checkout.

``--update-reference`` rewrites the committed reference outputs from the
current code; use it only when a change of results is intended.
``baselines/seed.json`` holds the seed code's numbers from ten seeds per
workload and one traced run each, with the machine they were taken on.

The program is single-threaded and synchronous: no layer waits on another,
so there is no wait metric.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    for _var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[_var] = "1"
    if not os.path.isfile(os.path.join(SRC, "mixlasso", "__init__.py")):
        print(f"error: no mixlasso sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import mixlasso  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORT_COMMAND = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, scipy.linalg, mixlasso"
# End-to-end metrics in the final JSON line: those every workload defines
# that are never 0 and steady across seeds. The rest are printed and kept
# in the results file: unit_s_tail because with under 12 units per run no
# percentile has ten samples beyond it, so it is the slowest single unit;
# unit_s_p50 because on cli-session the median falls between two command
# kinds and jumps with the seeded inputs; wall_s because on a shared
# machine neighbours slow whole minutes of runs by ~20%, which wall_cal
# (the same pass time divided by a fixed numpy kernel timed between its
# units) cancels. Keep in step with BENCHMARK.json.
E2E_JSON = ("setup_s", "wall_cal", "peak_rss_mb", "best_bic")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_BUDGET_S = 0.4
CALIBRATION_SMALL, CALIBRATION_BIG = 4000, 40  # ~30 ms on a 2-CPU AMD EPYC VM


def machine_record() -> dict:
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):  # no dict form in this build
            return {}
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas(np).get('name', '?')} {blas(np).get('version', '?')}",
        "scipy_blas": f"{blas(scipy).get('name', '?')} {blas(scipy).get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest ladder percentile with at least ten samples beyond it; the
    maximum when there are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return statistics.quantiles(ordered, n=1000, method="inclusive")[int(pct * 10) - 1], f"p{pct:g}"
    return ordered[-1], f"max (n={n}, no percentile has 10 samples beyond it)"


def calibration_s() -> float:
    """Seconds of a fixed numpy/scipy kernel shaped like the library's hot
    loops (6x6 and 200x200 factor-and-solve), independent of mixlasso."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((6, 6))
    small = small @ small.T + 6.0 * np.eye(6)
    big = rng.standard_normal((200, 200))
    big = big @ big.T + 200.0 * np.eye(200)
    rhs_small, rhs_big = rng.standard_normal(6), rng.standard_normal((200, 3))
    start = time.perf_counter()
    for _ in range(CALIBRATION_SMALL):
        scipy.linalg.cho_solve((np.linalg.cholesky(small), True), rhs_small, check_finite=False)
    for _ in range(CALIBRATION_BIG):
        scipy.linalg.cho_solve((np.linalg.cholesky(big), True), rhs_big, check_finite=False)
    return time.perf_counter() - start


def run_pass(workload, tracer=None) -> tuple[float, list[float], list]:
    """One pass over the workload's units: the summed unit seconds, the
    calibration kernel timed before every unit and after the last, and the
    unit results."""
    calibrations, results = [], []
    for unit in workload.units():
        calibrations.append(calibration_s())
        results.append(workload.run_unit(unit, tracer))
    calibrations.append(calibration_s())
    return sum(r.seconds for r in results), calibrations, results


def check_pass(workload, results) -> tuple[list[str], float]:
    """Output problems of one pass and its drift from the reference outputs.
    A unit with malformed output counts as failed."""
    problems = []
    drift = 0.0
    for r in results:
        try:
            found = workload.check(r)
        except (KeyError, IndexError, ValueError, AttributeError) as err:
            found = [f"malformed output ({type(err).__name__}: {err})"]
        if found and not r.failed:
            r.failed = r.attempted
        problems += [f"{r.label}: {p}" for p in found]
        if r.reference:
            d = workload.drift(r)
            drift = max(drift, d)
            if d > workloads.DRIFT_TOLERANCE:
                problems.append(f"{r.label}: drift {d:.3g} from the reference outputs")
    return problems + workload.check_pass(results), drift


def same_outputs(a: list, b: list) -> list[str]:
    return [f"{x.label}: outputs differ between passes"
            for x, y in zip(a, b) if x.outputs != y.outputs]


def mean_of(results, attr):
    values = [getattr(r, attr) for r in results if getattr(r, attr) is not None]
    return (statistics.fmean(values) if values else None), len(values)


def import_seconds() -> list[float]:
    """Start-up and import of the library in fresh interpreters: in-process
    the import happens only once, so it is timed in child processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_COMMAND, SRC], check=True, env=os.environ)
        times.append(time.perf_counter() - start)
    return times


def e2e_metrics(setups, imports, passes, results) -> dict:
    units = [r.seconds for _, _, rs in passes for r in rs]
    calibrations = [c for _, cs, _ in passes for c in cs]
    cal = statistics.median(calibrations)
    tail_value, tail_label = tail(units)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    converged = [c for r in results for c in r.selected_converged]
    m = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s", len(setups),
                    f"median start-up and import {statistics.median(imports):.3f} s + median "
                    f"input generation and warm-up {statistics.median(setups):.3f} s"),
        "wall_s": (statistics.median(t for t, _, _ in passes), "s", len(passes),
                   f"median pass of {len(results) // len(passes)} units"),
        "wall_cal": (statistics.median(t for t, _, _ in passes) / cal, "cal", len(passes),
                     f"wall_s in units of the calibration kernel, median {cal * 1e3:.2f} ms "
                     f"over {len(calibrations)} timings between units"),
        "unit_s_p50": (statistics.median(units), "s", len(units), ""),
        "unit_s_tail": (tail_value, "s", len(units), tail_label),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, ""),
        "fail_ratio": (failed / attempted, "ratio", attempted, f"{failed} of {attempted} operations"),
        "nonconverged_ratio": (
            (converged.count(False) / len(converged)) if converged else 0.0, "ratio",
            len(converged), "selected fits"),
    }
    for name, attr, unit in (("best_bic", "best_bic", "bic"), ("excess_risk", "excess_risk", "nat"),
                             ("support_tp", "support_tp", "count"),
                             ("support_fp", "support_fp", "count"),
                             ("pred_mse", "pred_mse", "y2")):
        value, n = mean_of(results, attr)
        if value is not None:
            m[name] = (value, unit, n, "mean over units")
    return m


def probe(fn, budget=PROBE_BUDGET_S) -> tuple[float, int]:
    times = []
    spent = 0.0
    while spent < budget or len(times) < 5:
        t = time.perf_counter()
        fn()
        dt = time.perf_counter() - t
        times.append(dt)
        spent += dt
    return statistics.median(times) * 1e6, len(times)


def kernel_probes(workload) -> dict:
    """One likelihood, one factorization of all groups, one beta sweep and
    one variance sweep on the workload's first dataset, via public functions."""
    data, phi, weights, lam = workload.probe_inputs()
    p = data.p
    beta = [k for k in range(p) if weights.values[k] != float("inf")]
    var = list(range(p, p + phi.cov.n_theta + 1))
    return {
        "model.neg_log_likelihood.probe_us": probe(lambda: mixlasso.neg_log_likelihood(data, phi)),
        "model.group_covariance.probe_us": probe(
            lambda: [mixlasso.group_covariance(g.Z, phi) for g in data.groups]),
        "optimizer.cgd_cycle.beta_probe_us": probe(
            lambda: mixlasso.cgd_cycle(data, phi, lam, weights, coords=beta)),
        "optimizer.cgd_cycle.variance_probe_us": probe(
            lambda: mixlasso.cgd_cycle(data, phi, lam, weights, coords=var)),
    }


def traced_metrics(workload, untraced_s, traced_s, tracer, traced_results) -> dict:
    values = tracer_mod.layer_values(tracer)
    values["cli.bytes_written"] = float(sum(r.bytes_written for r in traced_results))
    values["trace.overhead_s"] = traced_s - untraced_s
    probes = kernel_probes(workload)
    samples = {}
    for name, (us, n) in probes.items():
        values[name] = us
        samples[name] = n
    return values, samples


# Earlier profiles of the seed code on sim-H1's scheme (cProfile counts and
# a likelihood probe), printed beside the traced counts.
H1_PROFILE = {
    "first-stage lambda_path": "~98k cholesky, ~262k solve_spd",
    "per dataset": "~144k cholesky, ~394k solve_spd",
    "likelihood": "216 us (the ROADMAP's per-group loop probe, 25 groups x 6, q=2)",
}


def reconcile(workload, tracer, values) -> list[str]:
    """Factorization and solve counts per path and per dataset, with the
    seed-code profile beside them on sim-H1."""
    quote = (lambda key: f" (seed profile: {H1_PROFILE[key]})") if workload.name == "sim-H1" \
        else (lambda key: "")
    paths = [s for s in tracer.spans if s.name == "selection.lambda_path"]
    first = [s for s in paths if not s.attrs.get("warm_init")]
    calls = {name: st.calls for name, st in tracer.by_name().items()}
    lines = []
    if first:
        chol = statistics.fmean(s.counts.get("linalg.cholesky", 0) for s in first)
        solve = statistics.fmean(s.counts.get("linalg.solve_spd", 0) for s in first)
        lines.append(f"first-stage lambda_path (n={len(first)}): {chol:,.0f} cholesky, "
                     f"{solve:,.0f} solve_spd per call" + quote("first-stage lambda_path"))
    if paths:
        lines.append(f"all lambda_path calls (n={len(paths)}): "
                     f"{values['selection.lambda_path.cholesky_per_call']:,.0f} cholesky, "
                     f"{values['selection.lambda_path.solve_spd_per_call']:,.0f} solve_spd per call")
    if isinstance(workload, workloads.SimWorkload):
        n = len(workload.units())
        lines.append(f"per dataset (n={n}): {calls.get('linalg.cholesky', 0) / n:,.0f} cholesky, "
                     f"{calls.get('linalg.solve_spd', 0) / n:,.0f} solve_spd" + quote("per dataset"))
    lines.append(f"likelihood probe: {values['model.neg_log_likelihood.probe_us']:.0f} us"
                 + quote("likelihood"))
    return lines


def update_reference(workload) -> int:
    _, _, results = run_pass(workload)
    for r in results:
        if not r.reference:
            continue
        if r.failed:
            print(f"error: reference unit {r.label} failed: {r.errors}", file=sys.stderr)
            return 1
        path = workload.reference_path(r.label)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(workload.reference_record(r), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.abspath(mixlasso.__file__).startswith(SRC + os.sep):
        parser.error(f"imported mixlasso from {mixlasso.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    machine = machine_record()

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results"), prefix="work-") as workdir:
        setups = []
        for _ in range(1 if (args.trace or args.update_reference) else SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t)
        if args.update_reference:
            return update_reference(workload)
        if args.trace:
            return traced_run(args, workload, machine)
        return timed_run(args, workload, machine, setups, import_seconds())


def timed_run(args, workload, machine, setups, imports) -> int:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1][0] > args.seconds:
            break
    results = [r for _, _, rs in passes for r in rs]
    first = passes[0][2]
    problems, drift = check_pass(workload, first)
    for _, _, rs in passes[1:]:
        problems += same_outputs(first, rs)
    metrics = e2e_metrics(setups, imports, passes, results)
    metrics["result_drift"] = (drift, "ratio", sum(r.reference for r in first),
                               "max relative deviation from the reference outputs")
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "trace": 0,
        "seconds": args.seconds, "machine": machine, "problems": problems,
        "metrics": {k: {"value": v, "unit": u, "n": n, "note": note}
                    for k, (v, u, n, note) in metrics.items()},
        "units": [{"label": r.label, "seconds": r.seconds, "failed": r.failed,
                   "errors": r.errors} for r in results],
    }
    print_report(report)
    final = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in E2E_JSON}
    return finish(args, report, problems, results, final)


def traced_run(args, workload, machine) -> int:
    untraced_s, _, untraced = run_pass(workload)
    tracer = tracer_mod.Tracer()
    with tracer.installed(tracer_mod.TARGETS, mixlasso):
        traced_s, _, traced = run_pass(workload, tracer)
    problems, _ = check_pass(workload, traced)
    problems += [p + " (traced vs untraced)" for p in same_outputs(untraced, traced)]
    values, probe_samples = traced_metrics(workload, untraced_s, traced_s, tracer, traced)
    notes = reconcile(workload, tracer, values)
    units = {m: u for m, u, _ in tracer_mod.LAYER_METRICS}
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "trace": 1,
        "machine": machine, "problems": problems, "reconciliation": notes,
        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
        "metrics": {k: {"value": v, "unit": units[k],
                        "n": probe_samples.get(k, 1)} for k, v in values.items()},
        "calls": tracer.table(),
        "spans": [vars(s) for s in tracer.spans],
    }
    print_report(report)
    final = {k: {"value": values[k], "unit": units[k]} for k, _, _ in tracer_mod.LAYER_METRICS}
    return finish(args, report, problems, traced, final)


def print_report(report) -> None:
    m = report["machine"]
    print(f"workload {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['why']}")
    print(f"machine: {m['cpu_count']} CPUs ({m['cpus_usable']} usable) {m['cpu_model']}; "
          f"Python {m['python']}, numpy {m['numpy']} ({m['numpy_blas']}), scipy {m['scipy']} "
          f"({m['scipy_blas']}); threads {m['threads']}")
    print("closed loop, one client; single-threaded and synchronous, so no layer waits on another")
    for line in report.get("reconciliation", []):
        print("reconcile: " + line)
    width = max(len(k) for k in report["metrics"])
    for name, rec in report["metrics"].items():
        note = f"  [{rec['note']}]" if rec.get("note") else ""
        print(f"  {name:<{width}}  {rec['value']:>14.6g} {rec['unit']:<6} n={rec['n']}{note}")
    for problem in report["problems"]:
        print("CHECK FAILED: " + problem)


def finish(args, report, problems, results, final) -> int:
    path = os.path.join(HERE, "results",
                        f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    line = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": final,
    }
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
