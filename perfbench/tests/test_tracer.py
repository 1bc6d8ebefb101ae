"""Tests of the benchmark's tracer and output comparison.

Run with ``python -m pytest perfbench/tests``.
"""

import inspect
import io
import json
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

import mixlasso
import run
import tracer as tr
from mixlasso import cli
from mixlasso.simulate import make_scheme, run_scheme
from workloads import number_drift, text_drift


def _bindings():
    """Every (owner, attr) -> raw object a traced target could occupy."""
    out = {}
    for target in tr.TARGETS:
        owner = tr._resolve(mixlasso, target.owner_path)
        out[(owner, target.attr)] = inspect.getattr_static(owner, target.attr)
        for module in tr._binding_sites(mixlasso):
            if target.attr in module.__dict__:
                out[(module, target.attr)] = module.__dict__[target.attr]
    return out


def _small_cli_file(path):
    rng = np.random.default_rng(3)
    with open(path, "w") as handle:
        handle.write("g,y,a,b,c\n")
        for i in range(40):
            a, b, c = rng.standard_normal(3).tolist()
            y = 1.0 + 2.0 * a + float(rng.standard_normal()) * 0.5 + (i % 8) * 0.3
            handle.write(f"k{i % 8},{y!r},{a!r},{b!r},{c!r}\n")


def test_every_binding_restored_after_traced_run():
    before = _bindings()
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(tr.TARGETS, mixlasso):
            # the copies made by `from .linalg import cholesky` are wrapped too
            assert mixlasso.optimizer.cholesky is not before[(mixlasso.linalg, "cholesky")]
            assert mixlasso.model.cholesky is mixlasso.optimizer.cholesky
            run_scheme(make_scheme("L1"), methods=("lmmLasso",), runs=1, grid_size=3)
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    for key, raw in before.items():
        assert after[key] is raw, key
    assert tracer.by_name()["linalg.cholesky"].calls > 0
    assert tracer.by_name()["selection.lambda_path"].calls == 1


def test_self_time_is_span_minus_children():
    now = [0.0]
    tracer = tr.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer(depth):
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0
        if depth:
            traced_outer(depth - 1)
        now[0] += 0.5

    traced_inner = tracer.wrap(tr.Target("inner", "", ""), inner)
    traced_outer = tracer.wrap(tr.Target("outer", "", "", coarse=True), outer)
    traced_outer(1)
    stats = tracer.by_name()
    # outer(1): 1 + inner 2 + 3 + outer(0) [1 + 2 + 3 + 0.5] + 0.5 = 13
    assert stats["outer"].s == 13.0  # inclusive time counts the outermost call only
    assert stats["outer"].self_s == 13.0 - 2 * 2.0
    assert stats["inner"].calls == 2 and stats["inner"].s == 4.0
    assert stats["inner"].self_s == 4.0
    top, nested = tracer.spans
    assert top.end - top.start == 13.0 and nested.end - nested.start == 6.5
    assert nested.parent == top.id
    assert top.counts == {"inner": 2, "outer": 1} and nested.counts == {"inner": 1}
    assert tracer.stats[("outer", "outer")].calls == 1


def test_traced_outputs_are_byte_identical(tmp_path):
    scheme = make_scheme("L1")
    plain = run_scheme(scheme, runs=1, grid_size=4).to_tsv()
    data = tmp_path / "d.csv"
    _small_cli_file(data)

    def session(prefix):
        argv = ["path", "--data", str(data), "--group-col", "g", "--response-col", "y",
                "--random-cols", "a", "--grid", "4", "--out", str(tmp_path / prefix)]
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return [(tmp_path / f"{prefix}{s}").read_bytes()
                for s in (".path.tsv", ".model.txt", ".summary.txt")]

    untraced = session("u")
    tracer = tr.Tracer()
    with tracer.installed(tr.TARGETS, mixlasso):
        traced = run_scheme(scheme, runs=1, grid_size=4).to_tsv()
        traced_files = session("t")
    assert traced == plain
    assert traced_files == untraced
    values = tr.layer_values(tracer)
    assert values["cli.read_table.calls"] == 1
    assert values["selection.lambda_path.calls"] == 3  # two for L1 (mixed, adaptive), one CLI
    assert values["optimizer.fit.baseline_s"] > 0


def test_text_drift():
    ref = "lambda\tbic\n0.5\t12.0\nx13\t1e-3\n"
    assert text_drift(ref, ref) == 0.0
    assert text_drift(ref.replace("12.0", "12.006"), ref) == pytest.approx(5e-4)
    assert text_drift(ref + "0.1\t2\n", ref) == 1.0
    assert text_drift(ref.replace("bic", "aic"), ref) == 1.0
    assert number_drift(1e-12, 0.0) == pytest.approx(1e-4)


def test_benchmark_json_matches_the_code():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_JSON)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in tr.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in tr.LAYER_METRICS]
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
