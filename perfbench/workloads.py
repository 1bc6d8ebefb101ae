"""The benchmark's three workloads: inputs, units of work and output checks.

Every workload is a closed loop with one client: units run back to back in
one process. A pass is a fixed list of units. Its first units are reference
units, whose inputs do not depend on ``--seed`` and whose outputs are
compared with the committed outputs of the seed code under
``perfbench/reference/``. The remaining units draw their inputs from
``--seed``; their outputs are checked against invariants the library must
keep (KL divergence is non-negative, the selected fit is the path's BIC
minimum, both predict commands agree, ...).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import mixlasso
from mixlasso import cli, simulate
from mixlasso.model import CovarianceStructure, ParameterVector, PenaltyWeights
from mixlasso.optimizer import SolverOptions, fit
from mixlasso.selection import lambda_max
from mixlasso.simulate import (
    generate_design,
    make_scheme,
    run_scheme,
    scheme_from_dict,
    simulate_dataset,
)

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# Largest relative deviation from the reference outputs still counted as
# correct: well above float reordering noise, well below any change of a
# selected model (a changed active set or path row moves numbers by >1e-2).
DRIFT_TOLERANCE = 1e-3
_BENCH_TAG = 0x6D6978  # separates seeded unit streams from the reference seeds


def unit_seed(seed: int, j: int) -> int:
    """Seed of the ``j``-th seeded unit of a run with ``--seed seed``."""
    return int(np.random.SeedSequence([_BENCH_TAG, seed, j]).generate_state(1)[0])


@dataclass
class Unit:
    label: str
    reference: bool
    seed: int
    argv: list[str] = field(default_factory=list)


@dataclass
class UnitResult:
    """What one unit did, measured from outside the library."""

    label: str
    reference: bool
    seconds: float
    attempted: int
    failed: int
    outputs: dict[str, str]
    errors: list[str] = field(default_factory=list)
    selected_converged: list[bool] = field(default_factory=list)
    best_bic: float | None = None
    excess_risk: float | None = None
    support_tp: float | None = None
    support_fp: float | None = None
    pred_mse: float | None = None
    bytes_written: int = 0
    stdout: str = ""
    paths: list = field(default_factory=list, repr=False)


# ---- output comparison -------------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def text_drift(new: str, ref: str) -> float:
    """Largest relative deviation between the numbers of two texts whose
    non-numeric parts agree; 1.0 when the structure differs."""
    a, b = _NUMBER.split(new), _NUMBER.split(ref)
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return 1.0
    return max(
        (number_drift(float(x), float(y)) for x, y in zip(a[1::2], b[1::2])),
        default=0.0,
    )


def number_drift(new: float, ref: float) -> float:
    if new == ref:
        return 0.0
    if not (math.isfinite(new) and math.isfinite(ref)):
        return 1.0
    return min(1.0, abs(new - ref) / max(abs(ref), 1e-8))


@contextlib.contextmanager
def observing(owner, attr: str, sink: list):
    """Append the result of every call through ``owner.attr`` to ``sink``."""
    original = getattr(owner, attr)

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attr, observed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Workload:
    name = ""
    why = ""
    reference_seeds: tuple[int, ...] = ()
    seeded_units = 0

    def plan(self, seed: int) -> list[tuple[str, bool, int]]:
        """``(label, reference, input seed)`` of each input set of a pass."""
        return ([(f"ref{i}", True, s) for i, s in enumerate(self.reference_seeds)]
                + [(f"seed{j}", False, unit_seed(seed, j)) for j in range(self.seeded_units)])

    def setup(self, seed: int, workdir: str) -> None:
        """Generate the inputs of a run and warm up; may run repeatedly."""
        raise NotImplementedError

    def units(self) -> list[Unit]:
        """The units of one pass, as built by the last ``setup``."""
        return self._units

    def run_unit(self, unit: Unit, tracer=None) -> UnitResult:
        raise NotImplementedError

    def check(self, result: UnitResult) -> list[str]:
        """Invariant violations of a unit's outputs (empty when correct)."""
        raise NotImplementedError

    def check_pass(self, results: list[UnitResult]) -> list[str]:
        """Invariants across the units of one pass."""
        return []

    def probe_inputs(self):
        """``(data, phi, weights, lam)`` of the workload's first dataset."""
        raise NotImplementedError

    # reference outputs ----------------------------------------------------

    def reference_path(self, label: str) -> str:
        return os.path.join(REFERENCE_DIR, self.name, label.replace("/", ".") + ".json")

    def reference_record(self, result: UnitResult) -> dict:
        return dict(result.outputs)

    def drift(self, result: UnitResult) -> float:
        """Largest relative deviation from the committed reference record.
        Digests (``*.sha256``) only tell whether bytes changed, so they are
        recorded for diffs but do not enter the drift."""
        with open(self.reference_path(result.label)) as handle:
            ref = json.load(handle)
        new = self.reference_record(result)
        if set(new) != set(ref):
            return 1.0
        return max((_value_drift(new[k], ref[k]) for k in ref if not k.endswith(".sha256")),
                   default=0.0)


def _value_drift(new, ref) -> float:
    if isinstance(ref, str):
        return text_drift(new, ref) if isinstance(new, str) else 1.0
    if isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            return 1.0
        return max((_value_drift(a, b) for a, b in zip(new, ref)), default=0.0)
    if isinstance(ref, (int, float)):
        return number_drift(float(new), float(ref))
    return 0.0 if new == ref else 1.0


def _fit_parameters(kind: str, q: int, beta: np.ndarray, psi: np.ndarray,
                    sigma2: float) -> ParameterVector:
    """True parameters written in the covariance structure that is fitted."""
    if kind == "identity":
        theta = np.array([math.sqrt(psi[0, 0])])
    elif kind == "diagonal":
        theta = np.sqrt(np.diag(psi)[:q])
    else:
        theta = np.linalg.cholesky(psi)[np.tril_indices(q)]
    return ParameterVector(beta, CovarianceStructure(kind, theta, q), math.log(sigma2))


def _probe_inputs_for(data, phi):
    weights = PenaltyWeights.default_for(data)
    lam = 0.1 * lambda_max(data, weights, phi)
    return data, phi, weights, lam


def _warm_up(data, phi) -> None:
    """First calls into numpy/scipy paths the units use (lazy imports,
    LAPACK dispatch), so the first unit is not charged for them."""
    data, phi, weights, lam = _probe_inputs_for(data, phi)
    mixlasso.neg_log_likelihood(data, phi)
    fit(data, lam, weights, phi, SolverOptions(max_cycles=1))


# ---- simulation workloads ------------------------------------------------


class SimWorkload(Workload):
    """``run_scheme`` on one scheme; one unit is one simulated dataset."""

    methods: tuple[str, ...] = ()

    def make_scheme(self, workdir: str):
        raise NotImplementedError

    def setup(self, seed: int, workdir: str) -> None:
        self.scheme = self.make_scheme(workdir)
        self._units = [Unit(*entry) for entry in self.plan(seed)]
        _warm_up(*self.probe_inputs()[:2])

    def probe_inputs(self):
        # the dataset run_scheme draws for the pass's first unit
        rng = np.random.default_rng(np.random.SeedSequence((self._units[0].seed, 0)))
        data, truth = simulate_dataset(self.scheme, rng)
        s = self.scheme
        phi = _fit_parameters(s.fit_kind, s.effective_fit_q, truth.beta, truth.psi, truth.sigma2)
        return _probe_inputs_for(data, phi)

    def run_unit(self, unit: Unit, tracer=None) -> UnitResult:
        paths: list = []
        baselines: list = []
        errors: list[str] = []
        summary = None
        start = time.perf_counter()
        try:
            with observing(simulate, "lambda_path", paths), \
                    observing(simulate, "lasso_path_bic", baselines):
                summary = run_scheme(self.scheme, methods=self.methods, runs=1, seed=unit.seed)
        except Exception as err:  # a crash is a failed unit, never a lost sample
            errors.append(f"{type(err).__name__}: {err}")
        seconds = time.perf_counter() - start
        attempted = len(self.methods)
        if summary is None:
            return UnitResult(unit.label, unit.reference, seconds, attempted, attempted,
                              {}, errors)
        failed = sum(len(v) for v in summary.failures.values())
        errors += [f"{m}: {msg}" for m, v in summary.failures.items() for _, msg in v]
        result = UnitResult(
            unit.label, unit.reference, seconds, attempted, failed,
            {"summary.tsv": summary.to_tsv()}, errors,
            selected_converged=[p.best.converged for p in paths + baselines],
            paths=paths + baselines,
        )
        stats = summary.stats.get("lmmLasso", {})
        if paths and "tp" in stats:
            result.best_bic = float(min(e.bic for e in paths[0].entries))
            result.excess_risk = stats["excess_risk"][0]
            result.support_tp = stats["tp"][0]
            result.support_fp = stats["active_size"][0] - stats["tp"][0]
        return result

    def check(self, result: UnitResult) -> list[str]:
        bad = []
        if result.failed:
            return bad  # failures are counted, not checked
        for path in result.paths:
            bics = [e.bic for e in path.entries]
            if path.best is not path.entries[int(np.argmin(bics))].fit:
                bad.append("selected fit is not the path's BIC minimum")
        rows = [line.split("\t") for line in result.outputs["summary.tsv"].splitlines()[1:]]
        if {r[1] for r in rows} != set(self.methods):
            bad.append("summary does not cover every method")
        for _, method, metric, mean, _, n in rows:
            value = float(mean)
            if n != "1" or not math.isfinite(value):
                bad.append(f"{method} {metric}: n_runs={n} mean={mean}")
            elif metric == "excess_risk" and value < -1e-9:
                bad.append(f"{method} negative KL excess risk {value}")
            elif metric == "sigma2" and value <= 0:
                bad.append(f"{method} non-positive sigma2 {value}")
            elif metric == "tp" and not 0 <= value <= len(np.flatnonzero(self.scheme.beta)):
                bad.append(f"{method} true positives out of range {value}")
        return bad


class SimH1(SimWorkload):
    name = "sim-H1"
    why = ("many tiny groups (25x6) and p=300: per-call overhead of 6x6 factorizations, "
           "beta sweeps and the dual-start path driver")
    methods = simulate.METHODS
    reference_seeds = (0, 1, 2, 3)
    seeded_units = 1

    def make_scheme(self, workdir):
        return make_scheme("H1")


BIGGROUPS_SCHEME = {
    "name": "biggroups",
    "n_groups": 6,
    "group_size": 200,
    "p": 50,
    "q": 3,
    "beta": [1.0, 2.0, 4.0, 3.0, 3.0] + [0.0] * 45,
    "psi": [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
    "sigma2": 0.25,
    "fit_kind": "diagonal",
    "runs": 1,
}


class SimBigGroups(SimWorkload):
    name = "sim-biggroups"
    why = ("few large groups (6x200, q=3): dense O(n_i^3) factorizations and n x n "
           "solves, not call overhead")
    methods = ("lmmLasso",)
    reference_seeds = (0, 1)
    seeded_units = 1

    def make_scheme(self, workdir):
        # the same JSON input `mixlasso simulate --scheme file.json` reads
        path = os.path.join(workdir, "biggroups.scheme.json")
        with open(path, "w") as handle:
            json.dump(BIGGROUPS_SCHEME, handle)
        with open(path) as handle:
            return scheme_from_dict(json.load(handle))


# ---- CLI session -----------------------------------------------------------

SCORE_ROWS_PER_GROUP = 1667  # x 60 groups = 100,020 scoring rows
NEW_GROUPS = 30
_PRED_SAMPLE_STEP = 1000


class CliSession(Workload):
    """``mixlasso.cli.main(argv)`` in-process on generated files; one unit is
    one command.

    Each reference session runs all four commands on its own training and
    scoring files. The seeded session draws its training file (for
    ``select-structure``) and its 100k-row scoring file from ``--seed`` and
    scores with the first reference session's model, whose truth the
    scoring file shares. It runs no ``path``: the path's cost varies about
    3x across generated training sets (7-21 s on a 2-CPU AMD EPYC VM),
    which one seeded session per run could not average out.
    """

    name = "cli-session"
    why = ("only workload with file I/O, artifacts, prediction and the general "
           "covariance (7 variance coordinates)")
    reference_seeds = (0, 1)
    seeded_units = 1  # sessions

    def setup(self, seed: int, workdir: str) -> None:
        self.sessions = []
        self.scores: dict[str, tuple[np.ndarray, list[str]]] = {}
        self._units = []
        first_truth = None
        model_dir = os.path.join(workdir, "ref0")
        for label, reference, s in self.plan(seed):
            d = os.path.join(workdir, label)
            os.makedirs(d, exist_ok=True)
            self.sessions.append(label)
            truth, self.scores[label] = _write_session_files(
                d, s, None if reference else first_truth)
            first_truth = first_truth or truth
            commands = _session_commands(d, d if reference else model_dir)
            self._units += [Unit(f"{label}/{cmd}", reference, s, argv)
                            for cmd, argv in commands if reference or cmd != "path"]
        data, phi, _, _ = self.probe_inputs()
        _warm_up(data, phi)
        cli.read_table(os.path.join(workdir, "ref0", "train.csv"), "group", "y")

    def probe_inputs(self):
        scheme = make_scheme("L2")
        rng = np.random.default_rng(self.reference_seeds[0])
        data, truth = simulate_dataset(scheme, rng)
        phi = _fit_parameters("general", 3, truth.beta, truth.psi, truth.sigma2)
        return _probe_inputs_for(data, phi)

    def run_unit(self, unit: Unit, tracer=None) -> UnitResult:
        command = unit.argv[0]
        out = unit.argv[unit.argv.index("--out") + 1]
        for suffix in _OUTPUTS[command]:  # a command that writes nothing must not pass
            if os.path.exists(out + suffix):
                os.remove(out + suffix)
        stdout, stderr = io.StringIO(), io.StringIO()
        errors: list[str] = []
        span = tracer.span(f"cli.main.{command}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
                rc = cli.main(list(unit.argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as err:  # a crash is a failed unit, never a lost sample
            rc = -1
            errors.append(f"{type(err).__name__}: {err}")
        seconds = time.perf_counter() - start
        if rc != 0:
            errors.append(f"exit code {rc}: {stderr.getvalue().strip()}")
        outputs = {}
        written = 0
        for suffix in _OUTPUTS[command]:
            path = out + suffix
            if os.path.exists(path):
                written += os.path.getsize(path)
                with open(path) as handle:
                    outputs[suffix.lstrip(".")] = handle.read()
        result = UnitResult(unit.label, unit.reference, seconds, 1, int(rc != 0), outputs,
                            errors, bytes_written=written, stdout=stdout.getvalue())
        if command == "path" and "model.txt" in outputs:
            meta = _artifact_meta(outputs["model.txt"])
            result.best_bic = float(meta["bic"])
            result.selected_converged = [meta["converged"] == "1"]
        if command == "predict" and "--response-col" in unit.argv and "predictions.tsv" in outputs:
            y, _ = self.scores[unit.label.split("/")[0]]
            y_hat = _predictions(outputs["predictions.tsv"])[1]
            result.pred_mse = float(np.mean((y - y_hat) ** 2)) if len(y_hat) == len(y) else None
        return result

    def check(self, result: UnitResult) -> list[str]:
        if result.failed:
            return []
        session, command = result.label.split("/")
        out = result.outputs
        bad = []
        if command == "path":
            rows = [line.split("\t") for line in out["path.tsv"].splitlines()]
            if rows[0] != ["lambda", "active_size", "neg2loglik", "df", "bic"] or len(rows) < 2:
                bad.append("malformed path table")
            elif _artifact_meta(out["model.txt"])["bic"] != min(rows[1:], key=lambda r: float(r[4]))[4]:
                bad.append("model artifact is not the path's BIC minimum")
        elif command.startswith("predict"):
            y, groups = self.scores[session]
            ids, y_hat, known = _predictions(out["predictions.tsv"])
            if ids != groups:
                bad.append("prediction rows do not match the scoring file")
            elif any(k != g.startswith("g") for k, g in zip(known, ids)):
                bad.append("known_group flags disagree with the training groups")
            if result.pred_mse is not None:
                printed = float(re.search(r"mse=(\S+)", result.stdout).group(1))
                if number_drift(printed, result.pred_mse) > 1e-5:
                    bad.append(f"printed mse {printed} != recomputed {result.pred_mse}")
        return bad

    def check_pass(self, results: list[UnitResult]) -> list[str]:
        by_label = {r.label: r for r in results}
        bad = []
        for session in self.sessions:
            a = by_label[f"{session}/predict"].outputs.get("predictions.tsv")
            b = by_label[f"{session}/predict-all"].outputs.get("predictions.tsv")
            if a is not None and a != b:
                bad.append(f"{session}: predict with and without a response disagree")
        return bad

    def reference_record(self, result: UnitResult) -> dict:
        record = {}
        for key, text in result.outputs.items():
            if key == "predictions.tsv":
                _, y_hat, known = _predictions(text)
                record["predictions.sha256"] = hashlib.sha256(text.encode()).hexdigest()
                record["predictions.rows"] = len(y_hat)
                record["predictions.known_rows"] = int(sum(known))
                record["predictions.sample"] = y_hat[::_PRED_SAMPLE_STEP].tolist()
                record["predictions.mean"] = float(np.mean(y_hat))
            elif key in ("structure.txt", "path.tsv"):
                record[key] = text
        if result.pred_mse is not None:
            record["pred_mse"] = result.pred_mse
        return record


_OUTPUTS = {
    "select-structure": (".structure.txt",),
    "path": (".path.tsv", ".model.txt", ".summary.txt"),
    "predict": (".predictions.tsv", ".ranef.tsv"),
}


def _session_commands(d: str, model_dir: str) -> list[tuple[str, list[str]]]:
    train = ["--data", os.path.join(d, "train.csv"), "--group-col", "group"]
    model = os.path.join(model_dir, "fit.model.txt")
    score = ["--model", model, "--data", os.path.join(d, "score.csv"), "--group-col", "group"]
    return [
        ("select-structure", ["select-structure", *train, "--response-col", "y",
                              "--out", os.path.join(d, "sel")]),
        ("path", ["path", *train, "--response-col", "y", "--psi", "general",
                  "--random-cols", "x0", "x1", "x2", "--out", os.path.join(d, "fit")]),
        ("predict", ["predict", *score, "--response-col", "y",
                     "--out", os.path.join(d, "pred_y")]),
        ("predict-all", ["predict", *score, "--out", os.path.join(d, "pred")]),
    ]


def _write_session_files(d: str, seed: int, score_truth=None):
    """L2-shaped training file and a ~100k-row scoring file covering the
    groups of ``score_truth`` (default: the training truth) with their
    random effects, plus unseen groups. Returns the training truth and the
    scoring file's ``(y, group ids)``."""
    scheme = make_scheme("L2")
    rng = np.random.default_rng(seed)
    data, truth = simulate_dataset(scheme, rng)
    header = "group,y," + ",".join(f"x{k}" for k in range(scheme.p)) + "\n"
    with open(os.path.join(d, "train.csv"), "w") as handle:
        handle.write(header)
        for g in data.groups:
            for y, x in zip(g.y.tolist(), g.X.tolist()):
                handle.write(f"g{g.group_id:02d},{y!r}," + ",".join(map(repr, x)) + "\n")
    training_truth = truth
    truth = score_truth or truth
    vals, vecs = np.linalg.eigh(truth.psi)
    sqrt_psi = vecs * np.sqrt(np.clip(vals, 0.0, None)) @ vecs.T
    sd = math.sqrt(truth.sigma2)
    ys, groups = [], []
    with open(os.path.join(d, "score.csv"), "w") as handle:
        handle.write(header)
        for i in range(data.n_groups + NEW_GROUPS):
            known = i < data.n_groups
            gid = f"g{i:02d}" if known else f"u{i - data.n_groups:02d}"
            X = generate_design(scheme.p, scheme.ar_rho, SCORE_ROWS_PER_GROUP, rng)
            b = truth.b[i] if known else sqrt_psi @ rng.standard_normal(truth.q)
            y = X @ truth.beta + X[:, : truth.q] @ b + sd * rng.standard_normal(len(X))
            # values are written rounded, and y is kept as the file holds it
            rows = ["%.10g" % v for v in np.column_stack([y, X]).ravel().tolist()]
            width = scheme.p + 1
            lines = [gid + "," + ",".join(rows[r * width:(r + 1) * width])
                     for r in range(len(X))]
            handle.write("\n".join(lines) + "\n")
            ys.append(np.array([float(v) for v in rows[0::width]]))
            groups += [gid] * len(X)
    return training_truth, (np.concatenate(ys), groups)


def _artifact_meta(text: str) -> dict[str, str]:
    meta = {}
    lines = text.splitlines()
    for line in lines[lines.index("[meta]") + 1:]:
        if line.startswith("["):
            break
        key, _, value = line.partition("\t")
        meta[key] = value
    return meta


def _predictions(text: str) -> tuple[list[str], np.ndarray, list[bool]]:
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    return ([r[1] for r in rows], np.array([float(r[2]) for r in rows]),
            [r[3] == "1" for r in rows])


WORKLOADS = {w.name: w for w in (SimH1, SimBigGroups, CliSession)}
