"""catebench benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep_serial --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it runs ``src/catebench`` from that
checkout through its command-line interface, as users do, in child
processes. Workloads (``BENCHMARK.json`` says why each was chosen):

- ``sweep_pool``: ``catebench experiment --workers 2`` on a two-cell
  confounding sweep (six learners, integrated gradients, SVG plots), then
  the same sweep with ``--workers 1``, whose CSV must match byte for byte.
  Pool workers and BLAS threads compete for the cores here, and the wall
  time of one sweep varies by a factor of several from run to run; that
  spread is the oversubscription defect itself, so the workload is run by
  hand and is not listed in ``BENCHMARK.json`` until the defect is fixed;
- ``sweep_serial``: the same sweep with ``--workers 1``;
- ``explain_cli``: ``generate`` and five ``fit`` calls as set-up, then
  ``attribute`` with five methods and ``evaluate`` per fitted learner.

Every workload trains with the acceptance schedule (lr 1e-3, batch 512,
at most 150 epochs, patience 10) on equicorrelated Gaussian covariates
(rho 0.9) that this script writes from ``--seed``. The script never sets a
BLAS, OpenMP or ``CATEBENCH_WORKERS`` variable: the pool size reaches the
program only through ``--workers``, so BLAS oversubscription shows.

With ``--trace 0`` the workload runs in a loop for ``--seconds`` and the
end-to-end metrics are printed. With ``--trace 1`` it runs once untraced
and once under ``perfbench/tracer.py``, and the per-layer metrics are
printed. Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every correctness check passed.

``--tiny`` shrinks every workload (small n, a few epochs) so that
``perfbench/selftest.py`` can check the output shape in seconds.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("sweep_pool", "sweep_serial", "explain_cli")

TRAIN = {"learning_rate": 1e-3, "batch_size": 512, "max_epochs": 150, "patience": 10}
TINY_TRAIN = {"learning_rate": 1e-3, "batch_size": 512, "max_epochs": 3, "patience": 2}
N_ROWS, TINY_ROWS = 2000, 200
N_FEATURES = 30
RHO = 0.9
SWEEP_GRID = [0.0, 2.0]
SWEEP_LEARNERS = ["s", "t", "tarnet", "dr", "x", "cfrnet:10"]
EXPLAIN_LEARNERS = ["s", "t", "tarnet", "dr", "x"]
METHODS = ["saliency", "integrated_gradients", "feature_ablation",
           "feature_permutation", "shapley_mc"]
ATTRIBUTION_CAP = 1000
SHAPLEY_CAP = 1  # MC Shapley costs about 2 s per row at d=30
# The sweeps' cells always use seeds 0..k-1 (the config has no seed offset),
# so the workload seed reaches every workload only through the covariates;
# explain_cli passes seed 0 to generate, fit and attribute likewise, so its
# quality metrics stay comparable across workload seeds.
PROGRAM_SEED = 0
RESULT_COLUMNS = ["dataset", "learner", "attr_method", "knob", "knob_value", "seed",
                  "attr_pred", "attr_prog", "pehe", "wall_ms"]
LAYERS = ["harness", "dgp", "learners", "nn", "attribution", "metrics", "svgplot", "cli"]
FIT_LABELS = ["s", "t", "tarnet", "cfrnet-10", "dr", "x"]
RUN_DEADLINE_S = 170  # a run must end within 180 s


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- Child processes ---------------------------------------------------------


@dataclass
class Call:
    """One finished catebench process: exit code, wall and CPU seconds."""

    code: int
    wall_s: float
    cpu_s: float


class Runner:
    """Runs catebench commands from the checkout's ``src`` and accounts for them."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline  # time.perf_counter() by which every child has ended
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.attempted = 0
        self.failed = 0

    def catebench(self, args: list[str], trace_dir: Path | None = None, ops: int = 1) -> Call:
        """Run one catebench command in the work directory; ``ops`` is what it attempts."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        if trace_dir is None:
            cmd = [sys.executable, "-m", "catebench.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_dir), repr(started),
                   *args]
        # A process group of its own lets a timeout stop the pool workers too.
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.attempted += ops
            self.failed += ops
            raise CheckFailed(f"catebench {args[0]} did not end before the run's deadline")
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.attempted += ops
        if proc.returncode != 0:
            self.failed += ops
            sys.stderr.write(f"catebench {' '.join(args)} exited {proc.returncode}:\n"
                             f"{stderr[-2000:]}\n")
        return Call(proc.returncode, wall, cpu)


# --- Inputs ------------------------------------------------------------------


def write_covariates(path: Path, seed: int, n: int) -> None:
    """Equicorrelated Gaussians: x_j = sqrt(rho) z_0 + sqrt(1 - rho) z_j."""
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((n, 1))
    x = math.sqrt(RHO) * common + math.sqrt(1.0 - RHO) * rng.standard_normal((n, N_FEATURES))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j}" for j in range(N_FEATURES)])
        writer.writerows([[repr(float(v)) for v in row] for row in x])


def quality(scores: np.ndarray) -> dict[str, float]:
    """Means over records of (attr_pred, attr_prog, pehe) columns."""
    return {"attr_pred_mean": float(scores[:, 0].mean()),
            "attr_prog_mean": float(scores[:, 1].mean()),
            "pehe_mean": float(scores[:, 2].mean())}


def timed_setup(step) -> float:
    started = time.perf_counter()
    step()
    return time.perf_counter() - started


# --- Workloads ---------------------------------------------------------------


class Sweep:
    """``catebench experiment`` on the two-cell confounding config."""

    def __init__(self, runner: Runner, seed: int, workers: int, tiny: bool):
        self.runner = runner
        self.seed = seed
        self.workers = workers
        self.tiny = tiny
        self.n_records = len(SWEEP_GRID) * len(SWEEP_LEARNERS)
        self.min_runs = 2 if workers == 1 else 1  # two runs give the repeat check
        self.setup_repeats = 11  # before and after each run; one set-up takes about 0.1 s
        self.runs = 0
        self.digests: list[str] = []
        self.quality: dict[str, float] = {}

    def setup(self) -> float:
        work = self.runner.work
        n = TINY_ROWS if self.tiny else N_ROWS
        config = {
            "dataset_tag": "bench", "covariates_csv": "covariates.csv",
            "knob": "propensity_scale", "knob_grid": SWEEP_GRID,
            "omega_pred": 1.0, "omega_nl": 0.0,
            "propensity_kind": "predictive_confounding", "learners": SWEEP_LEARNERS,
            "attribution_method": "integrated_gradients", "seeds": 1,
            "train": TINY_TRAIN if self.tiny else TRAIN,
        }
        (work / "sweep.json").write_text(json.dumps(config, indent=2) + "\n")
        return timed_setup(lambda: write_covariates(work / "covariates.csv", self.seed, n))

    def run(self, workers: int | None = None, trace_dir: Path | None = None) -> Call:
        tag = f"run{self.runs}"
        self.runs += 1
        workers = self.workers if workers is None else workers
        call = self.runner.catebench(
            ["experiment", "--config", "sweep.json", "--workers", str(workers),
             "--out-csv", f"{tag}.csv", "--out-svg-prefix", tag],
            trace_dir, ops=self.n_records)
        check(call.code == 0, f"experiment {tag} exited {call.code}")
        self._check_outputs(tag)
        return call

    def _check_outputs(self, tag: str) -> None:
        work = self.runner.work
        with open(work / f"{tag}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        check(rows and rows[0] == RESULT_COLUMNS, f"{tag}.csv: unexpected header {rows[:1]}")
        body = rows[1:]
        check(len(body) == self.n_records, f"{tag}.csv: {len(body)} records, "
                                           f"expected {self.n_records}")
        keys = {(float(r[4]), int(r[5]), r[1]) for r in body}
        expected = {(v, 0, learner) for v in SWEEP_GRID for learner in SWEEP_LEARNERS}
        check(keys == expected, f"{tag}.csv: records do not cover the grid x learners")
        scores = np.array([[float(r[6]), float(r[7]), float(r[8])] for r in body])
        bad = int(np.sum(~np.all(np.isfinite(scores), axis=1)))
        self.runner.failed += bad  # run_cell turns each failed learner into a NaN row
        check(bad == 0, f"{tag}.csv: {bad} records with non-finite scores")
        for metric in ("attr_pred", "attr_prog", "pehe"):
            text = (work / f"{tag}_{metric}.svg").read_text()
            check(text.lstrip().startswith("<") and "</svg>" in text, f"{tag}_{metric}.svg")
        self.digests.append(sha256(work / f"{tag}.csv"))
        check(len(set(self.digests)) == 1, f"{tag}.csv differs from an earlier run of "
                                           f"the same inputs: {self.digests}")
        self.quality = quality(scores)

    def verify(self, reference: bool) -> list[str]:
        """Repeats must agree; a pooled sweep must also match a serial one."""
        checks = ["result CSVs parse, cover the grid and hold finite scores; SVGs written"]
        if self.runs > 1:
            checks.append(f"result CSV repeats byte for byte over {self.runs} runs")
        if reference and self.workers > 1:
            self.run(workers=1)
            checks.append("pooled result CSV equals the --workers 1 CSV byte for byte")
        return checks

    def outputs(self) -> dict:
        return {"result_csv_sha256": self.digests[0]}


class Explain:
    """generate + fit as set-up; attribute + evaluate per learner and method."""

    def __init__(self, runner: Runner, seed: int, tiny: bool):
        self.runner = runner
        self.seed = seed
        self.tiny = tiny
        self.n = TINY_ROWS if tiny else N_ROWS
        self.cap = 20 if tiny else ATTRIBUTION_CAP
        self.setups = 0
        self.model_digests: list[str] = []
        self.runs = 0
        self.digests: list[str] = []
        self.quality: dict[str, float] = {}
        self.workers = 1
        self.min_runs = 1
        self.setup_repeats = 2  # each set-up fits five learners

    def setup(self, trace_dir: Path | None = None) -> float:
        work = self.runner.work
        config = {"covariates_csv": "covariates.csv",
                  "train": TINY_TRAIN if self.tiny else TRAIN}
        (work / "explain.json").write_text(json.dumps(config, indent=2) + "\n")
        self.setups += 1
        return timed_setup(lambda: self._setup_step(trace_dir))

    def _setup_step(self, trace_dir: Path | None) -> None:
        work = self.runner.work
        write_covariates(work / "covariates.csv", self.seed, self.n)
        call = self.runner.catebench(
            ["generate", "--config", "explain.json", "--seed", str(PROGRAM_SEED),
             "--out-data", "data.csv", "--out-truth", "truth.csv", "--out-meta", "meta.json"],
            trace_dir)
        check(call.code == 0, f"generate exited {call.code}")
        digest = hashlib.sha256(sha256(work / "data.csv").encode())
        for learner in EXPLAIN_LEARNERS:
            call = self.runner.catebench(
                ["fit", "--data", "data.csv", "--learner", learner, "--seed", str(PROGRAM_SEED),
                 "--config", "explain.json", "--out-dir", f"model-{learner}"], trace_dir)
            check(call.code == 0, f"fit {learner} exited {call.code}")
            digest.update(sha256(work / f"model-{learner}" / "weights.npz").encode())
        self.model_digests.append(digest.hexdigest())
        check(len(set(self.model_digests)) == 1,
              "generate + fit gave different data or weights on a repeated set-up")

    def run(self, trace_dir: Path | None = None) -> Call:
        work = self.runner.work
        tag = f"run{self.runs}"
        self.runs += 1
        total = Call(0, 0.0, 0.0)
        digest = hashlib.sha256()
        evaluations = []
        for learner in EXPLAIN_LEARNERS:
            for method in METHODS:
                stem = f"{tag}-{learner}-{method}"
                cap = SHAPLEY_CAP if method == "shapley_mc" else self.cap
                calls = [
                    self.runner.catebench(
                        ["attribute", "--model", f"model-{learner}", "--data", "data.csv",
                         "--method", method, "--cap", str(cap), "--seed", str(PROGRAM_SEED),
                         "--out", f"{stem}.csv"], trace_dir),
                    self.runner.catebench(
                        ["evaluate", "--attributions", f"{stem}.csv", "--meta", "meta.json",
                         "--model", f"model-{learner}", "--data", "data.csv",
                         "--truth", "truth.csv", "--out", f"{stem}.json"], trace_dir),
                ]
                for call in calls:
                    total.wall_s += call.wall_s
                    total.cpu_s += call.cpu_s
                check(all(c.code == 0 for c in calls), f"{stem}: a catebench call failed")
                evaluations.append(self._check_outputs(stem, min(cap, self.n)))
                digest.update(sha256(work / f"{stem}.csv").encode())
        self.digests.append(digest.hexdigest())
        check(len(set(self.digests)) == 1,
              "attributions differ from an earlier run of the same inputs")
        self.quality = quality(np.array(evaluations))
        return total

    def _check_outputs(self, stem: str, rows_expected: int) -> list[float]:
        work = self.runner.work
        with open(work / f"{stem}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        check(rows and rows[0][:2] == ["unit_id", "method"]
              and len(rows[0]) == 2 + N_FEATURES, f"{stem}.csv: unexpected header")
        check(len(rows) - 1 == rows_expected,
              f"{stem}.csv: {len(rows) - 1} rows, expected {rows_expected}")
        scores = np.array([[float(c) for c in r[2:]] for r in rows[1:]])
        check(bool(np.all(np.isfinite(scores))), f"{stem}.csv: non-finite scores")
        result = json.loads((work / f"{stem}.json").read_text())
        values = [result.get(k) for k in ("attr_pred", "attr_prog", "pehe")]
        ok = all(isinstance(v, float) and math.isfinite(v) for v in values)
        if not ok:
            self.runner.failed += 1
        check(ok and result.get("n_eval") == rows_expected, f"{stem}.json: {result}")
        return values

    def verify(self, reference: bool) -> list[str]:
        checks = ["attribution CSVs and evaluate outputs parse with the expected rows and "
                  "finite scores",
                  f"data and weights repeat byte for byte over {self.setups} set-ups"]
        if self.runs > 1:
            checks.append(f"attributions repeat byte for byte over {self.runs} runs")
        return checks

    def outputs(self) -> dict:
        return {"weights_sha256": self.model_digests[0], "attributions_sha256": self.digests[0]}


# --- Environment -------------------------------------------------------------


def openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read (never set) through ctypes."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return int(getter())
    return None


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: Path, args, workers: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "workload": args.workload,
        "workers": workers,
        "seed": args.seed,
        "openblas_threads": openblas_threads(),
        "caller_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "CATEBENCH_WORKERS"},
    }


# --- Trace summary -------------------------------------------------------------


def load_traces(*dirs: Path) -> tuple[dict, dict, dict, list[dict]]:
    """Merge every process's trace file: spans, counts, samples, main files."""
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    samples: dict[str, list] = {}
    mains = []
    for d in dirs:
        for path in sorted(d.glob("*.json")):
            rec = json.loads(path.read_text())
            if path.name.startswith("main-"):
                mains.append(rec)
            for name, (calls, total, self_s) in rec["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
            for name, value in rec["counts"].items():
                counts[name] = counts.get(name, 0) + value
            for name, values in rec["samples"].items():
                samples.setdefault(name, []).extend(values)
    return spans, counts, samples, mains


def per_layer_metrics(trace_dirs: list[Path], iter_dir: Path, traced: Call,
                      untraced: Call, workers: int) -> dict:
    spans, counts, samples, _ = load_traces(*trace_dirs)
    _, _, _, iter_mains = load_traces(iter_dir)
    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def p50(name):
        return statistics.median(samples[name]) if samples.get(name) else 0.0

    for fn in ("adam_step", "mlp_forward", "mlp_backward"):
        m[f"nn.{fn}.calls"] = (calls(f"nn.{fn}"), "count")
        if fn != "adam_step":
            m[f"nn.{fn}.rows"] = (counts.get(f"nn.{fn}.rows", 0), "count")
        m[f"nn.{fn}.s"] = (total(f"nn.{fn}"), "s")
    m["nn.minibatch_fit.calls"] = (calls("nn.minibatch_fit"), "count")
    m["nn.minibatch_fit.self_s"] = (spans.get("nn.minibatch_fit", [0, 0, 0.0])[2], "s")
    steps = calls("nn.adam_step")
    m["nn.step_ms"] = (1e3 * total("nn.minibatch_fit") / steps if steps else 0.0, "ms")
    m["nn.epochs"] = (counts.get("nn.epochs", 0), "count")
    m["nn.fits_at_max_epochs"] = (counts.get("nn.fits_at_max_epochs", 0), "count")
    m["learners.nets_fitted"] = (calls("nn.minibatch_fit"), "count")
    for label in FIT_LABELS:
        n_fits = calls(f"learners.fit.{label}")
        m[f"learners.fit.{label}.s"] = (total(f"learners.fit.{label}") / n_fits
                                        if n_fits else 0.0, "s")
    m["learners.predict_cate.s"] = (total("learners.predict_cate"), "s")
    m["learners.load_estimator.s"] = (total("learners.load_estimator"), "s")

    cells = samples.get("harness.run_cell", [])
    sweep_s = total("harness.run_experiment")
    m["harness.run_cell.s_p50"] = (p50("harness.run_cell"), "s")
    m["harness.run_cell.s_max"] = (max(cells) if cells else 0.0, "s")
    m["harness.pool.idle_frac"] = (1.0 - sum(cells) / (workers * sweep_s)
                                   if sweep_s else 0.0, "frac")
    for name in ("run_experiment", "aggregate", "emit_csv"):
        m[f"harness.{name}.s"] = (total(f"harness.{name}"), "s")

    for method in METHODS:
        m[f"attribution.attribute_batch.{method}.s"] = (
            total(f"attribution.attribute_batch.{method}"), "s")
    rows = calls("attribution.shapley_mc")
    m["attribution.shapley_mc.s_per_row"] = (total("attribution.shapley_mc") / rows
                                             if rows else 0.0, "s")
    for name in ("save_attributions", "load_attributions"):
        m[f"attribution.{name}.s"] = (total(f"attribution.{name}"), "s")

    m["dgp.load_observed.calls"] = (calls("dgp.load_observed"), "count")
    for name in ("load_observed", "load_dataset", "load_covariates_csv",
                 "generate_dataset", "train_test_split", "save_dataset"):
        m[f"dgp.{name}.s"] = (total(f"dgp.{name}"), "s")
    m["metrics.score.s"] = (total("metrics.score"), "s")
    m["svgplot.emit_plot_svg.s"] = (total("svgplot.emit_plot_svg"), "s")
    m["cli.attribute.s_p50"] = (p50("cli.attribute"), "s")
    m["cli.evaluate.s_p50"] = (p50("cli.evaluate"), "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(s[2] for name, s in spans.items()
                                    if name.split(".")[0] == layer), "s")
    m["process.boot.s"] = (total("process.boot"), "s")
    m["process.import.s"] = (total("process.import"), "s")

    # In each traced catebench process, boot, import and the root span
    # (cli.main) follow one another, and the root span is the sum of the
    # self times of every span under it. What the traced wall time holds
    # beyond them is process exit and the wait for it.
    roots = sum(rec["spans"]["cli.main"][1] for rec in iter_mains)
    selfs = sum(s[2] for rec in iter_mains for name, s in rec["spans"].items()
                if not name.startswith("process."))
    check(abs(roots - selfs) <= 1e-6 * max(roots, 1.0),
          f"traced self times {selfs} do not add up to the root spans {roots}")
    before_main = sum(rec["spans"][name][1] for rec in iter_mains
                      for name in ("process.boot", "process.import"))
    m["trace.root_spans_s"] = (roots, "s")
    m["trace.accounted_frac"] = ((before_main + roots) / traced.wall_s, "frac")
    m["trace.traced_wall_s"] = (traced.wall_s, "s")
    m["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


# --- Main ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small n and a few epochs, for the self-test")
    return p.parse_args(argv)


def run_benchmark(args, root: Path, runner: Runner) -> dict:
    work = runner.work
    if args.workload == "explain_cli":
        workload = Explain(runner, args.seed, args.tiny)
    else:
        workers = 2 if args.workload == "sweep_pool" else 1
        workload = Sweep(runner, args.seed, workers, args.tiny)
    env = environment(root, args, workload.workers)
    print("environment:", json.dumps(env, sort_keys=True))

    setup_times = [workload.setup() for _ in range(workload.setup_repeats)]

    if args.trace:
        untraced = workload.run()
        trace_root = work / "trace"
        setup_dir, iter_dir = trace_root / "setup", trace_root / "run"
        if isinstance(workload, Explain):
            workload.setup(trace_dir=setup_dir)
        traced = workload.run(trace_dir=iter_dir)
        metrics = per_layer_metrics([setup_dir, iter_dir], iter_dir, traced, untraced,
                                    workload.workers)
        print(f"traced run {traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s")
    else:
        walls, cpus = [], []
        started = time.perf_counter()
        while time.perf_counter() - started < args.seconds or len(walls) < workload.min_runs:
            own_before = resource.getrusage(resource.RUSAGE_SELF)
            call = workload.run()
            own_after = resource.getrusage(resource.RUSAGE_SELF)
            own_cpu = (own_after.ru_utime - own_before.ru_utime
                       + own_after.ru_stime - own_before.ru_stime)
            walls.append(call.wall_s)
            cpus.append(call.cpu_s + own_cpu)
            print(f"run {len(walls)}: wall {call.wall_s:.3f} s, cpu {cpus[-1]:.3f} s")
            if isinstance(workload, Sweep):
                # A sweep set-up takes about 0.1 s, and this machine's speed
                # changes from second to second: sample it across the run.
                setup_times += [workload.setup() for _ in range(workload.setup_repeats)]
        peak_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        setup_s = statistics.median(setup_times)
        print(f"setup: median {setup_s:.4f} s over {len(setup_times)} set-ups")
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    checks = workload.verify(reference=not args.trace)
    print("checks passed:", "; ".join(checks))
    print("outputs:", json.dumps(workload.outputs(), sort_keys=True))
    if not args.trace:
        ok_frac = 1.0 - runner.failed / runner.attempted
        metrics["ok_frac"] = {"value": ok_frac, "unit": "frac"}
        for name, value in workload.quality.items():
            metrics[name] = {"value": value, "unit": "rmse" if name == "pehe_mean" else "frac"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "catebench" / "cli.py").is_file():
        print(f"error: {root} holds no src/catebench; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, deadline=time.perf_counter() + RUN_DEADLINE_S)
    try:
        metrics = run_benchmark(args, root, runner)
    except CheckFailed as err:
        print(f"correctness check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(runner.attempted, 1),
                          "failed": max(runner.failed, 1), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": True, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
