"""BLAS runs on one thread in every catebench process.

numpy's bundled OpenBLAS would otherwise start one thread per CPU, and a
threaded product rounds differently, so result bytes would depend on the
machine and on the caller's ``OPENBLAS_NUM_THREADS``. The kernel OpenBLAS
picks by CPU also rounds products its own way: results agree across
kernels in value, not in bits.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catebench import _blas
from catebench.cli import main
from catebench.harness import aggregate, load_results
from catebench.metrics import METRIC_FIELDS

SRC = str(Path(__file__).resolve().parent.parent / "src")
LIB = _blas.openblas()
needs_openblas = pytest.mark.skipif(
    LIB is None, reason="numpy has no bundled OpenBLAS with scipy_openblas thread calls")
_CORENAME = "scipy_openblas_get_corename64_"

# Loads numpy and sets its OpenBLAS to 2 threads before catebench is
# imported, then reads the thread count back inside every cell of a serial
# and of a two-worker sweep (the cell is replaced by a probe that records it;
# the probe reaches pool workers through fork).
_PROBE = """
import ctypes, json, multiprocessing, os, sys
import numpy

multiprocessing.set_start_method("fork")

lib = ctypes.CDLL(sys.argv[1])
lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
lib.scipy_openblas_set_num_threads64_(2)
threads_before = lib.scipy_openblas_get_num_threads64_()

import catebench.harness as harness

def probe(config, knob_value, seed, covariates=None, workers=1):
    threads = lib.scipy_openblas_get_num_threads64_()
    return [harness.ResultRecord("probe", "t", config.attribution_method, config.knob,
                                 knob_value, seed, threads, os.getpid(), 0.0, 0.0)]

harness.run_cell = probe
cfg = harness.ExperimentConfig(knob_grid=(0.0, 1.0), seeds=2)
out = {"before": threads_before, "parent": os.getpid()}
for workers in (1, 2):
    records = harness.run_experiment(cfg, workers=workers)
    out[workers] = [[r.attr_pred, r.attr_prog] for r in records]
print(json.dumps(out))
"""


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@needs_openblas
def test_one_thread_in_serial_cell_and_pool_worker():
    proc = subprocess.run([sys.executable, "-c", _PROBE, LIB._name], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["before"] == 2
    serial, pooled = out["1"], out["2"]
    assert [threads for threads, _ in serial] == [1, 1, 1, 1]
    assert {pid for _, pid in serial} == {out["parent"]}
    assert [threads for threads, _ in pooled] == [1, 1, 1, 1]
    assert out["parent"] not in {pid for _, pid in pooled}  # ran in pool workers


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_no_second_thread_started_at_load():
    """The pin lands before numpy loads, so OpenBLAS starts no idle thread."""
    code = "import os, catebench; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], env=_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


@needs_openblas
def test_cli_bytes_ignore_openblas_num_threads(tmp_path, monkeypatch):
    """Large enough for OpenBLAS to thread its products when allowed to."""
    monkeypatch.chdir(tmp_path)
    config = {"synth_n": 2000, "synth_d": 30,
              "train": {"learning_rate": 1e-3, "batch_size": 512, "max_epochs": 3,
                        "patience": 2}}
    Path("cfg.json").write_text(json.dumps(config))
    assert main(["generate", "--config", "cfg.json", "--seed", "3"]) == 0
    outputs = {}
    for threads in ("2", "1"):
        for args in (
            ["fit", "--data", "data.csv", "--learner", "x", "--config", "cfg.json",
             "--out-dir", f"model-{threads}"],
            ["attribute", "--model", f"model-{threads}", "--data", "data.csv",
             "--out", f"attr-{threads}.csv"],
        ):
            proc = subprocess.run([sys.executable, "-m", "catebench.cli", *args],
                                  env=_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        outputs[threads] = (Path(f"model-{threads}", "weights.npz").read_bytes(),
                            Path(f"attr-{threads}.csv").read_bytes())
    assert outputs["2"][0] == outputs["1"][0]
    assert outputs["2"][1] == outputs["1"][1]


# Prints the OpenBLAS kernel this process loaded, then runs a sweep.
_KERNEL_SWEEP = f"""
import ctypes, sys
from catebench import _blas
from catebench.cli import main

corename = _blas.openblas().{_CORENAME}
corename.argtypes, corename.restype = [], ctypes.c_char_p
print(corename().decode())
sys.exit(main(["experiment", "--config", sys.argv[1], "--workers", "1", "--out-csv", sys.argv[2]]))
"""


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or LIB is None or not hasattr(LIB, _CORENAME),
    reason=f"OPENBLAS_CORETYPE names x86 kernels; needs numpy's OpenBLAS with {_CORENAME}")
def test_sweep_agrees_across_blas_kernels(tmp_path, monkeypatch):
    """The default kernel against Prescott's (SSE-only Katmai), which every x86-64 CPU runs."""
    monkeypatch.chdir(tmp_path)
    config = {"synth_n": 400, "synth_d": 12, "knob": "predictive_scale", "knob_grid": [0.01, 1.0],
              "sigma": 0.1, "learners": ["s", "t"], "seeds": 2, "attribution_cap": 50,
              "train": {"learning_rate": 1e-3, "batch_size": 128, "max_epochs": 5,
                        "patience": 3}}
    Path("cfg.json").write_text(json.dumps(config))
    kernels, records = [], []
    for coretype in (None, "Prescott"):
        env = _env(OPENBLAS_CORETYPE=coretype)
        if coretype is None:  # OpenBLAS picks the kernel by CPU
            del env["OPENBLAS_CORETYPE"]
        out = f"{coretype}.csv"
        proc = subprocess.run([sys.executable, "-c", _KERNEL_SWEEP, "cfg.json", out], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        kernels.append(proc.stdout.split("\n")[0])
        records.append(load_results(out))
    assert kernels[0] != kernels[1], kernels  # else the comparison shows nothing
    default, forced = records
    assert [r.key for r in default] == [r.key for r in forced]
    for name in ("attr_pred", "attr_prog", "pehe"):
        np.testing.assert_allclose([getattr(r, name) for r in forced],
                                   [getattr(r, name) for r in default], rtol=1e-12, atol=0)

    def learner_order(recs):
        """Per knob value and metric, the learners sorted by their mean."""
        rows = aggregate(recs)
        return [
            [r.learner for r in sorted(rows, key=lambda r: getattr(r, mean)) if r.knob_value == v]
            for v in config["knob_grid"] for mean, _, _ in METRIC_FIELDS.values()
        ]

    assert learner_order(default) == learner_order(forced)
