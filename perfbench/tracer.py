"""Layer tracing for catebench, installed from outside the package.

Run as ``python3 perfbench/tracer.py <trace_dir> <launched> <catebench
args...>``, where ``launched`` is the caller's ``time.perf_counter()`` just
before it started this process (the clock is system-wide on Linux): it
imports catebench from the checkout's ``src``, replaces the public
functions of each layer with timing wrappers (in every module that holds a
reference to them), runs ``catebench.cli.main`` and writes what it saw to
``<trace_dir>/main-<pid>.json``. Sweep pool workers inherit the wrappers
through fork; each writes ``<trace_dir>/worker-<pid>.json`` after every cell
it runs, so nothing stays behind in a worker when the pool shuts down.

A span is one call of a wrapped function. Per span name the tracer keeps
the number of calls, the total seconds and the self seconds (total minus
the time covered by wrapped calls made from inside it, in the same
process); some names also keep every duration so percentiles can be taken.
Two spans cover what happens before ``cli.main`` runs: ``process.boot``
(interpreter start-up until this script runs) and ``process.import``
(importing catebench and numpy, and installing the wrappers). Nothing
inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

_SCRIPT_STARTED = time.perf_counter()


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.stack: list[list] = []  # open spans: [name, seconds covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def _current(self) -> "Tracer":
        # A forked pool worker starts with a copy of the parent's spans;
        # drop them so every span is reported by exactly one process.
        if os.getpid() != self.pid:
            self._reset()
        return self

    def add(self, name: str, value: float) -> None:
        self._current().counts[name] = self.counts.get(name, 0) + value

    def span(self, fn, name, keep_samples: bool = False, rows_arg: int | None = None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._current()
            key = name(*args, **kwargs) if callable(name) else name
            if rows_arg is not None:
                x = args[rows_arg]
                self.add(key + ".rows", x.shape[0] if getattr(x, "ndim", 1) > 1 else 1)
            frame = [key, 0.0]
            self.stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self.stack.pop()
                stats = self.spans.setdefault(key, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
                if keep_samples:
                    self.samples.setdefault(key, []).append(elapsed)

        return traced

    def dump(self, path: Path) -> None:
        record = {"pid": self.pid, "spans": self.spans, "counts": self.counts,
                  "samples": self.samples}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        tmp.replace(path)

    def flush_worker(self) -> None:
        if self.pid != self.root_pid:
            self.dump(self.out_dir / f"worker-{self.pid}.json")


def _patch(original, replacement) -> None:
    """Point every reference to ``original`` in catebench modules at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "catebench" or mod_name.startswith("catebench.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):  # e.g. the CLI's command table
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def _wrap(tracer: Tracer, module, attr: str, name, **kwargs) -> None:
    original = getattr(module, attr)
    _patch(original, tracer.span(original, name, **kwargs))


def _wrap_minibatch_fit(tracer: Tracer, nn) -> None:
    """Count epochs through the validation callback; one call per epoch."""
    original = nn.minibatch_fit
    signature = inspect.signature(original)

    def counted_fit(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        val_loss_fn = bound.arguments["val_loss_fn"]
        epochs = 0

        def counted_val(arrays):
            nonlocal epochs
            epochs += 1
            return val_loss_fn(arrays)

        bound.arguments["val_loss_fn"] = counted_val
        try:
            return original(*bound.args, **bound.kwargs)
        finally:
            tracer.add("nn.epochs", epochs)
            if epochs == bound.arguments["config"].max_epochs:
                tracer.add("nn.fits_at_max_epochs", 1)

    _patch(original, tracer.span(functools.wraps(original)(counted_fit), "nn.minibatch_fit"))


def _tarnet_label(train, gamma, *args, **kwargs) -> str:
    return "learners.fit.tarnet" if gamma == 0 else f"learners.fit.cfrnet-{gamma:g}"


def install(tracer: Tracer) -> None:
    """Wrap every traced function of every catebench layer."""
    import catebench.cli as cli
    from catebench import attribution, dgp, harness, learners, metrics, nn, svgplot

    # nn: the training step and the early-stopped loop.
    _wrap(tracer, nn, "mlp_forward", "nn.mlp_forward", rows_arg=1)
    _wrap(tracer, nn, "mlp_backward", "nn.mlp_backward", rows_arg=1)
    _wrap(tracer, nn, "adam_step", "nn.adam_step")
    _wrap_minibatch_fit(tracer, nn)

    # learners: one span per fit strategy, prediction, save/load.
    for attr, label in (("fit_s_learner", "s"), ("fit_t_learner", "t"),
                        ("fit_dr_learner", "dr"), ("fit_x_learner", "x")):
        _wrap(tracer, learners, attr, f"learners.fit.{label}")
    _wrap(tracer, learners, "fit_tarnet", _tarnet_label)
    for cls in (learners.SEstimator, learners.TEstimator, learners.TarnetEstimator,
                learners.DrEstimator, learners.XEstimator):
        cls.predict_cate = tracer.span(cls.predict_cate, "learners.predict_cate")
    _wrap(tracer, learners, "save_estimator", "learners.save_estimator")
    _wrap(tracer, learners, "load_estimator", "learners.load_estimator")

    # attribution: one span per method, plus MC Shapley per row and CSV I/O.
    _wrap(tracer, attribution, "attribute_batch",
          lambda method, *a, **k: f"attribution.attribute_batch.{method}")
    _wrap(tracer, attribution, "shapley_mc", "attribution.shapley_mc")
    _wrap(tracer, attribution, "save_attributions", "attribution.save_attributions")
    _wrap(tracer, attribution, "load_attributions", "attribution.load_attributions")

    for attr in ("load_covariates_csv", "generate_dataset", "train_test_split",
                 "save_dataset", "load_observed", "load_dataset"):
        _wrap(tracer, dgp, attr, f"dgp.{attr}")
    for attr in ("attr_pred", "attr_prog", "pehe"):
        _wrap(tracer, metrics, attr, "metrics.score")
    _wrap(tracer, svgplot, "emit_plot_svg", "svgplot.emit_plot_svg")

    # harness: cells, the sweep and its outputs. A pool worker writes its
    # spans out after each cell, because workers exit without running
    # Python exit handlers.
    cell = tracer.span(harness.run_cell, "harness.run_cell", keep_samples=True)

    @functools.wraps(harness.run_cell)
    def run_cell_and_flush(*args, **kwargs):
        try:
            return cell(*args, **kwargs)
        finally:
            tracer.flush_worker()

    _patch(harness.run_cell, run_cell_and_flush)
    for attr in ("run_experiment", "aggregate", "emit_csv"):
        _wrap(tracer, harness, attr, f"harness.{attr}")

    for command in ("generate", "fit", "attribute", "evaluate", "experiment"):
        _wrap(tracer, cli, f"_cmd_{command}", f"cli.{command}", keep_samples=True)


def main(argv: list[str]) -> int:
    out_dir, launched, cli_args = Path(argv[0]), float(argv[1]), argv[2:]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(out_dir)
    install(tracer)
    import catebench.cli as cli

    boot = _SCRIPT_STARTED - launched
    imported = time.perf_counter() - _SCRIPT_STARTED
    tracer.spans["process.boot"] = [1, boot, boot]
    tracer.spans["process.import"] = [1, imported, imported]
    try:
        return tracer.span(cli.main, "cli.main")(cli_args)
    finally:
        tracer.dump(out_dir / f"main-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
