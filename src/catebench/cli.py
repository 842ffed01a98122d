"""Command-line interface.

Subcommands: generate, fit, attribute, evaluate, experiment, plot. Each
reads a JSON config file (where applicable) plus flag overrides. Exit
codes: 0 success, 1 configuration/usage error (a malformed config file
and a path the OS cannot read or write included), 2 runtime error (a
malformed input file included, and an ``experiment`` or ``plot`` with any
record whose score is non-finite, after it has written its outputs). Every file is read and written through
``tables``, which names a malformed one.
``fit`` fits its label through ``harness.fit_learners``, as a sweep cell
fits each of its labels, under the root (seed,): its T is the first stage
its DR and X regress on. It makes ``--out-dir`` before any network is fitted,
and fits the label's independent networks side by side in worker processes,
one per usable CPU (``taskset -c 0`` holds it to one, in this process), with
the same bytes for any count.
Only the commands that load ``harness`` configure ``logging``: attribute and
evaluate start without it. A program run (``main()`` with no argument list)
freezes the objects alive at its start, the imported modules, so neither
the command's collections nor the one at exit walk them.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
from pathlib import Path

# harness and svgplot are imported inside the commands that use them:
# attribute and evaluate, which run once per model and method, start
# without them. The process pool loads only when more than one worker runs
# (``learners.side_by_side``).
from . import attribution, dgp, learners, metrics, tables
from .errors import CatebenchError, InvalidConfigError, ParseError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's default 2
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_config(path: str | None):
    from . import harness

    if path is None:
        return harness.ExperimentConfig()
    p = Path(path)
    if not p.exists():
        raise InvalidConfigError(f"config file not found: {p}")
    try:
        return harness.ExperimentConfig.from_dict(tables.read_json(p))
    except ParseError as err:
        raise InvalidConfigError(str(err)) from None


def _apply_overrides(config, args):
    """``experiment``'s --seeds and --learners over the config."""
    updates = {}
    if args.seeds is not None:
        updates["seeds"] = args.seeds
    if args.learners:
        updates["learners"] = tuple(args.learners.split(","))
    return dataclasses.replace(config, **updates)


def _build_parser() -> _Parser:
    parser = _Parser(prog="catebench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate",
                       help="generate one semi-synthetic dataset")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-data", default="data.csv")
    p.add_argument("--out-truth", default="truth.csv")
    p.add_argument("--out-meta", default="meta.json")

    p = sub.add_parser("fit", help="fit one CATE estimator")
    p.add_argument("--data", required=True, help="observed dataset CSV")
    p.add_argument("--learner", required=True,
                   help="s | t | dr | x | tarnet | cfrnet[:gamma]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="experiment config JSON (training block)")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("attribute",
                       help="score feature importance of a fitted estimator")
    p.add_argument("--model", required=True, help="estimator directory")
    p.add_argument("--data", required=True, help="query dataset CSV")
    p.add_argument("--method", default=attribution.INTEGRATED_GRADIENTS,
                   choices=attribution.METHODS)
    p.add_argument("--cap", type=int, default=attribution.DEFAULT_ROW_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate",
                       help="score attributions and predictions against truth")
    p.add_argument("--attributions", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--model", help="estimator directory (enables effect RMSE)")
    p.add_argument("--data", help="dataset CSV (needed with --model)")
    p.add_argument("--truth", help="ground-truth CSV (needed with --model)")
    p.add_argument("--out", help="write metrics JSON here instead of stdout")

    p = sub.add_parser("experiment",
                       help="run a full sweep and write CSV + SVG plots")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--preset", help="predictive_scale | nonlinearity | confounding")
    p.add_argument("--seeds", type=int)
    p.add_argument("--learners", help="comma-separated learner list override")
    p.add_argument("--workers", type=int)
    p.add_argument("--timing", action="store_true",
                   help="record wall times in the CSV (breaks byte determinism)")
    p.add_argument("--out-csv", default="results.csv")
    p.add_argument("--out-svg-prefix",
                   help="write <prefix>_<metric>.svg for each metric")

    p = sub.add_parser("plot", help="plot an existing result CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--metric", default="attr_pred", choices=sorted(metrics.METRIC_FIELDS))
    p.add_argument("--out", required=True)

    return parser


def _cmd_generate(args) -> int:
    from . import harness

    config = _load_config(args.config)
    ds = harness.build_dataset(config, harness.fixed_knob_value(config), args.seed)
    dgp.save_dataset(ds, args.out_data, args.out_truth, args.out_meta)
    print(f"wrote {args.out_data}, {args.out_truth}, {args.out_meta} "
          f"({ds.n} units, {ds.d} features)")
    return 0


def _cmd_fit(args) -> int:
    from . import harness

    config = _load_config(args.config)
    learners.parse_learner(args.learner)  # a bad label exits 1 before --out-dir is made
    obs, _, _ = dgp.load_observed(args.data)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    [(_, est, _)] = harness.fit_learners((args.learner,), obs, config.train, args.seed,
                                         workers=harness.usable_cpus())
    if isinstance(est, Exception):
        raise est
    learners.save_estimator(est, args.out_dir)
    print(f"fitted {args.learner} on {obs.n} units -> {args.out_dir}")
    return 0


def _cmd_attribute(args) -> int:
    attribution.check_settings(args.method, args.cap)  # before any file is read
    attribution.check_scorable(args.method, None, args.cap, "--method with --cap")
    est = learners.load_estimator(args.model)
    obs, _, unit_ids = dgp.load_observed(args.data)
    mat = attribution.attribute_batch(args.method, est, obs.x, max_rows=args.cap, seed=args.seed)
    attribution.save_attributions(mat, unit_ids[mat.row_indices], args.out)
    print(f"wrote {args.out} ({mat.scores.shape[0]} rows, method {args.method})")
    return 0


def _cmd_evaluate(args) -> int:
    mat, _ = attribution.load_attributions(args.attributions)
    names, sets = dgp.load_meta(args.meta)[:2]
    if mat.scores.shape[1] != len(names):
        raise ParseError(f"{args.attributions}: {mat.scores.shape[1]} score columns, but "
                         f"{args.meta} names {len(names)} features", row=0)
    out = {
        "attr_pred": metrics.attr_pred(mat, sets.predictive),
        "attr_prog": metrics.attr_prog(mat, sets.prognostic),
        "n_eval": int(mat.scores.shape[0]),
    }
    if args.model:
        if not (args.data and args.truth):
            raise InvalidConfigError("--model needs --data and --truth for effect RMSE")
        est = learners.load_estimator(args.model)
        ds = dgp.load_dataset(args.data, args.truth, args.meta)
        out["pehe"] = metrics.pehe(est.predict_cate(ds.covariates.x), ds.truth.tau)
    if args.out:
        tables.write_json(args.out, out)
    else:
        print(json.dumps(out, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    from . import harness

    if args.preset and args.config:
        raise InvalidConfigError("give either --preset or --config, not both")
    if args.preset:
        config = harness.experiment_preset(args.preset)
    else:
        config = _load_config(args.config)
    config = _apply_overrides(config, args)
    records = harness.run_experiment(config, workers=args.workers)
    harness.emit_csv(records, args.out_csv, include_timing=args.timing)
    print(f"wrote {args.out_csv} ({len(records)} records)")
    drawn = sorted(metrics.METRIC_FIELDS) if args.out_svg_prefix else []
    return _plot_and_check(records, [(m, f"{args.out_svg_prefix}_{m}.svg") for m in drawn])


def _cmd_plot(args) -> int:
    from . import harness

    return _plot_and_check(harness.load_results(args.results), [(args.metric, args.out)])


def _plot_and_check(records, charts) -> int:
    """Draw each (metric, path) chart with a finite value, then raise if any record failed."""
    from . import harness, svgplot

    rows = harness.aggregate(records)
    for metric, path in charts:
        if any(math.isfinite(getattr(r, metrics.METRIC_FIELDS[metric][0])) for r in rows):
            svgplot.emit_plot_svg(rows, metric, path)
            print(f"wrote {path}")
    failed = [f"({r.learner}, {r.knob_value!r}, {r.seed})" for r in records if r.failed]
    if failed:
        raise CatebenchError(f"{len(failed)} of {len(records)} records failed with a non-finite "
                             f"score at (learner, {records[0].knob}, seed): {', '.join(failed)}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "attribute": _cmd_attribute,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "plot": _cmd_plot,
}


# The commands that load harness, whose sweeps log each failed learner.
_LOGGING_COMMANDS = ("generate", "fit", "experiment", "plot")


def main(argv=None) -> int:
    if argv is None:  # a program run (the console script, ``python -m``), not a library call
        gc.freeze()  # no collection walks what is alive now, the one at exit included
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    if args.command in _LOGGING_COMMANDS:
        import logging

        logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (InvalidConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CatebenchError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
