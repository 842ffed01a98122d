"""Neural CATE estimation strategies.

Six ways to turn (X, W, Y) into an effect estimate: a single regression
with the assignment as an extra feature (S), two per-arm regressions (T),
a shared representation with per-arm heads and optional balancing (TARNet /
CFRNet), and two pseudo-outcome regressions (DR, X). Every estimator keeps
the same capacity budget -- each scalar function it learns sees 2 hidden
ReLU layers of 100 units -- and exposes exact input gradients for the
attribution methods. Every network is fitted on ``nn``'s one training path
(``holdout_split``, then ``minibatch_fit``); TARNet/CFRNet adds only the
gradient of its factual loss and balancing penalty through the shared
trunk, with its trunk, both heads and the flat gradient in buffers of one
``nn.Workspace`` that lives as long as the fit. Like every fit, it gathers
each minibatch from the training data itself and copies only the
validation rows. A step takes the trunk's ReLU mask first and then writes
the trunk gradient over its spent representation, as ``gradient`` writes
head 0's, so a step holds one batch-tall 100-unit float64 buffer.

``predict_cate`` and ``gradient`` take an optional workspace that every
network of the estimator shares (``attribute_batch`` passes one per call);
their results are always new arrays. X's gradient runs one pass per
network, which yields the network's output and its input gradient
together. TARNet's gradient takes the trunk's ReLU mask first and then
writes head 0's input gradient over the representation, which no later
step reads, so a block holds three 100-unit float64 buffers (the
representation, head 1's input gradient and the heads' hidden layer).

DR and X are second stages on a fitted first stage, a ``NuisanceSet`` of
mu0, mu1 and pi, which they take as an argument. ``fit_nuisances`` is the
one function that fits it: mu0 and mu1 are the T-learner's arms from
``fit_t_learner`` and pi is ``fit_propensity``'s model. DR and X draw
their own networks from children 1 and up of their stream; child 0 stays
unused, so that their fitted bytes hold. ``fit_learner`` is the one map
from a learner label to its fit. Its caller, ``harness.fit_learners`` for
a sweep cell and ``catebench fit`` alike, passes the ``SECOND_STAGES`` (DR
and X) one first stage, fitted only when DR or X is there. Handed a
stage, T is its two arms, else T fits them. ``_check_arms`` is the one
arm rule: every fit needs a unit in each arm, and a network fitted on one
arm (T's arms, X's effect arms) needs an arm that ``nn.splits`` admits
(``MIN_ARM_UNITS``). A smaller arm is a data failure, ``EmptyGroupError``
naming the arm, like an empty one.

``side_by_side`` runs independent jobs in worker processes; it is the
package's one such runner, and a sweep runs its cells through it too. Here
its jobs are one flat list of a learner's independent networks: T's two
arms, the first stage's three networks (the propensity, which trains on
every row, first, then T's arms) or X's two effect arms. S, TARNet/CFRNet
and DR's final network are single fits. Each network draws from its own
generator, made before its job starts, and BLAS runs on one thread, so the
bytes do not depend on the worker count. The ``fit_*`` functions take the
count as an optional last argument, 1 by default, which starts no process;
``catebench fit`` passes the usable CPUs, and a sweep what its cells leave
to each one.

A fitted estimator is saved as a directory: ``manifest.json`` holds the
strategy and every scalar field, and ``weights.npz`` every array field and
every network, layer by layer. Save and load both follow the estimator
class's own fields, so no strategy has persistence code of its own; the
manifest is JSON through ``tables``, and the loader also checks that every
network's layers chain into one output.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from pathlib import Path

import numpy as np

from . import tables
from .dgp import ObservedData
from .errors import EmptyGroupError, InvalidConfigError, ParseError
from .nn import (
    BINARY_CROSS_ENTROPY,
    IDENTITY,
    SIGMOID,
    SQUARED_ERROR,
    VALIDATION_FRACTION,
    MlpParams,
    TrainConfig,
    Workspace,
    _backprop,
    _batch,
    _forward,
    _hidden,
    _take_rows,
    flat_views,
    flatten,
    holdout_split,
    loss_output_grad,
    loss_value,
    minibatch_fit,
    mlp_forward,
    mlp_forward_and_input_gradient,
    mlp_init,
    mlp_input_gradient,
    mmd2_linear_with_grad,
    splits,
    train_early_stop,
)

HIDDEN_UNITS = 100

STRATEGY_S = "s"
STRATEGY_T = "t"
STRATEGY_TARNET = "tarnet"
STRATEGY_CFRNET = "cfrnet"
STRATEGY_DR = "dr"
STRATEGY_X = "x"
SECOND_STAGES = (STRATEGY_DR, STRATEGY_X)  # fitted on a first stage (``fit_nuisances``)

PROPENSITY_CLIP = 0.01  # DR pseudo-outcomes clip propensities to [c, 1 - c]


def check_balancing_weight(strategy: str, gamma: float) -> None:
    """InvalidConfigError unless ``gamma`` is 0 for tarnet, or finite and > 0 for cfrnet.

    The one balancing-weight rule: ``parse_learner``, ``fit_tarnet`` and
    ``load_estimator`` all check through it.
    """
    if not (gamma == 0 if strategy == STRATEGY_TARNET else 0 < gamma < float("inf")):
        need = "a zero" if strategy == STRATEGY_TARNET else "a finite, positive"
        raise InvalidConfigError(f"{strategy} needs {need} balancing weight, got {gamma!r}")


# The smallest arm whose validation split holds out a unit and keeps one.
MIN_ARM_UNITS = next(n for n in count(1) if splits(n, VALIDATION_FRACTION))


def _check_arms(w: np.ndarray, need: int) -> None:
    """EmptyGroupError unless each arm holds ``need`` units.

    Every fit needs 1; a network fitted on one arm alone needs ``MIN_ARM_UNITS``.
    """
    for arm in (0, 1):
        units = np.count_nonzero(w == arm)
        if units < need:
            raise EmptyGroupError(f"arm w={arm} holds {units} of the {need} units the fit needs")


def _fit_regression(
    x: np.ndarray,
    target: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    output_activation: str = IDENTITY,
    loss: str = SQUARED_ERROR,
) -> MlpParams:
    r_init, r_train = rng.spawn(2)
    net = mlp_init([x.shape[1], HIDDEN_UNITS, HIDDEN_UNITS, 1], output_activation, r_init)
    return train_early_stop(net, x, target, loss, config=config, rng=r_train)


@dataclass
class NuisanceSet:
    """First-stage arm regressions and propensity model."""

    mu0: MlpParams
    mu1: MlpParams
    pi: MlpParams

    def mu0_at(self, x):
        return mlp_forward(self.mu0, x)[:, 0]

    def mu1_at(self, x):
        return mlp_forward(self.mu1, x)[:, 0]

    def pi_at(self, x):
        return mlp_forward(self.pi, x)[:, 0]


def fit_propensity(train: ObservedData, config: TrainConfig, rng: np.random.Generator) -> MlpParams:
    """Propensity model: a sigmoid-output regression of w on x under cross-entropy."""
    _check_arms(train.w, 1)
    return _fit_regression(
        train.x, train.w.astype(float), config, rng, SIGMOID, BINARY_CROSS_ENTROPY
    )


class CateEstimator:
    """Fitted effect model: deterministic predictions and exact gradients.

    Both methods run every network in ``ws`` (a fresh workspace when it is
    None) and return new arrays.
    """

    strategy: str = ""

    def predict_cate(self, x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        raise NotImplementedError


@dataclass
class SEstimator(CateEstimator):
    """One regression over (x, w); effect = prediction contrast in w."""

    net: MlpParams
    strategy = STRATEGY_S

    def _with_flag(self, x, flag):
        return np.hstack([x, np.full((x.shape[0], 1), float(flag))])

    def predict_cate(self, x, ws=None):
        x = np.atleast_2d(x)
        return (
            mlp_forward(self.net, self._with_flag(x, 1), ws)[:, 0]
            - mlp_forward(self.net, self._with_flag(x, 0), ws)[:, 0]
        )

    def gradient(self, x, ws=None):
        x = np.atleast_2d(x)
        g1 = mlp_input_gradient(self.net, self._with_flag(x, 1), ws)
        g1 -= mlp_input_gradient(self.net, self._with_flag(x, 0), ws)
        return g1[:, :-1]


@dataclass
class TEstimator(CateEstimator):
    mu0: MlpParams
    mu1: MlpParams
    strategy = STRATEGY_T

    def predict_cate(self, x, ws=None):
        return mlp_forward(self.mu1, x, ws)[:, 0] - mlp_forward(self.mu0, x, ws)[:, 0]

    def gradient(self, x, ws=None):
        g = mlp_input_gradient(self.mu1, x, ws)
        g -= mlp_input_gradient(self.mu0, x, ws)
        return g


@dataclass
class TarnetEstimator(CateEstimator):
    """Shared ReLU representation with per-arm heads; gamma > 0 balances it."""

    trunk_w: np.ndarray
    trunk_b: np.ndarray
    head0: MlpParams = field(metadata={"input_layer": ("trunk_w", "trunk_b")})
    head1: MlpParams = field(metadata={"input_layer": ("trunk_w", "trunk_b")})
    gamma: float = 0.0

    @property
    def strategy(self):
        return STRATEGY_CFRNET if self.gamma > 0 else STRATEGY_TARNET

    def _rep(self, x, ws):
        """Shared representation in ``ws``; the input width is checked like every network's."""
        x = _batch(x, self.trunk_w.shape[0])
        return _hidden(x, self.trunk_w, self.trunk_b, ws.take("rep", len(x), self.trunk_w.shape[1]))

    def predict_cate(self, x, ws=None):
        ws = Workspace() if ws is None else ws
        rep = self._rep(x, ws)
        return mlp_forward(self.head1, rep, ws)[:, 0] - mlp_forward(self.head0, rep, ws)[:, 0]

    def gradient(self, x, ws=None):
        """Trunk ReLU mask first, then head 0's input gradient over the spent representation."""
        ws = Workspace() if ws is None else ws
        rep = self._rep(x, ws)
        # rep > 0 where the trunk ReLU is active; a buffer of its own, as the
        # heads' backward passes fill the "mask" one
        active = np.greater(rep, 0.0, out=ws.take("rep_mask", *rep.shape, dtype=bool))
        rep_grad = mlp_input_gradient(self.head1, rep, ws, ws.take("rep_grad", *rep.shape))
        rep_grad -= mlp_input_gradient(self.head0, rep, ws, rep)  # rep's last reader
        rep_grad *= active
        return rep_grad @ self.trunk_w.T


@dataclass
class DrEstimator(CateEstimator):
    """Second-stage regression on doubly-robust pseudo-outcomes."""

    effect: MlpParams
    strategy = STRATEGY_DR

    def predict_cate(self, x, ws=None):
        return mlp_forward(self.effect, x, ws)[:, 0]

    def gradient(self, x, ws=None):
        return mlp_input_gradient(self.effect, x, ws)


@dataclass
class XEstimator(CateEstimator):
    """Per-arm effect regressions blended by the estimated propensity."""

    tau0: MlpParams
    tau1: MlpParams
    pi: MlpParams = field(metadata={"output_activation": SIGMOID})
    strategy = STRATEGY_X

    def predict_cate(self, x, ws=None):
        t0 = mlp_forward(self.tau0, x, ws)[:, 0]
        t1 = mlp_forward(self.tau1, x, ws)[:, 0]
        g = mlp_forward(self.pi, x, ws)[:, 0]
        return g * t1 + (1.0 - g) * t0

    def gradient(self, x, ws=None):
        """g * dtau1 + (1 - g) * dtau0 + (tau1 - tau0) * dg, one pass per network."""
        t0, g0 = mlp_forward_and_input_gradient(self.tau0, x, ws)
        t1, g1 = mlp_forward_and_input_gradient(self.tau1, x, ws)
        g, gg = mlp_forward_and_input_gradient(self.pi, x, ws)
        g1 *= g
        g0 *= 1.0 - g
        gg *= t1 - t0
        g1 += g0
        g1 += gg
        return g1


# --- Fitting --------------------------------------------------------------


def side_by_side(jobs: list, workers: int) -> list:
    """Each zero-argument job of ``jobs`` run in up to ``workers`` processes; results in list order.

    The package's one runner for independent work: a sweep's cells and a
    learner's networks. Every job is a ``partial`` of a module-level
    function, so it pickles. With one worker the jobs run in list order in
    this process, and no process starts. Otherwise every job goes, in list
    order, to a process pool of ``min(workers, len(jobs))`` processes, and
    once every job has ended the first failure in list order is raised, the
    one a one-worker run raises (which stops there). Each network draws from
    its own generator, made before its job starts, and BLAS runs on one
    thread, so the results do not depend on ``workers``.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [job() for job in jobs]
    # loaded only here: generate, a one-CPU fit and a one-worker sweep start without it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
    return [future.result() for future in futures]  # every job has ended


def fit_s_learner(train: ObservedData, config: TrainConfig, rng: np.random.Generator) -> SEstimator:
    _check_arms(train.w, 1)
    xw = np.hstack([train.x, train.w[:, None].astype(float)])
    return SEstimator(_fit_regression(xw, train.y, config, rng))


def _fit_arm(train: ObservedData, arm: int, target: np.ndarray, config: TrainConfig,
             rng: np.random.Generator) -> MlpParams:
    """A regression of ``target``, one entry per unit of arm ``arm``, on those units' x.

    The rows are gathered when the fit starts, so fits run one after the
    other hold one arm's copy at a time.
    """
    return _fit_regression(train.x[train.w == arm], target, config, rng)


def _t_arm_jobs(train: ObservedData, config: TrainConfig, rng: np.random.Generator) -> list:
    """T's two arm fits: mu0 on controls from ``rng``'s child 0, mu1 on treated from its child 1."""
    return [partial(_fit_arm, train, arm, train.y[train.w == arm], config, r)
            for arm, r in enumerate(rng.spawn(2))]


def fit_t_learner(train: ObservedData, config: TrainConfig, rng: np.random.Generator,
                  workers: int = 1) -> TEstimator:
    """T's two arms (``_t_arm_jobs``), side by side."""
    _check_arms(train.w, MIN_ARM_UNITS)
    return TEstimator(*side_by_side(_t_arm_jobs(train, config, rng), workers))


def fit_nuisances(
    train: ObservedData,
    config: TrainConfig,
    rng_arms: np.random.Generator,
    rng_pi: np.random.Generator,
    workers: int = 1,
) -> NuisanceSet:
    """The first stage: T's two arms from ``rng_arms``, the propensity from ``rng_pi``.

    The three networks fit side by side in ``workers`` processes as one
    list: the propensity, which trains on every row, first, then T's arms.
    T's arm rule is checked before any network trains.
    """
    _check_arms(train.w, MIN_ARM_UNITS)
    pi, mu0, mu1 = side_by_side([partial(fit_propensity, train, config, rng_pi),
                                 *_t_arm_jobs(train, config, rng_arms)], workers)
    return NuisanceSet(mu0, mu1, pi)


def fit_tarnet(
    train: ObservedData,
    gamma: float,
    config: TrainConfig,
    rng: np.random.Generator,
) -> TarnetEstimator:
    """Joint fit of trunk and heads; factual loss plus gamma * MMD^2 per batch.

    ``gamma`` is checked, under the strategy it selects (cfrnet above 0),
    before any network is initialised.
    """
    check_balancing_weight(STRATEGY_CFRNET if gamma > 0 else STRATEGY_TARNET, gamma)
    _check_arms(train.w, 1)
    r_init, r_split, r_train = rng.spawn(3)

    init = mlp_init([train.d, HIDDEN_UNITS], IDENTITY, r_init).arrays()
    for _ in range(2):
        init += mlp_init([HIDDEN_UNITS, HIDDEN_UNITS, 1], IDENTITY, r_init).arrays()
    flat = flatten(init)
    views = flat_views(flat, init)
    trunk_w, trunk_b = views[:2]
    heads = [MlpParams.from_arrays(views[i : i + 4], IDENTITY) for i in (2, 6)]

    train_idx, val_idx = holdout_split(train.n, VALIDATION_FRACTION, r_split)
    x_val, y_val, w_val = train.x[val_idx], train.y[val_idx], train.w[val_idx]

    grad = np.empty_like(flat)
    grad_views = flat_views(grad, init)
    trunk_grad_w, trunk_grad_b = grad_views[:2]
    head_grads = [MlpParams.from_arrays(grad_views[i : i + 4], IDENTITY) for i in (2, 6)]
    ws = Workspace()  # one for the fit: trunk, both heads, steps and validation passes

    def forward(x, w):
        """Representation, per-arm row indices and head activations, factual prediction."""
        rep = _hidden(x, trunk_w, trunk_b, ws.take("rep", len(x), HIDDEN_UNITS))
        arms = [np.flatnonzero(w == 0), np.flatnonzero(w == 1)]
        acts = [_forward(head, _take_rows(rep, rows, ws, ("arm", k)), ws, k)
                for k, (head, rows) in enumerate(zip(heads, arms))]
        pred = np.empty(len(w))
        for rows, a in zip(arms, acts):
            pred[rows] = a[-1][:, 0]
        return rep, arms, acts, pred

    def grad_fn(_, idx):
        batch = train_idx[idx]
        xb = _take_rows(train.x, batch, ws)
        rep, arms, acts, pred = forward(xb, train.w[batch])
        g_out = loss_output_grad(SQUARED_ERROR, pred, train.y[batch])
        penalty = [None, None]
        if gamma > 0 and all(len(rows) for rows in arms):  # one-arm batches get no penalty
            _, *penalty = mmd2_linear_with_grad(acts[0][0], acts[1][0])
        # the trunk's ReLU mask, in a buffer of its own as the heads' backward
        # passes fill the "mask" one; then rep, read only through the heads'
        # gathered inputs, takes its own gradient (the arms cover every row)
        active = np.greater(rep, 0.0, out=ws.take("rep_mask", *rep.shape, dtype=bool))
        for head, rows, a, grads, m in zip(heads, arms, acts, head_grads, penalty):
            delta = _backprop(head, a, g_out[rows], ws, grads)
            arm_grad = np.matmul(delta, head.weights[0].T, out=a[0])  # the head input is spent
            if m is not None:
                arm_grad += gamma * m[:1]  # every row of an arm has the same penalty gradient
            rep[rows] = arm_grad
        rep *= active
        np.matmul(xb.T, rep, out=trunk_grad_w)
        np.sum(rep, axis=0, out=trunk_grad_b)
        return grad

    def val_loss_fn(_):
        return loss_value(SQUARED_ERROR, forward(x_val, w_val)[-1], y_val)

    minibatch_fit(flat, grad_fn, val_loss_fn, len(train_idx), config, r_train)
    return TarnetEstimator(trunk_w, trunk_b, heads[0], heads[1], float(gamma))


def dr_pseudo_outcome(y, w, pi_hat, mu0_hat, mu1_hat):
    """AIPW-style effect surrogate; unbiased when either model is right."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    p = np.clip(np.asarray(pi_hat, dtype=float), PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
    mu0 = np.asarray(mu0_hat, dtype=float)
    mu1 = np.asarray(mu1_hat, dtype=float)
    value = (
        (w / p - (1.0 - w) / (1.0 - p)) * y
        + (1.0 - w / p) * mu1
        - (1.0 - (1.0 - w) / (1.0 - p)) * mu0
    )
    return float(value) if value.ndim == 0 else value


def fit_dr_learner(
    train: ObservedData,
    config: TrainConfig,
    rng: np.random.Generator,
    nuisances: NuisanceSet,
) -> DrEstimator:
    """Stage 2: regress pseudo-outcomes from ``nuisances`` on covariates."""
    _check_arms(train.w, 1)
    r_stage2 = rng.spawn(2)[1]  # child 0 is unused; skipping it keeps the fitted bytes
    pseudo = dr_pseudo_outcome(
        train.y,
        train.w,
        nuisances.pi_at(train.x),
        nuisances.mu0_at(train.x),
        nuisances.mu1_at(train.x),
    )
    return DrEstimator(_fit_regression(train.x, pseudo, config, r_stage2))


def fit_x_learner(
    train: ObservedData,
    config: TrainConfig,
    rng: np.random.Generator,
    nuisances: NuisanceSet,
    workers: int = 1,
) -> XEstimator:
    """Arm-wise effect regressions on imputed contrasts, blended by pi_hat; side by side."""
    _check_arms(train.w, MIN_ARM_UNITS)
    r_tau0, r_tau1 = rng.spawn(3)[1:]  # child 0 is unused; skipping it keeps the fitted bytes
    treated = train.w == 1
    # Treated arm: observed outcome minus imputed control outcome.
    target1 = train.y[treated] - nuisances.mu0_at(train.x[treated])
    # Control arm: imputed treated outcome minus observed outcome.
    target0 = nuisances.mu1_at(train.x[~treated]) - train.y[~treated]
    tau1, tau0 = side_by_side([partial(_fit_arm, train, 1, target1, config, r_tau1),
                               partial(_fit_arm, train, 0, target0, config, r_tau0)], workers)
    return XEstimator(tau0, tau1, nuisances.pi)


def parse_learner(label: str) -> tuple[str, float]:
    """A learner label's (strategy, balancing weight); only cfrnet[:gamma] weighs > 0."""
    name, _, arg = label.partition(":")
    if name in (STRATEGY_S, STRATEGY_T, STRATEGY_TARNET, STRATEGY_DR, STRATEGY_X) and not arg:
        return name, 0.0
    if name == STRATEGY_CFRNET:
        try:
            gamma = float(arg) if arg else 1.0
        except ValueError:
            raise InvalidConfigError(f"bad balancing weight in {label!r}") from None
        check_balancing_weight(name, gamma)
        return name, gamma
    raise InvalidConfigError(f"unknown learner {label!r}")


def fit_learner(label: str, train: ObservedData, config: TrainConfig, rng: np.random.Generator,
                nuisances: NuisanceSet | None, workers: int = 1) -> CateEstimator:
    """The estimator ``label`` names, fitted from ``rng``.

    ``nuisances`` is a fitted first stage or None: the ``SECOND_STAGES``
    need one, T is its two arms when given, and the others ignore it.
    T's arms and X's effect arms fit side by side in ``workers`` processes.
    """
    strategy, gamma = parse_learner(label)
    if strategy == STRATEGY_S:
        return fit_s_learner(train, config, rng)
    if strategy == STRATEGY_T:
        if nuisances is not None:
            return TEstimator(nuisances.mu0, nuisances.mu1)
        return fit_t_learner(train, config, rng, workers)
    if strategy == STRATEGY_DR:
        return fit_dr_learner(train, config, rng, nuisances)
    if strategy == STRATEGY_X:
        return fit_x_learner(train, config, rng, nuisances, workers)
    return fit_tarnet(train, gamma, config, rng)


# --- Serialization ----------------------------------------------------------

_ESTIMATOR_CLASSES = {
    STRATEGY_S: SEstimator,
    STRATEGY_T: TEstimator,
    STRATEGY_TARNET: TarnetEstimator,
    STRATEGY_CFRNET: TarnetEstimator,
    STRATEGY_DR: DrEstimator,
    STRATEGY_X: XEstimator,
}


def _entry(source, key: str, path: Path):
    try:
        return source[key]
    except KeyError:
        raise ParseError(f"{path}: missing key {key!r}") from None


def _array(blob, key: str, path: Path) -> np.ndarray:
    """``blob[key]``; ParseError naming the file and key unless it is there and finite."""
    value = _entry(blob, key, path)
    if not np.isfinite(value).all():
        raise ParseError(f"{path}: {key!r} holds a non-finite entry")
    return value


def _check_layers(keys: list[str], arrays: list[np.ndarray], path: Path) -> None:
    """ParseError unless [w0, b0, w1, b1, ...] chain layer to layer into one output."""
    width = arrays[0].shape[0] if arrays[0].ndim else None
    for i in range(0, len(keys), 2):
        w, b = arrays[i], arrays[i + 1]
        if w.ndim != 2 or w.shape[0] != width:
            raise ParseError(f"{path}: {keys[i]!r} has shape {w.shape}, expected ({width}, n)")
        width = w.shape[1]
        if b.shape != (width,):
            raise ParseError(f"{path}: {keys[i + 1]!r} has shape {b.shape}, expected ({width},)")
    if width != 1:
        raise ParseError(f"{path}: {keys[-2]!r} has {width} output columns, expected 1")


def save_estimator(est: CateEstimator, out_dir: str | Path) -> None:
    """Write manifest.json plus weights.npz, one entry per field; bit-exact round trip.

    An ``MlpParams`` field ``f`` is stored as arrays ``f_w<k>``/``f_b<k>``,
    an array field under its own name, and any other field in the manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"strategy": est.strategy}
    arrays: dict = {}
    for f, kind in tables.field_types(type(est)):
        value = getattr(est, f.name)
        if kind is MlpParams:
            for k, (w, b) in enumerate(zip(value.weights, value.biases)):
                arrays[f"{f.name}_w{k}"] = w
                arrays[f"{f.name}_b{k}"] = b
        elif kind is np.ndarray:
            arrays[f.name] = value
        else:
            manifest[f.name] = value
    tables.write_json(out_dir / "manifest.json", manifest)
    np.savez(out_dir / "weights.npz", **arrays)


def load_estimator(in_dir: str | Path) -> CateEstimator:
    """Rebuild an estimator from ``save_estimator``'s files.

    The manifest's strategy picks the class, and the class's fields say
    what to read. A malformed directory (a manifest that is not a JSON
    object, a missing key, unchained layers, a non-finite array entry, a
    non-number scalar, a ``gamma`` that ``check_balancing_weight`` rejects
    for the strategy, a non-npz weights file) raises
    ``ParseError`` naming the file and the key.
    """
    manifest_path = Path(in_dir) / "manifest.json"
    weights_path = Path(in_dir) / "weights.npz"
    manifest = tables.read_json(manifest_path, ("strategy",))
    strategy = manifest["strategy"]
    if not isinstance(strategy, str) or strategy not in _ESTIMATOR_CLASSES:
        raise ParseError(f"{manifest_path}: unknown strategy {strategy!r} at key 'strategy'")
    cls = _ESTIMATOR_CLASSES[strategy]
    values = {}
    try:
        blob = np.load(weights_path)
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise ParseError(f"{weights_path}: not an npz archive ({err})") from None
    with blob:
        for f, kind in tables.field_types(cls):
            if kind is MlpParams:
                keys, k = [], 0
                while k == 0 or f"{f.name}_w{k}" in blob:  # layer 0 must be there
                    keys += [f"{f.name}_w{k}", f"{f.name}_b{k}"]
                    k += 1
                arrays = [_array(blob, key, weights_path) for key in keys]
                first = list(f.metadata.get("input_layer", ()))  # a layer this net reads from
                _check_layers(first + keys, [values[key] for key in first] + arrays, weights_path)
                activation = f.metadata.get("output_activation", IDENTITY)
                values[f.name] = MlpParams.from_arrays(arrays, activation)
            elif kind is np.ndarray:
                values[f.name] = _array(blob, f.name, weights_path)
            else:
                values[f.name] = value = _entry(manifest, f.name, manifest_path)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ParseError(f"{manifest_path}: {f.name!r} is {value!r}, not a number")
    if cls is TarnetEstimator:  # the weight a fit under this strategy would have
        try:
            check_balancing_weight(strategy, values["gamma"])
        except InvalidConfigError as err:
            raise ParseError(f"{manifest_path}: 'gamma' is out of range: {err}") from None
    return cls(**values)
