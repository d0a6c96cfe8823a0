"""Inner-loop parameter search: GP surrogate with UCB acquisition.

For a frozen program architecture, condition weights are tuned by Bayesian
optimization of the episode return (negative makespan; the simulator and
policies are deterministic, so a single episode is an exact evaluation).
The surrogate is a squared-exponential GP with fixed hyperparameters on
standardized data: inputs are scaled from the weight box [-2, 2] to
[-1, 1], targets to zero mean and unit variance. The acquisition argmax is
approximated by scoring uniform random candidates.

Candidates are scored with matrix products: squared distances take the
expanded form |a|^2 + |b|^2 - 2 a.b, and `fit` inverts the Cholesky factor
once. Against a difference-and-solve form this changes a score by rounding
only, and a pick is an exact row of the candidate draw, so outputs stay
bit-identical unless two UCB scores tie that close.

Episodes are evaluated through the training run's `sim.EpisodeTrie`, which
answers repeated dispatch sequences without simulating them. The caller
grants each tuning a number of episodes; the loop evaluates exactly that
many, cached or not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .dsl import (
    WEIGHT_HIGH,
    WEIGHT_LOW,
    WEIGHTS_LEN,
    Program,
    if_count,
    make_policy,
    random_weights,
    set_params,
)
from .sim import EpisodeTrie

_JITTER_CEILING = 1e-2


@dataclass(frozen=True)
class BoConfig:
    length_scale: float = 1.0
    signal_var: float = 1.0
    jitter: float = 1e-6
    beta: float = 2.0
    candidates: int = 256
    init_points: int = 10
    iterations: int = 20

    def __post_init__(self):
        # comparisons are negated so that NaN fails them
        if not (0 < self.length_scale < math.inf and 0 < self.signal_var < math.inf
                and 0 < self.jitter < math.inf):
            raise ValueError("kernel hyperparameters must be positive and finite")
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be >= 0 and finite")
        if not (self.candidates >= 1 and self.init_points >= 1 and self.iterations >= 0):
            raise ValueError("bad acquisition/iteration settings")


@dataclass
class GpModel:
    """Fitted GP state: standardized training data plus a cached factorization."""

    x: np.ndarray  # (n, d) inputs scaled to [-1, 1]
    chol_inv: np.ndarray  # inverse of the lower Cholesky factor of K + jitter*I
    alpha: np.ndarray  # (K + jitter*I)^-1 y_std
    y_mean: float
    y_std: float
    length_scale: float
    signal_var: float
    jitter: float

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def _scale_inputs(x: np.ndarray) -> np.ndarray:
    half = (WEIGHT_HIGH - WEIGHT_LOW) / 2.0
    mid = (WEIGHT_HIGH + WEIGHT_LOW) / 2.0
    return (x - mid) / half


def _kernel(a: np.ndarray, b: np.ndarray, length_scale: float, signal_var: float) -> np.ndarray:
    # expanded form |a|^2 + |b|^2 - 2 a.b: one matmul, no (len(a), len(b), d)
    # array; it differs from the difference form by rounding only (see the
    # module docstring), and the clip undoes cancellation below 0
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1) - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return signal_var * np.exp(-0.5 * sq / (length_scale**2))


def fit(points: list[tuple[tuple[float, ...], float]], config: BoConfig) -> GpModel:
    """Fit the surrogate to observed (parameter vector, episode return)
    pairs; jitter escalates tenfold on factorization failure."""
    if not points:
        raise ValueError("cannot fit a GP on an empty dataset")
    x_raw = np.array([params for params, _ in points], dtype=float)
    y_raw = np.array([value for _, value in points], dtype=float)
    if not (np.all(np.isfinite(x_raw)) and np.all(np.isfinite(y_raw))):
        raise ValueError("non-finite training data")

    x = _scale_inputs(x_raw)
    y_mean = float(y_raw.mean())
    y_std = float(y_raw.std())
    if y_std == 0.0:
        y_std = 1.0
    y = (y_raw - y_mean) / y_std

    gram = _kernel(x, x, config.length_scale, config.signal_var)
    jitter = config.jitter
    while True:
        try:
            chol = np.linalg.cholesky(gram + jitter * np.eye(len(y)))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            # rounding: from 1e-16 the 14th step is 0.010000000000000005, the ceiling
            if jitter > _JITTER_CEILING * (1 + 1e-9):
                raise RuntimeError("GP factorization failed at maximum jitter") from None
    chol_inv = np.linalg.inv(chol)
    alpha = chol_inv.T @ (chol_inv @ y)
    return GpModel(
        x=x,
        chol_inv=chol_inv,
        alpha=alpha,
        y_mean=y_mean,
        y_std=y_std,
        length_scale=config.length_scale,
        signal_var=config.signal_var,
        jitter=jitter,
    )


def posterior_batch(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and stddev (in return units) for a batch of raw queries."""
    q = _scale_inputs(np.asarray(queries, dtype=float))
    if q.ndim != 2 or q.shape[1] != model.dim:
        raise ValueError(f"query dimension {q.shape} does not match model dim {model.dim}")
    k_star = _kernel(q, model.x, model.length_scale, model.signal_var)
    mean_std = k_star @ model.alpha
    v = k_star @ model.chol_inv.T
    var = model.signal_var - np.sum(v * v, axis=1)
    np.maximum(var, 0.0, out=var)
    mean = mean_std * model.y_std + model.y_mean
    std = np.sqrt(var) * model.y_std
    return mean, std


def propose(model: GpModel, beta: float, rng: random.Random, n_candidates: int) -> tuple[float, ...]:
    """Acquisition argmax over uniform candidates in the weight box."""
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    dim = model.dim
    # one row-major draw: row i holds the i-th candidate, as a nested loop would
    candidates = random_weights(rng, n_candidates * dim).reshape(n_candidates, dim)
    mean, std = posterior_batch(model, candidates)
    scores = mean + beta * std
    best = int(np.argmax(scores))  # ties resolve to the first occurrence
    return tuple(candidates[best].tolist())


def optimize_params(
    program: Program,
    trie: EpisodeTrie,
    episodes: int,
    rng: random.Random,
    config: BoConfig,
) -> tuple[Program, float]:
    """Tune the program's condition weights with exactly `episodes` evaluations.

    Evaluates min(`init_points`, episodes) uniform parameter vectors, then
    runs fit / propose / evaluate rounds for the rest of the episodes. The
    best observed pair is returned, never a surrogate prediction; on a tie
    the first pair to reach the best return wins. A parameter-free program
    takes the same path: its parameter vectors are empty, so one episode
    evaluates it.
    """
    if episodes < 1:
        raise ValueError("optimize_params needs at least one episode")
    dim = WEIGHTS_LEN * if_count(program)
    points: list[tuple[tuple[float, ...], float]] = []

    def evaluate_point(params: tuple[float, ...]) -> None:
        policy = make_policy(set_params(program, params))
        points.append((params, -float(trie.makespan(policy))))

    n_init = min(config.init_points, episodes)
    for params in random_weights(rng, n_init * dim).reshape(n_init, dim).tolist():
        evaluate_point(tuple(params))
    for _ in range(episodes - n_init):
        evaluate_point(propose(fit(points, config), config.beta, rng, config.candidates))

    best_params, best_value = max(points, key=lambda point: point[1])
    return set_params(program, best_params), best_value
