"""Inner-loop parameter search: GP surrogate with UCB acquisition.

For a frozen program architecture, condition weights are tuned by Bayesian
optimization of the episode return (negative makespan; the simulator and
policies are deterministic, so a single episode is an exact evaluation).
The surrogate is a GP on standardized data: inputs are scaled from the
weight box [-2, 2] to [-1, 1], targets to zero mean and unit variance, and
the kernel is the squared exponential exp(-|x - x'|^2 / 2) on the scaled
inputs, with unit prior variance. Its length scale and signal variance are
fixed at 1 because the standardization puts the data on that scale. The
acquisition argmax is approximated by scoring uniform random candidates.

A tuning takes a seed and draws its initial points and every round's
candidates from a numpy `Generator(MT19937)` loaded with the state of
`random.Random(seed)` (`weight_stream`). Its double from twister words a,
b, ((a >> 5) * 2**26 + (b >> 6)) / 2**53, is CPython's `random()`, and its
uniform(lo, hi) = lo + (hi - lo) * double is `random.uniform`, so the
draws are those of n `random.Random(seed).uniform(-2, 2)` calls at a
fraction of their cost, and no caller state is read or written.

One `GpModel` serves a whole tuning and grows with it, the incremental GP
of Rasmussen & Williams (2006, sec. 2.2, Alg. 2.1). It keeps the lower
Cholesky factor L of K + jitter*I and its inverse L^-1, and `add` appends
one row to each in O(n^2). The new row of L is (r, l), where r solves
L r = k and l = sqrt(k_nn + jitter - r.r). r is taken as L^-1 k and then
corrected by one step of iterative refinement against L, because a
product with a computed inverse is less accurate than a triangular solve
on ill-conditioned data. The new row of L^-1 is (-(r^T L^-1) / l, 1 / l). A
non-positive pivot raises the jitter tenfold and regrows both factors from
row 0. The jitter never drops within a tuning, so it is the one a refit
from `BoConfig.jitter` reaches. Candidates are scored with matrix
products: squared distances take the expanded form |a|^2 + |b|^2 - 2 a.b
over stored squared norms, and alpha = L^-T (L^-1 y). Against refitting
with LAPACK and solving, this changes a score by rounding only, and a pick
is an exact row of the candidate draw, so outputs stay bit-identical
unless two UCB scores tie that close.

The tuning maximises the return function it is given, `evaluate(policy) ->
float`; the search owns it (for one instance, the negative makespan of the
policy's episode, answered by the run's episode cache), so this module
never runs the simulator. Each evaluation compiles the program's structure
with the parameter vector as its weights (`dsl.compile_policy`); only the
returned program is built. The caller grants each tuning a number of
episodes; the loop calls `evaluate` exactly that many times.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .dsl import WEIGHT_HIGH, WEIGHT_LOW, Program, compile_policy, set_params

if TYPE_CHECKING:
    from numpy.random import Generator

    from .sim import Policy

_JITTER_CEILING = 1e-2
MAX_CANDIDATES = 65_536  # one draw at d = 42 is then 22 MB


@dataclass(frozen=True)
class BoConfig:
    jitter: float = 1e-6
    beta: float = 2.0
    candidates: int = 256
    init_points: int = 10
    iterations: int = 20

    def __post_init__(self):
        # comparisons are negated so that NaN fails them
        if not 0 < self.jitter < math.inf:
            raise ValueError("jitter must be positive and finite")
        if not 0 <= self.beta < math.inf:
            raise ValueError("beta must be >= 0 and finite")
        if not (self.candidates >= 1 and self.init_points >= 1 and self.iterations >= 0):
            raise ValueError("bad acquisition/iteration settings")
        if not self.candidates <= MAX_CANDIDATES:
            raise ValueError(f"candidates must be <= {MAX_CANDIDATES}")


def _scale_inputs(x: np.ndarray) -> np.ndarray:
    half = (WEIGHT_HIGH - WEIGHT_LOW) / 2.0
    mid = (WEIGHT_HIGH + WEIGHT_LOW) / 2.0
    return (x - mid) / half


def _kernel(a: np.ndarray, a_norms: np.ndarray, b: np.ndarray, b_norms: np.ndarray) -> np.ndarray:
    # expanded form |a|^2 + |b|^2 - 2 a.b over the rows' squared norms: one
    # matmul, no (len(a), len(b), d) array; it differs from the difference
    # form by rounding only (see the module docstring), and the clip undoes
    # cancellation below 0
    sq = a_norms[:, None] + b_norms - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-0.5 * sq)


class GpModel:
    """One tuning's GP: its observations, the lower Cholesky factor L of
    K + jitter*I and its inverse, both grown by one row per `add`."""

    def __init__(self, dim: int, config: BoConfig):
        self.x = np.empty((0, dim))  # inputs scaled to [-1, 1]
        self.sq_norms = np.empty(0)  # |x_i|^2 of each input
        self.y = np.empty(0)  # raw returns
        self.chol = np.empty((0, 0))
        self.chol_inv = np.empty((0, 0))
        self.jitter = config.jitter

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def y_stats(self) -> tuple[float, float]:
        """Mean and population stddev of the returns, the stddev 1 when they
        are all equal. These are the sums numpy's mean() and std() take;
        calling those instead added 5% to bench-ft06 wall_s, mostly their
        Python-level dispatch."""
        n = len(self.y)
        y_mean = np.add.reduce(self.y) / n
        dev = self.y - y_mean
        return float(y_mean), math.sqrt(np.add.reduce(dev * dev) / n) or 1.0

    def add(self, params: tuple[float, ...], value: float) -> None:
        """Observe one (parameter vector, episode return) pair and grow the
        factors by its row. A non-positive pivot raises the jitter tenfold and
        regrows the factors from row 0; the jitter never goes back down, since
        a matrix whose leading block needed jitter j cannot factor with less.
        A rejected observation leaves the model as it was; after the
        `RuntimeError` at the jitter ceiling the model is unusable."""
        x_new = _scale_inputs(np.array(params, dtype=float))
        if x_new.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} parameters, got {x_new.size}")
        if not (np.isfinite(x_new).all() and math.isfinite(value)):
            raise ValueError("non-finite training data")
        self.x = np.concatenate((self.x, x_new[None, :]))
        self.sq_norms = np.concatenate((self.sq_norms, [np.sum(x_new * x_new)]))
        self.y = np.concatenate((self.y, [value]))
        start = len(self.chol)
        while not self._extend(start):
            self.jitter *= 10.0
            # rounding: from 1e-16 the 14th step is 0.010000000000000005, the ceiling
            if self.jitter > _JITTER_CEILING * (1 + 1e-9):
                raise RuntimeError("GP factorization failed at maximum jitter")
            start = 0

    def _extend(self, start: int) -> bool:
        """Keep the first `start` rows of the factors and grow them over every
        further input at the current jitter (the row formula is in the module
        docstring); False, with the factors unchanged, on a non-positive
        pivot."""
        n = len(self.y)
        chol, chol_inv = np.zeros((n, n)), np.zeros((n, n))
        chol[:start, :start] = self.chol[:start, :start]
        chol_inv[:start, :start] = self.chol_inv[:start, :start]
        for row in range(start, n):
            k = _kernel(self.x[row:row + 1], self.sq_norms[row:row + 1], self.x[:row + 1],
                        self.sq_norms[:row + 1])[0]
            lower, inv = chol[:row, :row], chol_inv[:row, :row]
            r = inv @ k[:row]
            r += inv @ (k[:row] - lower @ r)  # one refinement step against L
            pivot = k[row] + self.jitter - r @ r
            if not pivot > 0.0:  # NaN fails too, as in LAPACK's potrf
                return False
            ell = math.sqrt(pivot)
            chol[row, :row], chol[row, row] = r, ell
            chol_inv[row, :row], chol_inv[row, row] = -(r @ inv) / ell, 1.0 / ell
        self.chol, self.chol_inv = chol, chol_inv
        return True


def fit(points: list[tuple[tuple[float, ...], float]], config: BoConfig) -> GpModel:
    """The surrogate of observed (parameter vector, episode return) pairs:
    an empty model grown by one `add` per pair."""
    if not points:
        raise ValueError("cannot fit a GP on an empty dataset")
    model = GpModel(len(points[0][0]), config)
    for params, value in points:
        model.add(params, value)
    return model


def posterior_batch(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and stddev (in return units) for a batch of raw queries."""
    q = _scale_inputs(np.asarray(queries, dtype=float))
    if q.ndim != 2 or q.shape[1] != model.dim:
        raise ValueError(f"query dimension {q.shape} does not match model dim {model.dim}")
    y_mean, y_std = model.y_stats()
    y = (model.y - y_mean) / y_std
    alpha = model.chol_inv.T @ (model.chol_inv @ y)
    k_star = _kernel(q, np.sum(q * q, axis=1), model.x, model.sq_norms)
    mean_std = k_star @ alpha
    v = k_star @ model.chol_inv.T
    var = 1.0 - np.sum(v * v, axis=1)
    np.maximum(var, 0.0, out=var)
    mean = mean_std * y_std + y_mean
    std = np.sqrt(var) * y_std
    return mean, std


@functools.cache
def _generator() -> Generator:
    # imported on the first tuning with parameters, so that only training
    # pays numpy.random's 3 MB of RSS; built once, since seeding costs a
    # SeedSequence, and every `weight_stream` overwrites the seed anyway
    from numpy.random import MT19937, Generator

    return Generator(MT19937(0))


def weight_stream(seed: int | str) -> Generator:
    """The process's one numpy `Generator(MT19937)`, loaded with the state of
    `random.Random(seed)`: its draws are those of that generator's `random()`
    and `uniform()` calls (see the module docstring). Every call reloads the
    same generator, so a stream serves one tuning at a time."""
    internal = random.Random(seed).getstate()[1]
    stream = _generator()
    # the setter reads the key word by word, so a tuple is cheaper than an array
    key_state = {"key": internal[:-1], "pos": internal[-1]}
    stream.bit_generator.state = {"bit_generator": "MT19937", "state": key_state}
    return stream


def propose(model: GpModel, beta: float, stream: Generator, n_candidates: int) -> tuple[float, ...]:
    """Acquisition argmax over uniform candidates in the weight box, drawn
    from a `weight_stream`."""
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    # row-major: row i holds the i-th candidate, as a nested uniform loop would
    candidates = stream.uniform(WEIGHT_LOW, WEIGHT_HIGH, (n_candidates, model.dim))
    mean, std = posterior_batch(model, candidates)
    scores = mean + beta * std
    best = int(np.argmax(scores))  # ties resolve to the first occurrence
    return tuple(candidates[best].tolist())


def optimize_params(
    program: Program,
    evaluate: Callable[[Policy], float],
    episodes: int,
    seed: int | str,
    config: BoConfig,
) -> tuple[Program, float]:
    """Tune the program's condition weights with exactly `episodes` calls of
    `evaluate(policy)`, the return function the caller owns.

    Evaluates min(`init_points`, episodes) uniform parameter vectors and fits
    the GP to them once; each further episode is a round of propose, evaluate
    and `add`. An evaluation compiles the program's structure with the
    parameter vector as its weights, so only the returned program is built.
    The best observed pair is returned, never a surrogate prediction; on a
    tie the first pair to reach the best return wins. The vectors are drawn
    from the `weight_stream` of `seed`. A parameter-free program builds no
    stream: its one vector is empty, and each episode evaluates it.
    """
    if episodes < 1:
        raise ValueError("optimize_params needs at least one episode")
    dim = program.n_params
    points: list[tuple[tuple[float, ...], float]] = []

    def observe(params: tuple[float, ...]) -> float:
        value = evaluate(compile_policy(program, params))
        points.append((params, value))
        return value

    n_init = min(config.init_points, episodes)
    if dim == 0:  # nothing to draw: every vector is empty
        for _ in range(episodes):
            observe(())
    else:
        stream = weight_stream(seed)
        for params in stream.uniform(WEIGHT_LOW, WEIGHT_HIGH, (n_init, dim)).tolist():
            observe(tuple(params))
        if episodes > n_init:
            model = fit(points, config)
            for _ in range(episodes - n_init):
                params = propose(model, config.beta, stream, config.candidates)
                model.add(params, observe(params))

    best_params, best_value = max(points, key=lambda point: point[1])
    return set_params(program, best_params), best_value
