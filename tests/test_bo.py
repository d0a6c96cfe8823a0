"""GP surrogate against dense linear-algebra oracles; budget accounting."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import get_params, posterior, reference_optimize_params
from prorl import bo
from prorl.bo import (
    _JITTER_CEILING,
    BoConfig,
    GpModel,
    _kernel,
    fit,
    optimize_params,
    posterior_batch,
    propose,
    weight_stream,
)
from prorl.concepts import ConceptVector
from prorl.dsl import If, Program, make_policy, random_program
from prorl.instance import parse_standard
from prorl.pdr import Heuristic
from prorl.sim import EpisodeTrie


def dataset_from(pairs) -> list[tuple[tuple[float, ...], float]]:
    return [(tuple(x), float(y)) for x, y in pairs]


def dense_oracle_batch(xs, ys, queries, jitter=1e-6):
    """Posterior at each query row by direct dense solves, with squared
    distances summed from differences; mirrors only the standardization
    conventions (inputs halved into [-1, 1], targets to zero mean, unit
    population variance, with a unit fallback when all targets are equal)."""
    x = np.asarray(xs, dtype=float) / 2.0
    q = np.asarray(queries, dtype=float) / 2.0
    y = np.asarray(ys, dtype=float)
    y_mean, y_std = y.mean(), y.std()
    if y_std == 0.0:
        y_std = 1.0
    yz = (y - y_mean) / y_std

    def k(a, b):
        sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return np.exp(-0.5 * sq)

    gram = k(x, x) + jitter * np.eye(len(x))
    k_star = k(q, x)
    mean_z = k_star @ np.linalg.solve(gram, yz)
    var_z = 1.0 - np.sum(k_star * np.linalg.solve(gram, k_star.T).T, axis=1)
    return mean_z * y_std + y_mean, np.sqrt(np.maximum(var_z, 0.0)) * y_std


def dense_oracle(xs, ys, query, **kernel):
    """`dense_oracle_batch` at one query, as floats."""
    mean, std = dense_oracle_batch(xs, ys, [query], **kernel)
    return float(mean[0]), float(std[0])


def test_fit_single_point_interpolates():
    model = fit(dataset_from([((0.0, 0.0), -100.0)]), BoConfig())
    mean, std = posterior(model, (0.0, 0.0))
    assert mean == pytest.approx(-100.0, abs=1e-6)
    assert std <= 1e-2


def test_fit_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit([], BoConfig())


def test_duplicate_inputs_different_targets():
    # the jitter makes the Gram system solvable; the posterior mean at the
    # duplicated input lands between the two observations
    model = fit(dataset_from([((1.0,), 0.0), ((1.0,), 10.0)]), BoConfig())
    mean, _ = posterior(model, (1.0,))
    assert 0.0 < mean < 10.0
    assert mean == pytest.approx(5.0, abs=1e-3)  # symmetric closed form


def test_two_point_closed_form_oracle():
    # dataset {(0,0),(1,1)}, query 0.5: frozen values from the 2x2 solve
    # computed with the dense oracle before the model implementation ran
    mean, std = posterior(fit(dataset_from([((0.0,), 0.0), ((1.0,), 1.0)]), BoConfig()), (0.5,))
    oracle_mean, oracle_std = dense_oracle([(0.0,), (1.0,)], [0.0, 1.0], (0.5,))
    assert oracle_mean == pytest.approx(0.5, abs=1e-12)
    assert oracle_std == pytest.approx(0.02208212682648543, abs=1e-12)
    assert mean == pytest.approx(oracle_mean, abs=1e-10)
    assert std == pytest.approx(oracle_std, abs=1e-10)


def _separated_inputs(rng, n, dim, min_dist):
    # separated inputs keep the Gram system well-conditioned; the 1e-8
    # oracle agreement below is about algorithmic equivalence (Cholesky vs
    # dense LU), which near-singular systems would legitimately break
    xs: list[tuple[float, ...]] = []
    while len(xs) < n:
        x = tuple(rng.uniform(-2, 2) for _ in range(dim))
        if all(sum((a - b) ** 2 for a, b in zip(x, u)) > min_dist**2 for u in xs):
            xs.append(x)
    return xs


def oracle_comparison_cases(count: int, seed: int = 41):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.choice((1, 2))
        n = rng.randint(1, 5 if dim == 1 else 12)
        xs = _separated_inputs(rng, n, dim, 0.5)
        ys = [rng.uniform(-200, -50) for _ in range(n)]
        queries = [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(4)]
        yield xs, ys, queries


def test_posterior_matches_dense_oracle_bulk():
    for xs, ys, queries in oracle_comparison_cases(50):
        model = fit(dataset_from(zip(xs, ys)), BoConfig())
        for q in queries:
            mean, std = posterior(model, q)
            oracle_mean, oracle_std = dense_oracle(xs, ys, q)
            assert mean == pytest.approx(oracle_mean, abs=1e-8)
            assert std == pytest.approx(oracle_std, abs=1e-8)


def test_posterior_interpolation_and_variance_reduction():
    # at the dimensions parameter vectors actually have (6 weights per
    # condition node), uniform draws are well separated and the jittered
    # system interpolates tightly; dense 1-D data would instead exercise the
    # squared-exponential kernel's inherent ill-conditioning
    rng = random.Random(42)
    for dim in (6, 12, 42):
        for _ in range(5):
            n = rng.randint(2, 30)
            xs = [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]
            ys = [rng.uniform(-2400.0, -1600.0) for _ in range(n)]
            model = fit(dataset_from(zip(xs, ys)), BoConfig())
            prior_std = model.y_stats()[1]
            for x, y in zip(xs, ys):
                mean, std = posterior(model, x)
                assert mean == pytest.approx(y, rel=1e-4)
                assert std <= prior_std + 1e-12


def test_far_query_recovers_prior():
    ys = [-120.0, -80.0]
    model = fit(dataset_from([((0.0,), ys[0]), ((1.0,), ys[1])]), BoConfig())
    mean, std = posterior(model, (50.0,))  # 25 length-scales away, scaled
    assert mean == pytest.approx(sum(ys) / 2, abs=1e-6)
    assert std == pytest.approx(model.y_stats()[1], rel=1e-6)


def test_permutation_symmetry():
    rng = random.Random(43)
    pairs = [((rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(-50, 0)) for _ in range(8)]
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    a, b = fit(dataset_from(pairs), BoConfig()), fit(dataset_from(shuffled), BoConfig())
    for _ in range(10):
        q = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert posterior(a, q)[0] == pytest.approx(posterior(b, q)[0], rel=1e-10, abs=1e-10)
        assert posterior(a, q)[1] == pytest.approx(posterior(b, q)[1], rel=1e-10, abs=1e-10)


def _uniform_matrix(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    return np.array([[rng.uniform(-1.0, 1.0) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 256, 300])
@pytest.mark.parametrize("d", [1, 6, 18, 42])
@pytest.mark.parametrize("n", [1, 30])
def test_kernel_blocks_equal_the_one_shot_form(rows, d, n):
    # the kernel once filled 64-row blocks, hence the row counts around 64; the
    # expanded |a|^2 + |b|^2 - 2ab form rounds apart from the one-shot summed
    # squared differences, so this is a tolerance, not an exact pin; the largest
    # gap over 200 random shapes in [-1, 1]^d was 7.8e-16
    rng = random.Random(rows * 1000 + d * 10 + n)
    a, b = _uniform_matrix(rng, rows, d), _uniform_matrix(rng, n, d)
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    one_shot = np.exp(-0.5 * sq)
    a_norms, b_norms = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
    got = _kernel(a, a_norms, b, b_norms)
    assert got.shape == (rows, n)
    assert np.max(np.abs(got - one_shot)) <= 1e-12
    assert np.all((got >= 0.0) & (got <= 1.0))
    diagonal = np.diag(_kernel(a, a_norms, a, a_norms))
    assert np.max(np.abs(diagonal - 1.0)) <= 1e-12


@pytest.mark.parametrize("d", [6, 18, 42])
@pytest.mark.parametrize("n", [1, 10, 29])
def test_posterior_batch_matches_dense_oracle_at_training_shapes(d, n):
    # one acquisition step: 256 candidates against a fit of up to
    # init_points + iterations - 1 points, d = 6 weights per condition
    rng = random.Random(d * 100 + n)
    xs = [tuple(rng.uniform(-2.0, 2.0) for _ in range(d)) for _ in range(n)]
    ys = [rng.uniform(-200, -50) for _ in range(n)]
    queries = 2.0 * _uniform_matrix(rng, 256, d)
    model = fit(dataset_from(zip(xs, ys)), BoConfig())
    mean, std = posterior_batch(model, queries)
    oracle_mean, oracle_std = dense_oracle_batch(xs, ys, queries)
    assert np.max(np.abs(mean - oracle_mean)) <= 1e-8
    assert np.max(np.abs(std - oracle_std)) <= 1e-8
    with pytest.raises(ValueError, match="query dimension"):
        posterior_batch(model, queries[:, 1:])  # one weight short


def test_posterior_batch_holds_no_full_difference_array():
    # the one-shot (256, 30, 42) float64 difference array alone is 2.6 MB
    rng = random.Random(17)
    xs = [tuple(rng.uniform(-2.0, 2.0) for _ in range(42)) for _ in range(30)]
    model = fit(dataset_from([(x, -float(i)) for i, x in enumerate(xs)]), BoConfig())
    queries = 2.0 * _uniform_matrix(rng, 256, 42)
    tracemalloc.start()
    try:
        mean, std = posterior_batch(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mean.shape == std.shape == (256,)
    assert peak < 1_000_000


def propose_from(model: GpModel, beta: float, seed: int, n_candidates: int) -> tuple[float, ...]:
    """`propose` over the weight stream of `seed`."""
    return propose(model, beta, weight_stream(seed), n_candidates)


def test_weight_stream_matches_the_uniform_stream():
    # every tuning's draws rest on numpy's MT19937 doubles and uniform()
    # being CPython's random() and uniform(): a numpy that builds them
    # otherwise fails here. 312 doubles use the 624 words of one twister
    # block, so the n cover the block boundaries
    for n in (0, 1, 311, 312, 313, 624, 256 * 42):
        values = weight_stream(n).uniform(-2.0, 2.0, n)
        looped = random.Random(n)
        assert values.shape == (n,)
        assert values.tolist() == [looped.uniform(-2.0, 2.0) for _ in range(n)]


def test_propose_is_ucb_argmax():
    model = fit(dataset_from([((0.0, 0.0), 0.0), ((1.0, -1.0), 1.0), ((-1.5, 0.5), -2.0)]), BoConfig())
    picks = set()
    for beta in (0.0, 1.0, 5.0):
        # replay the candidate draws from the same seed and score them by UCB
        replay = random.Random(11)
        candidates = np.array([[replay.uniform(-2.0, 2.0) for _ in range(2)] for _ in range(64)])
        mean, std = posterior_batch(model, candidates)
        expected = tuple(candidates[int(np.argmax(mean + beta * std))].tolist())
        got = propose_from(model, beta, 11, 64)
        assert got == expected
        assert all(type(w) is float for w in got)
        picks.add(expected)
    assert len(picks) > 1  # the exploration weight changes the choice
    # at a training point the band collapses onto the observation
    mean, std = posterior(fit(dataset_from([((0.0,), 0.0), ((1.0,), 1.0)]), BoConfig()), (1.0,))
    assert mean + 5.0 * std == pytest.approx(1.0, abs=1e-2)


def test_propose_picks_the_oracle_ucb_argmax():
    # training outputs survive rounding-level changes in the GP because a
    # pick is an exact row of the draw: wherever the oracle's best UCB score
    # clears the runner-up, propose must pick that same row
    rng = random.Random(2024)
    checked = 0
    for case in range(200):
        d = rng.choice((6, 12, 18, 42))
        n = rng.randint(1, 29)
        xs = [tuple(rng.uniform(-2.0, 2.0) for _ in range(d)) for _ in range(n)]
        if case % 8 == 0:  # all returns equal: the unit y_std fallback
            ys, beta = [-60.0] * n, 2.0
        else:
            ys, beta = [-float(rng.randint(55, 70)) for _ in range(n)], rng.choice((0.0, 0.5, 2.0))
        seed = rng.getrandbits(32)
        replay = random.Random(seed)
        candidates = np.array([[replay.uniform(-2.0, 2.0) for _ in range(d)] for _ in range(256)])
        oracle_mean, oracle_std = dense_oracle_batch(xs, ys, candidates)
        scores = oracle_mean + beta * oracle_std
        got = propose_from(fit(dataset_from(zip(xs, ys)), BoConfig()), beta, seed, 256)
        runner_up, top = np.sort(scores)[-2:]
        if top - runner_up > 1e-9 * abs(top):
            assert got == tuple(candidates[int(np.argmax(scores))].tolist())
            checked += 1
    # the rest are ties: a flat mean (one point, or equal returns) with a
    # prior-level std at d = 42, or with beta = 0 (14 of 200 with this seed)
    assert checked >= 180


def test_propose_degenerate_cases():
    model = fit(dataset_from([((0.0,), -1.0)]), BoConfig())
    single = propose_from(model, 2.0, 7, 1)
    expected = random.Random(7).uniform(-2.0, 2.0)
    assert single == (expected,)
    assert type(single[0]) is float
    with pytest.raises(ValueError, match="at least one candidate"):
        propose_from(model, 2.0, 7, 0)


def test_propose_concentrates_near_high_observation():
    model = fit(dataset_from([((-1.0,), 0.0), ((1.0,), 10.0)]), BoConfig())
    for seed in range(5):
        (x,) = propose_from(model, 0.0, seed, 1024)
        assert type(x) is float
        assert x > 0.5  # posterior mean peaks near the +1 observation


def test_jitter_escalates_tenfold_on_duplicate_inputs():
    # five copies of one input make the Gram matrix singular, and a jitter of
    # 1e-16 is lost against its unit diagonal, so the first factorization
    # fails and the jitter grows tenfold until one succeeds
    rng = random.Random(3)
    xs = [tuple(rng.uniform(-2.0, 2.0) for _ in range(6)) for _ in range(6)]
    ys = [-float(rng.randint(50, 70)) for _ in range(6)]
    points = dataset_from(zip(xs + [xs[0]] * 5, ys + [ys[0]] * 5))
    config = BoConfig(jitter=1e-16)
    model = fit(points, config)
    steps = round(math.log10(model.jitter / config.jitter))
    assert steps >= 1
    assert model.jitter == pytest.approx(config.jitter * 10.0**steps, rel=1e-12)
    assert model.jitter <= _JITTER_CEILING
    mean, std = posterior_batch(model, np.array([x for x, _ in points]))
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
    assert np.max(np.abs(mean - np.array([y for _, y in points]))) <= 1e-6
    assert np.max(std) <= 1e-3


def recording_attempts(monkeypatch) -> list[tuple[int, float]]:
    """Record (first row, jitter) of every attempt to grow the factor."""
    tried = []
    real_extend = GpModel._extend

    def counting_extend(model, start):
        tried.append((start, model.jitter))
        return real_extend(model, start)

    monkeypatch.setattr(GpModel, "_extend", counting_extend)
    return tried


def unfactorable_kernel(monkeypatch) -> None:
    """Scale the kernel by 1e30: every jitter up to the ceiling then vanishes
    against the kernel values, so copies of one input stay singular at each
    step."""
    monkeypatch.setattr(bo, "_kernel", lambda *args: 1e30 * _kernel(*args))


def test_jitter_past_the_ceiling_raises(monkeypatch):
    unfactorable_kernel(monkeypatch)
    tried = recording_attempts(monkeypatch)
    points = dataset_from([((0.0,) * 6, -1.0), ((0.0,) * 6, -2.0), ((0.0,) * 6, -3.0)])
    with pytest.raises(RuntimeError, match="maximum jitter"):
        fit(points, BoConfig())
    # the first point factors; the second fails at its own row, then from row
    # 0 at 1e-5, 1e-4, 1e-3 and the ceiling, 1e-2
    assert [start for start, _ in tried] == [0, 1, 0, 0, 0, 0]
    assert [jitter for _, jitter in tried[1:]] == pytest.approx([1e-6, 1e-5, 1e-4, 1e-3, 1e-2], rel=1e-12)


def test_jitter_from_a_tiny_start_still_tries_the_ceiling(monkeypatch):
    # tenfold steps from 1e-16 reach 0.010000000000000005 by rounding: that
    # step is the ceiling and is tried, so the second point makes 15 attempts
    unfactorable_kernel(monkeypatch)
    tried = recording_attempts(monkeypatch)
    points = dataset_from([((0.0,) * 6, -1.0), ((0.0,) * 6, -2.0), ((0.0,) * 6, -3.0)])
    with pytest.raises(RuntimeError, match="maximum jitter"):
        fit(points, BoConfig(jitter=1e-16))
    assert len(tried) == 1 + 15  # 1e-16 up to 1e-2
    assert tried[-1][1] == pytest.approx(_JITTER_CEILING, rel=1e-12)


def lapack_refit_jitter(points, config: BoConfig) -> float:
    """The jitter a refit reaches: tenfold steps from `config.jitter` until
    LAPACK factors K + jitter*I of all the points."""
    x = np.array([params for params, _ in points]) / 2.0
    gram = np.exp(-0.5 * np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1))
    jitter = config.jitter
    while True:
        try:
            np.linalg.cholesky(gram + jitter * np.eye(len(x)))
            return jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0


def test_grown_model_keeps_an_escalated_jitter():
    # copies of the first input force an escalation once they arrive; the
    # jitter then never drops, and after every add it is the jitter that a
    # refit of the same points from config.jitter reaches
    rng = random.Random(3)
    xs = [tuple(rng.uniform(-2.0, 2.0) for _ in range(6)) for _ in range(12)]
    ys = [-float(rng.randint(50, 70)) for _ in range(12)]
    points = dataset_from(zip(xs[:6] + [xs[0]] * 5 + xs[6:], ys[:6] + [ys[0]] * 5 + ys[6:]))
    config = BoConfig(jitter=1e-16)
    model = fit(points[:1], config)
    seen = [model.jitter]
    for n, (params, value) in enumerate(points[1:], start=2):
        model.add(params, value)
        seen.append(model.jitter)
        assert model.jitter == fit(points[:n], config).jitter == lapack_refit_jitter(points[:n], config)
    assert seen == sorted(seen)
    assert seen[5] == config.jitter < seen[6]  # the first copy escalates
    assert seen[-1] == seen[10]  # later distinct inputs keep the jitter


@pytest.mark.parametrize("d", [6, 18, 42])
def test_grown_model_matches_dense_oracle_at_every_size(d):
    # the factor grows by one row per add from 1 to 30 points, the shapes of a
    # default tuning; after each add the posterior over 256 candidates matches
    # dense solves, L^-1 (K + jitter*I) L^-T is the identity and L L^T is
    # K + jitter*I
    rng = random.Random(d)
    xs = [tuple(rng.uniform(-2.0, 2.0) for _ in range(d)) for _ in range(30)]
    ys = [-float(rng.randint(55, 70)) for _ in range(30)]
    queries = 2.0 * _uniform_matrix(rng, 256, d)
    model = fit(dataset_from(zip(xs[:1], ys[:1])), BoConfig())
    for n in range(1, 31):
        if n > 1:
            model.add(xs[n - 1], ys[n - 1])
        mean, std = posterior_batch(model, queries)
        oracle_mean, oracle_std = dense_oracle_batch(xs[:n], ys[:n], queries)
        assert np.max(np.abs(mean - oracle_mean)) <= 1e-8
        assert np.max(np.abs(std - oracle_std)) <= 1e-8
        x = np.asarray(xs[:n]) / 2.0
        gram = np.exp(-0.5 * np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)) + model.jitter * np.eye(n)
        chol_inv = model.chol_inv
        assert chol_inv.shape == (n, n)
        assert np.max(np.abs(chol_inv @ gram @ chol_inv.T - np.eye(n))) <= 1e-12
        assert np.max(np.abs(model.chol @ model.chol.T - gram)) <= 1e-12


def tunable_program() -> Program:
    return Program(
        If((0.5, 0, 0, 0, 0, 0), Heuristic.SPT, Heuristic.MWR)
    )


@pytest.fixture
def inst():
    return parse_standard("2 2\n0 3 1 2\n1 2 0 4", "tiny")


def episode_return(instance):
    """The evaluation `search.train` builds: the negative makespan of the
    policy's episode, answered by one episode trie."""
    trie = EpisodeTrie(instance)
    return lambda policy: -float(trie.makespan(policy))


@pytest.fixture
def evaluate(inst):
    return episode_return(inst)


def counting(evaluate):
    """`evaluate` that also records every return it gives, and the record."""
    observed = []

    def recording(policy):
        observed.append(evaluate(policy))
        return observed[-1]

    return recording, observed


def test_optimize_parameter_free_charges_one(evaluate):
    evaluate, observed = counting(evaluate)
    program, value = optimize_params(Program(Heuristic.SPT), evaluate, 1, 0, BoConfig())
    assert observed == [-7.0]
    assert value == -7.0
    assert program == Program(Heuristic.SPT)


def test_parameter_free_tuning_builds_no_stream(evaluate, monkeypatch):
    # building one imports numpy.random and seeds a twister from the key;
    # ft06 at budget 1000, seeds 0-3, runs 1,016 parameter-free tunings
    def no_stream(seed):
        raise AssertionError("a parameter-free tuning built a weight stream")

    monkeypatch.setattr(bo, "weight_stream", no_stream)
    evaluate, observed = counting(evaluate)
    for episodes in (1, 30):
        program, value = optimize_params(Program(Heuristic.SPT), evaluate, episodes, episodes, BoConfig())
        assert (program, value) == (Program(Heuristic.SPT), -7.0)
    assert observed == [-7.0] * 31


def test_optimize_no_bo_rounds_charges_n_init(evaluate):
    evaluate, observed = counting(evaluate)
    optimize_params(tunable_program(), evaluate, 10, 0, BoConfig(init_points=10))
    assert len(observed) == 10


def test_optimize_defaults_charge_thirty(evaluate):
    evaluate, observed = counting(evaluate)
    optimize_params(tunable_program(), evaluate, 30, 0, BoConfig())
    assert len(observed) == 30


def test_optimize_respects_partial_budget(evaluate):
    evaluate, observed = counting(evaluate)
    program, value = optimize_params(tunable_program(), evaluate, 7, 0, BoConfig())
    assert len(observed) == 7
    assert value == -7.0


def test_optimize_exhausted_budget_raises(evaluate):
    with pytest.raises(ValueError):
        optimize_params(tunable_program(), evaluate, 0, 0, BoConfig())
    with pytest.raises(ValueError):
        optimize_params(Program(Heuristic.SPT), evaluate, 0, 0, BoConfig())


def test_optimize_returns_observed_value(inst, evaluate):
    # the reported value is achieved by the returned program, not predicted
    from prorl.sim import run_episode

    program, value = optimize_params(tunable_program(), evaluate, 50, 1, BoConfig())
    assert -run_episode(inst, make_policy(program)).makespan == value
    assert program.n_params == 6 and len(get_params(program)) == 6
    assert all(type(w) is float for w in get_params(program))


def test_optimize_best_is_max_of_observations(evaluate):
    # the reported value must equal the best return actually observed, and
    # one evaluation must run per granted episode
    evaluate, observed = counting(evaluate)
    _, value = optimize_params(tunable_program(), evaluate, 25, 3, BoConfig())
    assert len(observed) == 25
    assert value == max(observed)
    running_best = [max(observed[: i + 1]) for i in range(len(observed))]
    assert running_best == sorted(running_best)


def test_optimize_tie_returns_first_init_point():
    # every episode returns the same makespan, so all pairs tie: the first
    # pair to reach the best return, the first init point, must win
    calls = []

    def evaluate(policy):
        calls.append(policy)
        return -9.0

    program, value = optimize_params(tunable_program(), evaluate, 30, 5, BoConfig())
    assert len(calls) == 30
    assert value == -9.0
    replay = random.Random(5)
    assert get_params(program) == tuple(replay.uniform(-2.0, 2.0) for _ in range(6))


# a return that needs no simulator: a fixed score of the rule the policy
# routes each of a few concept vectors to
PROBES = [ConceptVector(*(random.Random(i).random() for _ in range(5))) for i in range(4)]
RULE_SCORE = {rule: float(i) for i, rule in enumerate(Heuristic)}


def synthetic_return(policy) -> float:
    return sum(RULE_SCORE[policy(cv)] for cv in PROBES)


@pytest.mark.parametrize("episodes", [1, 7, 30])
def test_optimize_seam_with_a_synthetic_return(monkeypatch, episodes):
    program = Program(If((0.5, -1.0, 0, 0, 0, 0), Heuristic.SPT,
                         If((0.0, 0, 1.0, -1.0, 0, 0), Heuristic.MWR, Heuristic.LOR)))
    evaluated, scores = [], []
    real_compile = bo.compile_policy

    def recording_compile(program, params):
        evaluated.append(params)
        return real_compile(program, params)

    def evaluate(policy):
        scores.append(synthetic_return(policy))
        return scores[-1]

    monkeypatch.setattr(bo, "compile_policy", recording_compile)
    tuned, value = optimize_params(program, evaluate, episodes, episodes, BoConfig())
    assert len(scores) == len(evaluated) == episodes
    assert value == max(scores)
    # the first vector to reach the best score wins, even when later ones tie it
    assert get_params(tuned) == evaluated[scores.index(value)]
    assert synthetic_return(make_policy(tuned)) == value


def test_optimize_lets_an_evaluation_error_propagate():
    calls = []

    def failing(policy):
        calls.append(policy)
        if len(calls) == 12:  # past the initial design, inside a BO round
            raise RuntimeError("episode failed")
        return synthetic_return(policy)

    with pytest.raises(RuntimeError, match="episode failed"):
        optimize_params(tunable_program(), failing, 30, 0, BoConfig())
    assert len(calls) == 12


def test_add_rejects_bad_observations():
    model = fit(dataset_from([((0.0,) * 6, -1.0)]), BoConfig())
    with pytest.raises(ValueError, match="expected 6 parameters"):
        model.add((0.0,) * 5, -1.0)
    with pytest.raises(ValueError, match="non-finite"):
        model.add((math.nan,) + (0.0,) * 5, -1.0)
    with pytest.raises(ValueError, match="non-finite"):
        model.add((0.5,) * 6, -math.inf)
    assert len(model.y) == 1 and model.chol_inv.shape == (1, 1)


@pytest.mark.parametrize("conditions", [1, 3, 7])
def test_optimize_matches_the_refit_reference(ft06, monkeypatch, conditions):
    # d = 6, 18 and 42 weights: growing the GP by one row per round must
    # evaluate the same parameter vectors as refitting it every round, and
    # compiling from the structure must route as a rebuilt program does
    shapes = random.Random(conditions)
    programs = []
    while len(programs) < 3:
        program = random_program(shapes)
        if program.n_params == 6 * conditions:
            programs.append(program)
    evaluated = []
    real_compile = bo.compile_policy

    def recording_compile(program, params):
        evaluated.append(params)
        return real_compile(program, params)

    monkeypatch.setattr(bo, "compile_policy", recording_compile)
    for seed, program in enumerate(programs):
        evaluated.clear()
        got = optimize_params(program, episode_return(ft06), 30, seed, BoConfig())
        expected_params, *expected = reference_optimize_params(
            program, episode_return(ft06), 30, seed, BoConfig()
        )
        assert evaluated == expected_params
        assert list(got) == expected
