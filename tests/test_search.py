"""Outer-loop search: neighborhoods, incumbent selection, budget accounting."""

from __future__ import annotations

import dataclasses
import random

import pytest

import prorl.search as search_module
from prorl.bo import BoConfig
from prorl.dsl import MAX_DEPTH, MAX_TOKENS, random_program
from prorl.instance import parse_standard
from prorl.search import (
    SearchConfig,
    evaluate_policy,
    make_neighborhood,
    train,
    training_log_csv,
)
from prorl.sim import EpisodeTrie


@pytest.fixture
def inst(inst_2x2):
    return inst_2x2


def small_config(budget, seed=0, lam=2, init_points=2, iterations=1) -> SearchConfig:
    return SearchConfig(
        episode_budget=budget,
        lam=lam,
        seed=seed,
        bo=BoConfig(init_points=init_points, iterations=iterations, candidates=16),
    )


def test_neighborhood_size_and_validity():
    rng = random.Random(1)
    incumbent = random_program(rng)
    neighborhood = make_neighborhood(incumbent, 10, 0.1, rng)
    assert len(neighborhood) == 10
    for candidate in neighborhood:
        assert candidate.depth <= MAX_DEPTH
        assert candidate.tokens <= MAX_TOKENS


def test_zero_mutation_rate_means_single_mutation(monkeypatch):
    calls = []
    real_mutate = search_module.mutate

    def counting_mutate(program, rng, max_depth=MAX_DEPTH):
        calls.append(1)
        return real_mutate(program, rng, max_depth)

    monkeypatch.setattr(search_module, "mutate", counting_mutate)
    rng = random.Random(2)
    make_neighborhood(random_program(rng), 10, 0.0, rng)
    assert len(calls) == 10  # exactly one mutate call per candidate


def test_budget_zero_returns_untrained_program(inst):
    program, state = train(inst, small_config(0, seed=3))
    assert state.episodes_used == 0
    assert state.history == []
    assert state.incumbent_return is None
    assert program == state.incumbent


def test_reproducibility(inst):
    a_prog, a_state = train(inst, small_config(30, seed=4))
    b_prog, b_state = train(inst, small_config(30, seed=4))
    assert a_prog == b_prog
    assert a_state.history == b_state.history
    c_prog, c_state = train(inst, small_config(30, seed=5))
    assert (c_prog, c_state.history) != (a_prog, a_state.history)


def test_incumbent_monotonicity(inst):
    _, state = train(inst, small_config(60, seed=7))
    returns = [rec.best_return for rec in state.history]
    assert len(returns) >= 2
    assert all(b >= a for a, b in zip(returns, returns[1:]))


def closed_form_episodes(config: SearchConfig, history) -> int:
    """Replay the budget rules over the recorded candidate dimensions."""
    per_candidate = config.bo.init_points + config.bo.iterations
    remaining = config.episode_budget
    total = 0
    for record in history:
        for dim in record.candidate_dims:
            want = 1 if dim == 0 else per_candidate
            granted = min(want, remaining)
            total += granted
            remaining -= granted
    return total


def test_budget_accounting_closed_form(inst):
    rng = random.Random(8)
    for _ in range(25):
        config = small_config(
            budget=rng.randint(1, 40),
            seed=rng.randint(0, 10_000),
            lam=rng.randint(1, 4),
            init_points=rng.randint(1, 4),
            iterations=rng.randint(0, 3),
        )
        _, state = train(inst, config)
        assert state.episodes_used == closed_form_episodes(config, state.history)
        assert state.episodes_used == min(
            config.episode_budget,
            sum(sum(rec.candidate_charges) for rec in state.history),
        )
        assert state.episodes_used <= config.episode_budget


def test_episodes_used_counts_every_evaluation(ft06, monkeypatch):
    # the charges are computed, not counted, so count the episodes the
    # inner loop actually asks the trie for over whole trainings
    calls = []
    real_makespan = EpisodeTrie.makespan

    def counting_makespan(self, policy):
        calls.append(1)
        return real_makespan(self, policy)

    monkeypatch.setattr(EpisodeTrie, "makespan", counting_makespan)
    per_candidate = 5
    partial_final = parameter_free = False
    for budget in (1, 7, 31, 200):
        calls.clear()
        _, state = train(ft06, small_config(budget, seed=1, lam=3, init_points=3, iterations=2))
        charges = [c for rec in state.history for c in rec.candidate_charges]
        assert len(calls) == state.episodes_used == sum(charges) == budget
        last = state.history[-1]
        partial_final |= any(
            charge < (per_candidate if dim else 1)
            for dim, charge in zip(last.candidate_dims, last.candidate_charges)
        )
        parameter_free |= any(
            dim == 0 and charge == 1
            for rec in state.history
            for dim, charge in zip(rec.candidate_dims, rec.candidate_charges)
        )
    assert partial_final and parameter_free


def test_per_candidate_charges_match_rules(inst):
    config = small_config(17, seed=9, lam=3, init_points=3, iterations=2)
    _, state = train(inst, config)
    per_candidate = 5
    remaining = 17
    for record in state.history:
        for dim, charge in zip(record.candidate_dims, record.candidate_charges):
            want = 1 if dim == 0 else per_candidate
            assert charge == min(want, remaining)
            remaining -= charge
    assert remaining == 0


def test_full_generation_arithmetic(inst):
    # lam * (init + iters) = 2 * 3 = 6 per generation when every candidate
    # has parameters; find a seed where generation 1 is all-parameterized
    for seed in range(50):
        config = small_config(6, seed=seed, lam=2, init_points=2, iterations=1)
        _, state = train(inst, config)
        if state.history and all(d > 0 for d in state.history[0].candidate_dims):
            assert state.generation == 1
            assert state.episodes_used == 6
            return
    pytest.fail("no seed produced an all-parameterized first generation")


def test_partial_final_generation(inst):
    # budget 20 with 6-episode generations: three full plus a partial one
    for seed in range(50):
        config = small_config(20, seed=seed, lam=2, init_points=2, iterations=1)
        _, state = train(inst, config)
        if all(d > 0 for rec in state.history for d in rec.candidate_dims):
            assert state.episodes_used == 20
            assert state.generation == 4
            assert sum(state.history[-1].candidate_charges) == 2
            return
    pytest.fail("no seed produced all-parameterized generations")


def test_final_return_matches_reevaluation(inst):
    program, state = train(inst, small_config(30, seed=10))
    assert -evaluate_policy(program, inst) == state.incumbent_return


def test_evaluate_policy_gap():
    inst = parse_standard("1 1\n0 110", "gap")
    program, _ = train(inst, small_config(0, seed=0))
    makespan = evaluate_policy(program, inst)
    assert makespan == 110
    assert (makespan - 100) / 100 == pytest.approx(0.10)
    assert (makespan - 110) / 110 == 0.0


def test_search_state_reports_the_episode_trie(ft06):
    _, state = train(ft06, SearchConfig(episode_budget=200, seed=0))
    assert state.episodes_used == 200
    assert 1 <= state.distinct_episodes <= state.episodes_used
    assert 1 <= state.trie_nodes <= state.distinct_episodes * len(ft06.durations)


def test_training_log_csv(inst):
    _, state = train(inst, small_config(12, seed=11))
    lines = training_log_csv(state).strip().splitlines()
    assert lines[0] == "gen,episodes_used,best_return,incumbent_tokens,incumbent_depth"
    assert len(lines) == 1 + len(state.history)
    last = lines[-1].split(",")
    assert int(last[1]) == state.episodes_used


def test_trivial_class_coverage(inst):
    # on the 2x2 every policy reaches makespan 7, so the final return must
    # equal the best single-rule return exactly
    program, state = train(inst, small_config(10, seed=12))
    assert state.incumbent_return == -7.0
    assert evaluate_policy(program, inst) == 7


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(episode_budget=-1)
    with pytest.raises(ValueError):
        SearchConfig(episode_budget=0, lam=0)
    with pytest.raises(ValueError):
        SearchConfig(episode_budget=0, mutation_rate=1.5)


@pytest.mark.parametrize("owner, field", [("search", "lam"), ("search", "bo"), ("bo", "beta")])
def test_configs_are_frozen(owner, field):
    # a variant is derived with dataclasses.replace, which re-validates it
    config = SearchConfig(episode_budget=10)
    target = config if owner == "search" else config.bo
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(target, field, getattr(target, field))
    variant = dataclasses.replace(config, bo=dataclasses.replace(config.bo, beta=0.5))
    assert (variant.bo.beta, config.bo.beta) == (0.5, 2.0)
    with pytest.raises(ValueError):
        dataclasses.replace(config.bo, beta=-1.0)
