"""Outer loop: (1 + lambda) local search over program architectures.

Each generation mutates the incumbent into a neighborhood of candidates,
tunes every candidate's condition weights with the Bayesian inner loop,
and keeps the best of {optimized candidates} united with {incumbent}. The
incumbent's recorded return therefore never decreases. Training stops when
the episode budget is exhausted; a budget of zero returns the random
initial program untrained.

Reproducibility: the neighborhood and every candidate's inner loop draw
from random sources seeded deterministically from (seed, generation,
candidate index). Candidates run one after another, in neighborhood order,
each on the episodes `train` grants it (the rule is stated where `train`
applies it).

Evaluation: `train` owns the episode budget and builds the run's one
evaluation, `evaluate(policy)`, the return of the policy's episode (its
negative makespan), and hands it to every inner loop. One `sim.EpisodeTrie`
behind it serves every evaluation of a `train` call and answers the
repeated ones (at budget 1000, seeds 0-2: 84-99.5% of them on ft06,
74-99.5% on ft10, 76-99.5% on ta01) without simulating. Every evaluation is
still charged, cached or not, so the cache saves time, never budget.
`SearchState.distinct_episodes` counts the evaluations that did simulate:
the distinct episodes, while the trie is below its node cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bo import BoConfig, optimize_params
from .dsl import MAX_DEPTH, Program, make_policy, mutate, random_program
from .instance import Instance
from .sim import EpisodeTrie, Policy, run_episode

_EXTRA_MUTATIONS_CAP = 5
MAX_LAMBDA = 10_000


@dataclass(frozen=True)
class SearchConfig:
    episode_budget: int
    lam: int = 10  # neighborhood (population) size
    mutation_rate: float = 0.1
    max_depth: int = MAX_DEPTH
    seed: int = 0
    bo: BoConfig = field(default_factory=BoConfig)

    def __post_init__(self):
        # comparisons are negated so that NaN fails them
        if not self.episode_budget >= 0:
            raise ValueError("episode_budget must be >= 0")
        if not 1 <= self.lam <= MAX_LAMBDA:
            raise ValueError(f"lam must be in [1, {MAX_LAMBDA}]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max_depth must be in [1, {MAX_DEPTH}]")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    episodes_used: int  # cumulative after this generation
    best_return: float
    incumbent_tokens: int
    incumbent_depth: int
    candidate_dims: tuple[int, ...]
    candidate_charges: tuple[int, ...]


@dataclass
class SearchState:
    generation: int
    incumbent: Program
    incumbent_return: float | None
    episodes_used: int
    history: list[GenerationRecord] = field(default_factory=list)
    distinct_episodes: int = 0  # evaluations the episode trie could not answer
    trie_nodes: int = 0  # decisions the trie took in, forced ones included


def _seed_key(seed: int, *scope) -> str:
    return ":".join(str(part) for part in (seed,) + scope)


def make_neighborhood(
    incumbent: Program,
    lam: int,
    mutation_rate: float,
    rng: random.Random,
    max_depth: int = MAX_DEPTH,
) -> list[Program]:
    """lambda mutants of the incumbent; each chains extra mutations with
    probability `mutation_rate` (geometric, capped)."""
    neighborhood = []
    for _ in range(lam):
        candidate = mutate(incumbent, rng, max_depth)
        extra = 0
        while extra < _EXTRA_MUTATIONS_CAP and rng.random() < mutation_rate:
            candidate = mutate(candidate, rng, max_depth)
            extra += 1
        neighborhood.append(candidate)
    return neighborhood


def train(instance: Instance, config: SearchConfig) -> tuple[Program, SearchState]:
    """Run the full bilevel search on one instance."""
    init_rng = random.Random(_seed_key(config.seed, "init"))
    incumbent = random_program(init_rng, config.max_depth)
    state = SearchState(generation=0, incumbent=incumbent, incumbent_return=None, episodes_used=0)
    trie = EpisodeTrie(instance)

    def evaluate(policy: Policy) -> float:
        return -float(trie.makespan(policy))

    budget = config.episode_budget
    per_candidate = config.bo.init_points + config.bo.iterations

    while state.episodes_used < budget:
        gen = state.generation + 1
        neighborhood = make_neighborhood(
            state.incumbent,
            config.lam,
            config.mutation_rate,
            random.Random(_seed_key(config.seed, "gen", gen, "mut")),
            config.max_depth,
        )

        # Selection over optimized candidates plus the incumbent; ties keep
        # the incumbent, then the earlier candidate.
        dims, charges = [], []
        for idx, candidate in enumerate(neighborhood):
            dim = candidate.n_params
            # the charge rule: init_points + iterations episodes for a tunable
            # candidate, one for a parameter-free one, cut to what is left of
            # the budget; a candidate reached with none left is charged 0
            charge = min(per_candidate if dim else 1, budget - state.episodes_used)
            dims.append(dim)
            charges.append(charge)
            if charge:
                cand_seed = _seed_key(config.seed, "gen", gen, "cand", idx)
                program, value = optimize_params(candidate, evaluate, charge, cand_seed, config.bo)
                state.episodes_used += charge
                if state.incumbent_return is None or value > state.incumbent_return:
                    state.incumbent, state.incumbent_return = program, value

        state.generation = gen
        state.distinct_episodes = trie.misses
        state.trie_nodes = trie.nodes
        state.history.append(
            GenerationRecord(
                generation=gen,
                episodes_used=state.episodes_used,
                best_return=state.incumbent_return,
                incumbent_tokens=state.incumbent.tokens,
                incumbent_depth=state.incumbent.depth,
                candidate_dims=tuple(dims),
                candidate_charges=tuple(charges),
            )
        )
    return state.incumbent, state


def evaluate_policy(program: Program, instance: Instance) -> int:
    """The makespan of one deterministic episode under the program."""
    return run_episode(instance, make_policy(program)).makespan


def training_log_csv(state: SearchState) -> str:
    """Per-generation log: gen,episodes_used,best_return,incumbent_tokens,incumbent_depth."""
    lines = ["gen,episodes_used,best_return,incumbent_tokens,incumbent_depth"]
    for rec in state.history:
        lines.append(
            f"{rec.generation},{rec.episodes_used},{rec.best_return},"
            f"{rec.incumbent_tokens},{rec.incumbent_depth}"
        )
    return "\n".join(lines) + "\n"
