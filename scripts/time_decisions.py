"""Time one dispatch decision of the simulator at growing job counts.

    PYTHONPATH=src python scripts/time_decisions.py [--sizes 15x15 ...] [--repeat R]

For each size n x m (by default 15x15, 20x20, 30x20, 50x20 and 100x20) it
generates the instance `scripts/make_taillard.py` prints for time seed 12345
and machine seed 67890, and times two kinds of episode, each the best of R
repeats, in µs per decision (an episode makes one per operation):

- `run_pdr_us`: one `run_pdr` episode under MWR, which reads the concepts
  and applies the rule at every decision;
- `trie_miss_us`: `trie_episodes` random programs through a fresh
  `EpisodeTrie`, timed together and divided by their episodes' decisions.
  The programs are the first 20 drawn by `random_program` on
  `random.Random(0)` whose episodes differ, so each one misses (many
  programs play the same episode); on an instance too small to have 20,
  the draws stop after 1,000.

The result is printed as one JSON object keyed by size. Point PYTHONPATH at
another checkout's `src/` to time that version on the same inputs.

One process times one version, so a pair of runs measures the machine as
much as the code: on a shared 2-core VM two consecutive rounds of the same
code gave 15x15 `run_pdr_us` 12.39 then 7.32 (1.7x). Compare two versions
only in alternating rounds (A, B, A, B, ...), each a fresh process, and
report every round, not just the best or the median.
"""

from __future__ import annotations

import argparse
import json
import random
import time

from make_taillard import generate, render
from prorl.dsl import make_policy, random_program
from prorl.instance import parse_taillard
from prorl.pdr import Heuristic
from prorl.sim import EpisodeTrie, run_pdr

SIZES = ("15x15", "20x20", "30x20", "50x20", "100x20")
TIME_SEED, MACHINE_SEED = 12345, 67890
PROGRAMS, DRAWS = 20, 1000


def best_of(repeat: int, run, setup=lambda: None) -> float:
    """The shortest of `repeat` timed calls of `run(setup())`, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        arg = setup()
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best


def missing_policies(instance) -> list:
    """Policies of random programs, each of which misses a trie that has
    run the ones before it: up to PROGRAMS of them, from up to DRAWS draws."""
    rng, trie, policies = random.Random(0), EpisodeTrie(instance), []
    for _ in range(DRAWS):
        policy = make_policy(random_program(rng))
        misses = trie.misses
        trie.makespan(policy)
        if trie.misses > misses:
            policies.append(policy)
            if len(policies) == PROGRAMS:
                break
    return policies


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", default=SIZES, metavar="NxM")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    results = {}
    for size in args.sizes:
        n, m = map(int, size.split("x"))
        durations, machines = generate(n, m, TIME_SEED, MACHINE_SEED)
        instance = parse_taillard(render(size, n, m, durations, machines), size)
        decisions = len(instance.durations)
        policies = missing_policies(instance)
        pdr_s = best_of(args.repeat, lambda _: run_pdr(instance, Heuristic.MWR))

        def query_all(trie: EpisodeTrie) -> None:
            for policy in policies:
                trie.makespan(policy)

        trie_s = best_of(args.repeat, query_all, lambda: EpisodeTrie(instance))
        results[size] = {
            "decisions": decisions,
            "run_pdr_us": round(pdr_s / decisions * 1e6, 2),
            "trie_miss_us": round(trie_s / (len(policies) * decisions) * 1e6, 2),
            "trie_episodes": len(policies),
        }
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
