"""Measure the memory a training's episode trie holds.

    PYTHONPATH=src python scripts/trie_bytes.py [--budget 1000] [--seed 0]

For ft06, ft10 and ta01 it trains once with the default configuration at
the given budget and seed, and prints one JSON object keyed by instance.
Each entry holds `trie_bytes`, the bytes tracemalloc traces with the
training's trie alive less those traced once it is dropped; the training's
`trie_nodes` (decisions the trie took in) and `distinct_episodes`; and
`bytes_per_decision`, their ratio; and `step_calls` and `ready_set_calls`,
the training's calls of `prorl.sim.step` and `prorl.sim.ready_set`. The
simulation loop calls `ready_set` once per decision, so `ready_set_calls`
counts the decisions the misses simulated, which is `trie_nodes` while the
trie is below `TRIE_MAX_NODES`; `step_calls` adds to those the steps that
catch a walk's state up along known picks, the price of a trie that keeps
no states. The script keeps the trie alive by
wrapping `prorl.search.EpisodeTrie`, counts the calls by wrapping the two
functions in `prorl.sim`'s module globals, and edits nothing in the
package, so pointing PYTHONPATH at another checkout's `src/` measures that
version.
"""

from __future__ import annotations

import argparse
import gc
import json
import tracemalloc
from pathlib import Path

from prorl import search, sim
from prorl.instance import load_instance_file

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "data" / "instances"
INSTANCES = {"ft06": "standard", "ft10": "standard", "ta01": "taillard"}


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def count_calls(name: str, counts: dict[str, int]) -> None:
    """Wrap `prorl.sim.<name>` so that each call adds one to `counts[name]`."""
    real = getattr(sim, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    setattr(sim, name, counted)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    tries = []
    make_trie = search.EpisodeTrie

    def kept_trie(instance):
        trie = make_trie(instance)
        tries.append(trie)
        return trie

    search.EpisodeTrie = kept_trie
    counts = {"step": 0, "ready_set": 0}
    for name in counts:
        count_calls(name, counts)
    results = {}
    for name, fmt in INSTANCES.items():
        instance = load_instance_file(str(INSTANCE_DIR / f"{name}.txt"), fmt)
        config = search.SearchConfig(episode_budget=args.budget, seed=args.seed)
        counts.update(dict.fromkeys(counts, 0))
        tracemalloc.start()
        _, state = search.train(instance, config)
        alive = traced_bytes()
        tries.clear()
        trie_bytes = alive - traced_bytes()
        tracemalloc.stop()
        results[name] = {
            "trie_bytes": trie_bytes,
            "trie_nodes": state.trie_nodes,
            "distinct_episodes": state.distinct_episodes,
            "bytes_per_decision": round(trie_bytes / max(state.trie_nodes, 1), 1),
            "step_calls": counts["step"],
            "ready_set_calls": counts["ready_set"],
        }
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
