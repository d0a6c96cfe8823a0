"""Fingerprint trainings so that two versions of the code can be compared.

    PYTHONPATH=src python scripts/fingerprint_training.py > fingerprints.json

For ft06, ft10 and ta01, episode budgets 100 and 1000, and seeds 0-9 (60
trainings with the default configuration), it prints one JSON object keyed
by "instance/budget/seed". Each entry holds the sha256 of `serialize` of the
learned program, of `training_log_csv` and of `repr(state.history)` (which
carries every candidate's dims and charges), plus `episodes_used`,
`distinct_episodes` (the episodes the trie simulated) and `trie_nodes`
(the decisions it took in, forced ones included). Point PYTHONPATH at another
checkout's `src/` to fingerprint that version; equal output means the two
versions train bit-identically on these runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from prorl.dsl import serialize
from prorl.instance import load_instance_file
from prorl.search import SearchConfig, train, training_log_csv

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "data" / "instances"
INSTANCES = {"ft06": "standard", "ft10": "standard", "ta01": "taillard"}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budgets", type=int, nargs="+", default=[100, 1000])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    args = parser.parse_args()
    results = {}
    for name, fmt in INSTANCES.items():
        instance = load_instance_file(str(INSTANCE_DIR / f"{name}.txt"), fmt)
        for budget in args.budgets:
            for seed in range(args.seeds):
                program, state = train(instance, SearchConfig(episode_budget=budget, seed=seed))
                results[f"{name}/{budget}/{seed}"] = {
                    "program": sha(serialize(program)),
                    "log": sha(training_log_csv(state)),
                    "history": sha(repr(state.history)),
                    "episodes_used": state.episodes_used,
                    "distinct_episodes": state.distinct_episodes,
                    "trie_nodes": state.trie_nodes,
                }
    print(json.dumps(results, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
