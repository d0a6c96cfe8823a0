"""The measuring scripts run on the current API, and a fingerprint is what
an in-process training of the same run gives."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from conftest import DATA_DIR
from prorl.dsl import serialize
from prorl.instance import load_instance_file
from prorl.search import SearchConfig, train, training_log_csv

SCRIPTS_DIR = DATA_DIR.parent / "scripts"


def run_script(name: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(DATA_DIR.parent / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(SCRIPTS_DIR / name), *args],
                         capture_output=True, check=True, env=env, text=True).stdout
    return json.loads(out)


def test_time_gp_reports_every_shape():
    timings = run_script("time_gp.py", "--repeat", "1")
    shapes = [f"d={d},n={n}" for d in (6, 18, 42) for n in (10, 29)]
    assert list(timings) == ["stream_us"] + shapes
    assert timings["stream_us"] > 0
    for shape in shapes:
        row = timings[shape]
        assert list(row) == ["add_us", "draw_us", "propose_us", "round_us"]
        assert all(value > 0 for value in row.values())
        assert abs(row["round_us"] - row["add_us"] - row["propose_us"]) <= 0.11


def test_fingerprint_matches_an_in_process_training():
    prints = run_script("fingerprint_training.py", "--budgets", "10", "--seeds", "1")
    assert sorted(prints) == ["ft06/10/0", "ft10/10/0", "ta01/10/0"]
    for entry in prints.values():
        assert set(entry) == {"program", "log", "history", "episodes_used",
                              "distinct_episodes", "trie_nodes"}

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    instance = load_instance_file(str(DATA_DIR / "instances" / "ft06.txt"), "standard")
    program, state = train(instance, SearchConfig(episode_budget=10, seed=0))
    assert prints["ft06/10/0"] == {
        "program": sha(serialize(program)),
        "log": sha(training_log_csv(state)),
        "history": sha(repr(state.history)),
        "episodes_used": state.episodes_used,
        "distinct_episodes": state.distinct_episodes,
        "trie_nodes": state.trie_nodes,
    }
