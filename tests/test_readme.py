"""The README's Quick start runs as written, and its `--set` table names every key."""

from __future__ import annotations

import re
import shlex
import subprocess
from dataclasses import fields

from conftest import DATA_DIR
from prorl import cli
from prorl.bo import BoConfig
from prorl.search import SearchConfig

README = DATA_DIR.parent / "README.md"


def quick_start_commands() -> list[list[str]]:
    """The commands of the Quick start's shell block, each split into its
    words, with continuation lines joined and comments dropped."""
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    # run from a scratch directory that sees the shipped data, so every
    # output path of the block lands under tmp_path
    (tmp_path / "data").symlink_to(DATA_DIR, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    commands = quick_start_commands()
    assert {words[1] for words in commands if words[0] == "prorl"} == {"pdr", "train", "eval", "bench"}
    for words in commands:
        if words[0] == "prorl":
            assert cli.main(words[1:]) == 0, " ".join(words)
        else:  # the block's file set-up: mkdir and cp
            assert words[0] in ("mkdir", "cp")
            subprocess.run(words, check=True)
    out = capsys.readouterr().out
    assert all(name in out for name in ("ft06", "ft10", "ta01"))  # every shipped instance


def set_key_table() -> dict[str, str]:
    """The rows of the README's `--set` table: each key and its default."""
    table = README.read_text().split("| key | default | accepted values |", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", table.split("\n\n", 1)[0], re.M)
    return {key: default.strip() for key, default in rows}


def test_set_key_table_names_every_key_with_its_default():
    table = set_key_table()
    assert set(table) == ({f"bo.{f.name}" for f in fields(BoConfig)}
                          | {f"search.{k}" for k in cli._SEARCH_KEYS})
    defaults = SearchConfig(episode_budget=0)
    for key, default in table.items():
        section, name = key.split(".")
        owner, attr = (defaults.bo, name) if section == "bo" else (defaults, cli._SEARCH_KEYS[name])
        assert float(default) == getattr(owner, attr), key
