"""The README's Quick start runs as written."""

from __future__ import annotations

import re
import shlex
import subprocess

from conftest import DATA_DIR
from prorl import cli

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
