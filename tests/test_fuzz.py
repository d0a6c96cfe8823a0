"""Boundary fuzz: seeded mutations of every input the commands read.

Instance files in both formats, BKS files, policy JSON, `--set` text and
the integer flags are mutated by `conftest.mutate` and fed to `pdr`,
`eval`, `random` and `train --budget 3`. Whatever the input, `cli.main`
returns 0, 2 or 3 and never raises; a run that fails prints no report
table; a malformed instance or BKS file is reported with its line; and a
flag integer or `--set` value holding `_` or a non-ASCII character exits 2.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from conftest import mutate, to_taillard
from prorl import dsl
from prorl.cli import RunReport, build_parser, main
from prorl.instance import parse_standard
from prorl.pdr import Heuristic

CASES = 200  # per input kind
TABLE = RunReport.table_header()
SETTINGS = ("bo.beta=2.0", "bo.candidates=64", "bo.init_points=5", "bo.jitter=1e-5",
            "search.lambda=4", "search.max_depth=2", "search.max_depth=3",
            "search.mutation_rate=0.25")


def _run(capsys, argv: list[str]) -> tuple[int, str]:
    """Run the command; check the exit code and the table. Returns (code, stderr)."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, code, err)
    assert (TABLE in out) == (code == 0), (argv, code, out)
    return code, err


def _commands(instance: str, fmt: str, policy: str, bks: str) -> list[list[str]]:
    common = ["--instance", instance, "--format", fmt, "--bks", bks]
    return [
        ["pdr", *common, "--rule", "mwr"],
        ["eval", *common, "--policy", policy],
        ["train", *common, "--budget", "3"],
    ]


STANDARD = "3 3\n0 3 1 2 2 5\n1 4 2 1 0 2\n2 2 0 6 1 3\n"
PROGRAM = dsl.Program(dsl.If(
    (0.5, -1.0, 0.25, 1.5, -0.75, 0.125), Heuristic.SPT,
    dsl.If((-0.25, 2.0, -1.5, 0.0, 1.0, -2.0), Heuristic.MWR, Heuristic.LOR),
))


@pytest.fixture
def valid(tmp_path):
    """(instance texts by format, policy path, BKS path) of unmutated inputs."""
    policy = tmp_path / "policy.json"
    policy.write_text(dsl.serialize(PROGRAM))
    bks = tmp_path / "bks.csv"
    bks.write_text("ft06,55\nfuzz,14\n")
    texts = {"standard": STANDARD, "taillard": to_taillard(parse_standard(STANDARD))}
    return texts, str(policy), str(bks)


@pytest.mark.parametrize("fmt", ["standard", "taillard"])
def test_mutated_instance_files(tmp_path, capsys, valid, fmt):
    texts, policy, bks = valid
    rng = random.Random(f"instance:{fmt}")
    path = tmp_path / "fuzz.txt"
    for _ in range(CASES):
        path.write_text(mutate(texts[fmt], rng), encoding="utf-8")
        for argv in _commands(str(path), fmt, policy, bks):
            code, err = _run(capsys, argv)
            assert code == 0 or "line " in err, (path.read_text(), err)


def test_mutated_bks_files(tmp_path, capsys, valid):
    texts, policy, bks = valid
    rng = random.Random("bks")
    instance = tmp_path / "fuzz.txt"
    instance.write_text(texts["standard"])
    mutated, text = tmp_path / "mutated.csv", Path(bks).read_text()
    for _ in range(CASES):
        mutated.write_text(mutate(text, rng), encoding="utf-8")
        for argv in _commands(str(instance), "standard", policy, str(mutated)):
            code, err = _run(capsys, argv)
            assert code == 0 or "line " in err, (mutated.read_text(), err)


def test_mutated_policy_files(tmp_path, capsys, valid):
    texts, policy, bks = valid
    rng = random.Random("policy")
    instance = tmp_path / "fuzz.txt"
    instance.write_text(texts["standard"])
    mutated, text = tmp_path / "mutated.json", Path(policy).read_text()
    for _ in range(CASES):
        mutated.write_text(mutate(text, rng), encoding="utf-8")
        _run(capsys, _commands(str(instance), "standard", str(mutated), bks)[1])


def test_mutated_set_text(tmp_path, capsys, valid):
    texts, policy, bks = valid
    rng = random.Random("set")
    instance = tmp_path / "fuzz.txt"
    instance.write_text(texts["standard"])
    train = _commands(str(instance), "standard", policy, bks)[2]
    for _ in range(CASES):
        text = mutate(rng.choice(SETTINGS), rng)
        code, _ = _run(capsys, train + ["--set", text])
        if "_" in text.partition("=")[2] or not text.isascii():
            assert code == 2, text


# (command, flag, value): --seed runs, and --episodes and --budget are only
# parsed, since a mutation can make them 400 digits long
INTEGER_FLAGS = (("random", "--seed", "7"), ("train", "--seed", "7"),
                 ("random", "--episodes", "2"), ("train", "--budget", "3"))


def test_mutated_integer_flags(tmp_path, capsys, valid):
    texts, policy, bks = valid
    rng = random.Random("integer flags")
    instance = tmp_path / "fuzz.txt"
    instance.write_text(texts["standard"])
    for _ in range(CASES):
        command, flag, text = rng.choice(INTEGER_FLAGS)
        value = mutate(text, rng)
        argv = [command, "--instance", str(instance), "--bks", bks, flag, value]
        argv += ["--budget", "3"] if command == "train" and flag == "--seed" else []
        ascii_integer = re.fullmatch(r"[+-]?[0-9]+", value) is not None
        if flag == "--seed":
            code, _ = _run(capsys, argv)
            assert (code != 2) == ascii_integer, value
        elif ascii_integer:
            assert getattr(build_parser().parse_args(argv), flag[2:]) == int(value)
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, value
            assert "invalid integer value" in capsys.readouterr().err
