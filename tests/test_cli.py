"""CLI contract: exit codes, reports, CSV stability, policy files."""

from __future__ import annotations

import concurrent.futures
import csv
import math
import os
import random
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, INSTANCE_DIR, TINY_2X2
from prorl import bo, cli, dsl, search
from prorl.cli import build_parser, main
from prorl.instance import load_instance_file

FT06 = str(INSTANCE_DIR / "ft06.txt")


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_2X2 + "\n")
    return str(path)


@pytest.fixture
def bks_path(tmp_path):
    path = tmp_path / "bks.csv"
    path.write_text("ft06,55\ntiny,7\n")
    return str(path)


def test_pdr_reports_gap(capsys, bks_path):
    assert main(["pdr", "--instance", FT06, "--rule", "mor", "--bks", bks_path]) == 0
    out = capsys.readouterr().out
    assert "MOR" in out
    assert "7.27%" in out


def test_a_bks_file_with_a_byte_order_mark_keeps_its_first_entry(tmp_path, capsys):
    bks = tmp_path / "bks.csv"
    bks.write_text("\ufeffft06,55\n", encoding="utf-8")
    assert main(["pdr", "--instance", FT06, "--rule", "mor", "--bks", str(bks)]) == 0
    assert "7.27%" in capsys.readouterr().out


def test_pdr_unknown_rule_is_usage_error(capsys):
    assert main(["pdr", "--instance", FT06, "--rule", "xyz"]) == 2


def test_pdr_missing_instance_is_io_error(capsys):
    assert main(["pdr", "--instance", "/nonexistent/file.txt", "--rule", "spt"]) == 3


def test_pdr_without_bks_entry_reports_no_gap(capsys, tiny_path):
    assert main(["pdr", "--instance", tiny_path, "--rule", "spt"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].split()[3] == "-"


def test_pdr_writes_csv_trace_and_schedule(tmp_path, capsys, tiny_path, bks_path):
    csv = tmp_path / "row.csv"
    trace = tmp_path / "trace.csv"
    sched = tmp_path / "sched.csv"
    code = main([
        "pdr", "--instance", tiny_path, "--rule", "spt", "--bks", bks_path,
        "--csv", str(csv), "--trace", str(trace), "--dump-schedule", str(sched),
    ])
    assert code == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0].startswith("instance,method,makespan")
    assert rows[1].startswith("tiny,SPT,7,0.00")
    assert trace.read_text().splitlines()[0] == "t,ld,am,ao,jd,st,action"
    assert sched.read_text().splitlines()[0] == "job,op,machine,start,end"


def test_random_deterministic_per_seed(tmp_path, capsys, tiny_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["random", "--instance", tiny_path, "--seed", "3", "--episodes", "5"]
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_random_zero_episodes_usage_error(tiny_path, capsys):
    assert main(["random", "--instance", tiny_path, "--episodes", "0"]) == 2


def test_train_writes_policy_and_log(tmp_path, capsys, tiny_path, bks_path):
    out = tmp_path / "policy.json"
    log = tmp_path / "log.csv"
    code = main([
        "train", "--instance", tiny_path, "--budget", "12", "--seed", "0",
        "--bks", bks_path, "--out", str(out), "--log", str(log),
        "--set", "search.lambda=2", "--set", "bo.init_points=2",
        "--set", "bo.iterations=1", "--set", "bo.candidates=16",
    ])
    assert code == 0
    program = dsl.deserialize(out.read_text())
    assert dsl.pretty_print(program) in capsys.readouterr().out
    assert log.read_text().startswith("gen,episodes_used")


def test_train_budget_zero_still_emits_policy(tmp_path, capsys, tiny_path):
    out = tmp_path / "policy.json"
    code = main(["train", "--instance", tiny_path, "--budget", "0", "--out", str(out)])
    assert code == 0
    dsl.deserialize(out.read_text())


def test_train_bad_set_key_usage_error(tiny_path, capsys):
    code = main(["train", "--instance", tiny_path, "--budget", "0", "--set", "bogus=1"])
    assert code == 2


@pytest.mark.parametrize("pair", [
    "bo.jitter=nan",
    "bo.beta=nan",
    "bo.beta=inf",
    "bo.iterations=2.7",
    "bo.init_points=inf",
    "bo.candidates=nan",
    "bo.candidates=65537",
    "search.lambda=0",
    "search.lambda=10001",
    "search.mutation_rate=nan",
    "search.max_depth=10",
    "search.max_depth=0",
    "search.max_tokens=0",  # a retired key is refused at any value
    "search.max_tokens=86",
    "bogus=1",
    "search.lambda=1_0",  # float() reads 1_0 and fullwidth digits as 10
    "search.lambda=\uff11\uff10",
    "bo.beta=\uff12.0",
])
@pytest.mark.parametrize("command", ["train", "bench", "bench-fifo"])
def test_bad_set_value_is_usage_error(tmp_path, capsys, tiny_path, pair, command):
    # non-finite, non-integral and out-of-range overrides are rejected up
    # front with the usage exit code, never trained with or truncated; bench
    # checks them even when no prorl task would use them
    if command == "train":
        argv = ["train", "--instance", tiny_path, "--budget", "4"]
    else:
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
        method = "fifo" if command == "bench-fifo" else "prorl"
        argv = ["bench", "--dir", str(inst_dir), "--methods", method, "--budget", "4"]
    assert main(argv + ["--set", pair]) == 2
    assert "usage error" in capsys.readouterr().err


def _training_argv(tmp_path, command: str, seed: int = 0) -> list[str]:
    """A budget-40 training on ft06 with one candidate per generation, so
    that its tunings fit and grow a GP, run by `train` or by `bench`."""
    if command == "train":
        argv = ["train", "--instance", FT06, "--seed", str(seed)]
    else:
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir(exist_ok=True)
        (inst_dir / "ft06.txt").write_text(Path(FT06).read_text())
        argv = ["bench", "--dir", str(inst_dir), "--methods", "prorl", "--seeds", str(seed)]
    return argv + ["--budget", "40", "--set", "search.lambda=1"]


@pytest.mark.parametrize("pairs, field", [
    (["bo.length_scale=1e-200"], "length_scale"),
    (["bo.length_scale=1e-162"], "length_scale"),
    (["bo.length_scale=1e200"], "length_scale"),
    (["bo.length_scale=1.4e154"], "length_scale"),
    (["bo.signal_var=1e308", "bo.jitter=1e308"], "signal_var"),
    (["search.max_tokens=40"], "max_tokens"),
])
@pytest.mark.parametrize("command", ["train", "bench"])
def test_gp_settings_no_tuning_can_factor_are_usage_errors(tmp_path, capsys, pairs, field, command):
    # each bo.* pair once trained and failed with the internal-error exit 4;
    # the kernel is fixed, so its length scale and signal variance are no
    # keys, and depth alone bounds a program's size, so no token limit is
    sets = [arg for pair in pairs for arg in ("--set", pair)]
    assert main(_training_argv(tmp_path, command) + sets) == 2
    section = pairs[0].partition(".")[0]
    assert f"usage error: unknown config key '{section}.{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("field, low, high", [
    ("jitter", math.ulp(0.0), sys.float_info.max),
])
def test_gp_settings_across_their_accepted_range_train(tmp_path, capsys, field, low, high):
    # both ends and seeded log-uniform draws between them train; the
    # neighbouring doubles outside the range are usage errors
    rng = random.Random(f"gp {field}")
    values = [low, high] + [10 ** rng.uniform(math.log10(low), math.log10(high)) for _ in range(6)]
    for value in values:
        argv = _training_argv(tmp_path, "train", seed=rng.randrange(1000))
        assert main(argv + ["--set", f"bo.{field}={value!r}"]) == 0, value
    for value in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf)):
        assert main(_training_argv(tmp_path, "train") + ["--set", f"bo.{field}={value!r}"]) == 2, value
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "bench", "bench-fifo"])
def test_negative_budget_is_usage_error(tmp_path, capsys, monkeypatch, tiny_path, command):
    if command == "train":
        argv = ["train", "--instance", tiny_path]
    else:
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
        method = "fifo" if command == "bench-fifo" else "prorl"
        argv = ["bench", "--dir", str(inst_dir), "--methods", method]
    work = []
    monkeypatch.setattr(cli, "load_instance_file", lambda *a: work.append(a))
    monkeypatch.setattr(search, "train", lambda *a: work.append(a))
    monkeypatch.setattr(cli, "_bench_single", lambda *a: work.append(a))
    assert main(argv + ["--budget", "-1"]) == 2
    assert "--budget must be >= 0" in capsys.readouterr().err
    assert work == []  # rejected before any instance is loaded or trained on


def test_train_draws_no_more_init_points_than_the_budget(tmp_path, capsys, monkeypatch):
    # the guard fails before anything is allocated, so a draw sized to
    # init_points rather than to the episodes left fails safely
    real = bo.weight_stream
    sizes = []

    class GuardedStream:
        def __init__(self, stream):
            self.stream = stream

        def uniform(self, low, high, size):
            sizes.append(size)
            if math.prod(size) > 10**6:
                raise AssertionError(f"asked for {size} weights")
            return self.stream.uniform(low, high, size)

    def guarded(seed):
        return GuardedStream(real(seed))

    monkeypatch.setattr(bo, "weight_stream", guarded)
    csv = tmp_path / "row.csv"
    code = main([
        "train", "--instance", FT06, "--budget", "5",
        "--set", "bo.init_points=1000000000000", "--csv", str(csv),
    ])
    assert code == 0
    assert csv.read_text().splitlines()[1].split(",")[-1] == "5"
    assert sizes  # the guard saw a tuning's draws


def test_train_ignores_prorl_workers(tmp_path, monkeypatch, capsys, tiny_path):
    monkeypatch.setenv("PRORL_WORKERS", "abc")
    code = main([
        "train", "--instance", tiny_path, "--budget", "4",
        "--set", "search.lambda=2", "--set", "bo.init_points=2",
    ])
    assert code == 0
    # bench sizes its pool from the CPUs alone, so the variable changes nothing
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
    argv = [
        "bench", "--dir", str(inst_dir), "--methods", "spt,prorl", "--seeds", "0,1",
        "--budget", "4", "--set", "search.lambda=2", "--set", "bo.init_points=2",
    ]
    assert main(argv + ["--csv", str(tmp_path / "with.csv")]) == 0
    monkeypatch.delenv("PRORL_WORKERS")
    assert main(argv + ["--csv", str(tmp_path / "without.csv")]) == 0
    assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch, tiny_path):
    assert build_parser() is build_parser()
    configs = []
    real_train = search.train

    def recording_train(instance, config):
        configs.append(config)
        return real_train(instance, config)

    monkeypatch.setattr(search, "train", recording_train)
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--instance", tiny_path, "--budget", "0",
                 "--set", "search.lambda=2", "--set", "bo.beta=0.5"]) == 0
    assert main(["pdr", "--instance", tiny_path, "--rule", "spt", "--trace", "trace.csv"]) == 0
    (tmp_path / "trace.csv").unlink()
    before = sorted(tmp_path.iterdir())
    # the same commands without --set and --trace see none of those values
    assert main(["train", "--instance", tiny_path, "--budget", "0"]) == 0
    assert main(["pdr", "--instance", tiny_path, "--rule", "spt"]) == 0
    assert (configs[0].lam, configs[0].bo.beta) == (2, 0.5)
    assert configs[1] == search.SearchConfig(episode_budget=0)
    assert sorted(tmp_path.iterdir()) == before


def test_repeated_set_key_takes_its_last_value(capsys, monkeypatch, tiny_path):
    configs = []
    real_train = search.train

    def recording_train(instance, config):
        configs.append(config)
        return real_train(instance, config)

    monkeypatch.setattr(search, "train", recording_train)
    assert main([
        "train", "--instance", tiny_path, "--budget", "0",
        "--set", "bo.beta=0.5", "--set", "search.lambda=3", "--set", "bo.beta=1.5",
        "--set", "search.lambda=2",
    ]) == 0
    assert configs == [search.SearchConfig(episode_budget=0, lam=2, bo=bo.BoConfig(beta=1.5))]


def test_bench_prorl_rows_match_train(tmp_path, capsys):
    # bench validates one config up front and trains each seed on it, so
    # every row is the CSV row of `train --seed` with the same --set pairs;
    # on ft06 seeds 0 and 3 end on different makespans (59 and 61)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "ft06.txt").write_text(Path(FT06).read_text())
    sets = ["--set", "search.lambda=2", "--set", "bo.init_points=2", "--set", "bo.iterations=1"]
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(inst_dir), "--methods", "prorl", "--seeds", "0,3",
                 "--budget", "8", "--csv", str(bench_csv)] + sets) == 0
    rows = [cli.RunReport.CSV_HEADER]
    for seed in ("0", "3"):
        train_csv = tmp_path / f"train{seed}.csv"
        assert main(["train", "--instance", FT06, "--seed", seed, "--budget", "8",
                     "--csv", str(train_csv)] + sets) == 0
        rows.append(train_csv.read_text().splitlines()[1])
    assert bench_csv.read_text().splitlines() == rows
    assert [row.split(",")[2] for row in rows[1:]] == ["59", "61"]


def test_bench_rows_match_their_commands(tmp_path, capsys):
    # a bench row runs the function its own command runs, so its CSV row is
    # the command's; only a rule's label differs, in case (SPT and spt)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "ft06.txt").write_text(Path(FT06).read_text())
    bks = ["--bks", str(DATA_DIR / "bks.csv")]
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", "--dir", str(inst_dir), "--methods", "spt,random,prorl", "--seeds", "0",
                 "--budget", "50", "--csv", str(bench_csv)] + bks) == 0
    rows = []
    for argv in (["pdr", "--rule", "spt"], ["random", "--seed", "0"],
                 ["train", "--seed", "0", "--budget", "50"]):
        csv = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--instance", FT06, "--csv", str(csv)] + bks) == 0
        rows.append(csv.read_text().splitlines()[1])
    assert rows[0].startswith("ft06,SPT,88,")
    assert bench_csv.read_text().splitlines()[1:] == ["ft06,spt" + rows[0][len("ft06,SPT"):]] + rows[1:]


def test_eval_reproduces_training_makespan(tmp_path, capsys, tiny_path):
    out = tmp_path / "policy.json"
    main([
        "train", "--instance", tiny_path, "--budget", "6", "--out", str(out),
        "--set", "search.lambda=2", "--set", "bo.init_points=2",
        "--set", "bo.iterations=1", "--set", "bo.candidates=16",
    ])
    train_out = capsys.readouterr().out
    train_makespan = train_out.strip().splitlines()[-1].split()[2]
    assert main(["eval", "--instance", tiny_path, "--policy", str(out)]) == 0
    eval_out = capsys.readouterr().out
    assert eval_out.strip().splitlines()[-1].split()[2] == train_makespan


def test_eval_corrupt_policy_io_error(tmp_path, capsys, tiny_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--instance", tiny_path, "--policy", str(bad)]) == 3
    assert "invalid JSON" in capsys.readouterr().err


def test_eval_reads_a_policy_behind_a_byte_order_mark(tmp_path, capsys):
    # editors on Windows save UTF-8 with a BOM; instance and BKS files
    # already drop it
    rule = tmp_path / "rule.csv"
    assert main(["pdr", "--instance", FT06, "--rule", "mwr", "--csv", str(rule)]) == 0
    policy = tmp_path / "policy.json"
    policy.write_text('\ufeff{"kind": "action", "heuristic": "MWR"}', encoding="utf-8")
    out = tmp_path / "eval.csv"
    assert main(["eval", "--instance", FT06, "--policy", str(policy), "--csv", str(out)]) == 0
    # the one-leaf policy is the rule: same makespan, reported as prorl
    expected = rule.read_text().splitlines()[1].replace(",MWR,", ",prorl,")
    assert out.read_text().splitlines()[1] == expected


SPT_LEAF = '{"kind": "action", "heuristic": "SPT"}'
LEAVES = f'"then": {SPT_LEAF}, "else": {SPT_LEAF}'


def nested_policy(levels: int) -> str:
    doc = SPT_LEAF
    for _ in range(levels):
        doc = f'{{"kind": "if", "weights": [1, 0, 0, 0, 0, 0], "then": {doc}, "else": {SPT_LEAF}}}'
    return doc


@pytest.mark.parametrize("doc, fragment", [
    # deeper than json.loads can recurse: still a format error, not internal
    (nested_policy(1_200), "depth exceeds 4"),
    ('{"kind": "if", "weights": 3, ' + LEAVES + "}", "list of JSON numbers"),
    ('{"kind": "if", ' + LEAVES + "}", "list of JSON numbers"),
    # an integer past the float range: float() raises OverflowError
    ('{"kind": "if", "weights": [1' + "0" * 400 + ', 0, 0, 0, 0, 0], ' + LEAVES + "}", "outside [-2.0, 2.0]"),
    # a byte-order mark is dropped, so the document's own fault is reported
    ("\ufeff" + '{"kind": "if", "weights": 3, ' + LEAVES + "}", "list of JSON numbers"),
], ids=["nested-1200", "scalar-weights", "missing-weights", "huge-integer-weight", "bom-scalar-weights"])
def test_eval_malformed_policy_io_error(tmp_path, capsys, tiny_path, doc, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(doc, encoding="utf-8")
    assert main(["eval", "--instance", tiny_path, "--policy", str(bad)]) == 3
    err = capsys.readouterr().err
    assert fragment in err and "internal error" not in err


@pytest.mark.parametrize("doc, message", [
    ("[1]", "expected an object node, got list"),
    ('{"kind": "if", "weights": [1, 0, 0, 0, 0, 0], "then": ' + SPT_LEAF + "}",
     "if-node needs 'then' and 'else' branches"),
], ids=["list-document", "no-else"])
def test_eval_policy_missing_a_node_io_error(tmp_path, capsys, tiny_path, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    assert main(["eval", "--instance", tiny_path, "--policy", str(bad)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["pdr", "train"])
def test_instance_with_a_line_after_the_last_job_io_error(tmp_path, capsys, command):
    path = tmp_path / "long.txt"
    path.write_text(TINY_2X2 + "\n0 1 1 1\n")
    extra = ["--rule", "spt"] if command == "pdr" else ["--budget", "0"]
    assert main([command, "--instance", str(path)] + extra) == 3
    assert capsys.readouterr().err == "error: line 4: trailing content after last job line\n"


def test_bks_line_with_no_instance_name_io_error(tmp_path, capsys, tiny_path):
    bks = tmp_path / "bks.csv"
    bks.write_text(",5\n")
    assert main(["pdr", "--instance", tiny_path, "--rule", "spt", "--bks", str(bks)]) == 3
    assert capsys.readouterr().err == "error: line 1: empty instance name\n"


@pytest.mark.parametrize("pair, message", [
    ("bo.beta", "--set expects key=value, got 'bo.beta'"),
    ("bo.init_points=0", "bad acquisition/iteration settings"),
])
@pytest.mark.parametrize("command", ["train", "bench"])
def test_set_without_a_value_or_init_points_usage_error(tmp_path, capsys, pair, message, command):
    argv = _training_argv(tmp_path, command)
    assert main(argv + ["--set", pair]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_bench_table_and_csv(tmp_path, capsys, bks_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
    csv = tmp_path / "bench.csv"
    code = main([
        "bench", "--dir", str(inst_dir), "--methods", "fifo,spt,mor,mwr,lor",
        "--bks", bks_path, "--csv", str(csv),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mpdr" in out
    rows = csv.read_text().strip().splitlines()
    assert rows[0].startswith("instance,method")
    assert len(rows) == 1 + 5
    assert all(len(r.split(",")) == len(rows[0].split(",")) for r in rows)


def test_reports_print_large_makespans_in_full(tmp_path, capsys):
    # :g would round 1234567 to 1.23457e+06 in the table and the CSV
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    big = inst_dir / "big.txt"
    big.write_text("1 1\n0 1234567\n")
    pdr_csv, bench_csv = tmp_path / "pdr.csv", tmp_path / "bench.csv"
    assert main(["pdr", "--instance", str(big), "--rule", "spt", "--csv", str(pdr_csv)]) == 0
    assert pdr_csv.read_text().splitlines()[1] == "big,SPT,1234567,,,1"
    assert main(["bench", "--dir", str(inst_dir), "--methods", "spt", "--csv", str(bench_csv)]) == 0
    assert bench_csv.read_text().splitlines()[1] == "big,spt,1234567,,,1"
    table = capsys.readouterr().out
    assert table.count(" 1234567 ") == 2 and "e+06" not in table
    # a non-integral mean of the random agent prints every digit too
    mean = cli.RunReport("big", "random", 1234567.5, None, 0, 0.0, 2)
    assert mean.csv_row() == "big,random,1234567.5,,0,2"


def test_a_mean_makespan_past_a_million_prints_every_digit(tmp_path, capsys, ft06):
    # ft06 with every duration times 20011: two random episodes average
    # 1230676.5, which :g printed as 1.23068e+06
    scaled = tmp_path / "big06.txt"
    rows = [" ".join(f"{op.machine} {op.duration * 20011}" for op in job) for job in ft06.jobs]
    scaled.write_text(f"{ft06.num_jobs} {ft06.num_machines}\n" + "\n".join(rows) + "\n")
    out_csv = tmp_path / "random.csv"
    assert main(["random", "--instance", str(scaled), "--seed", "0", "--episodes", "2",
                 "--csv", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines()[1] == "big06,random,1230676.5,,0,2"
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[:3] == ["big06", "random", "1230676.5"]
    # below 10**6 and at integral values the short form stays
    for makespan, text in [(999999.25, "999999"), (12345.67, "12345.7"), (1230676.0, "1230676"),
                           (65.5, "65.5"), (2**60, str(2**60))]:
        assert cli.RunReport("x", "random", makespan, None, 0, 0.0, 2).csv_row() == f"x,random,{text},,0,2"


def test_csv_quotes_an_instance_name_holding_a_comma(tmp_path, capsys):
    # the name stays one field; a BKS table cannot name it, so it has no gap
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    path = inst_dir / "a,b.txt"
    path.write_text(Path(FT06).read_text())
    pdr_csv, bench_csv = tmp_path / "pdr.csv", tmp_path / "bench.csv"
    assert main(["pdr", "--instance", str(path), "--rule", "spt", "--csv", str(pdr_csv)]) == 0
    assert main(["bench", "--dir", str(inst_dir), "--methods", "spt", "--csv", str(bench_csv)]) == 0
    for written, method in ((pdr_csv, "SPT"), (bench_csv, "spt")):
        with open(written, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [cli.RunReport.CSV_HEADER.split(","), ["a,b", method, "88", "", "", "1"]]


def test_bench_deterministic_csv(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = [
        "bench", "--dir", str(inst_dir), "--methods", "prorl,random",
        "--seeds", "0,1", "--budget", "6",
        "--set", "search.lambda=2", "--set", "bo.init_points=2",
        "--set", "bo.iterations=1", "--set", "bo.candidates=16",
    ]
    assert main(base + ["--csv", str(a)]) == 0
    assert main(base + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag,value", [
    ("--seeds", "a"),
    ("--seeds", "0,,1"),
    ("--seeds", ""),
    ("--methods", ","),
    ("--methods", "spt,,random"),
    ("--seeds", "0,0"),
    ("--seeds", "1,01"),
    ("--methods", "spt,SPT"),
    ("--methods", "random,prorl,random"),
    ("--seeds", "1_0,\uff12"),  # int() reads them as 10 and 2
    ("--seeds", "0,1_0"),
])
def test_bench_bad_seeds_or_methods_is_usage_error(tmp_path, capsys, monkeypatch, flag, value):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
    ran = []
    monkeypatch.setattr(cli, "_bench_single", lambda *task: ran.append(task))
    assert main(["bench", "--dir", str(inst_dir), "--methods", "spt,random", flag, value]) == 2
    assert "usage error" in capsys.readouterr().err
    assert ran == []  # rejected before any task runs


def test_bench_empty_dir_usage_error(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", "--dir", str(empty)]) == 2


@pytest.mark.parametrize("make", ["missing", "file"])
def test_bench_dir_that_is_no_directory_is_io_error(tmp_path, capsys, make):
    # like a missing --instance or --policy: exit 3, not "no instance files"
    target = tmp_path / "instances"
    if make == "file":
        target.write_text(TINY_2X2 + "\n")
    assert main(["bench", "--dir", str(target), "--methods", "spt"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not a directory" in err


def test_bench_rejects_two_files_that_name_one_instance(tmp_path, capsys, monkeypatch):
    # an instance is named by its file's stem: ft06.dat, a copy of ft10,
    # would take ft06's best-known makespan, and the summary would print
    # two ft06 lines that average both instances
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "ft06.txt").write_text(Path(FT06).read_text())
    (inst_dir / "ft06.dat").write_text((INSTANCE_DIR / "ft10.txt").read_text())
    ran = []
    monkeypatch.setattr(cli, "_bench_single", lambda *task: ran.append(task))
    assert main(["bench", "--dir", str(inst_dir), "--methods", "spt",
                 "--bks", str(DATA_DIR / "bks.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "ft06.dat and ft06.txt" in err
    assert ran == []  # rejected before any task runs


def test_bench_skips_bad_instance_nonzero_exit(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
    (inst_dir / "broken.txt").write_text("2 2\n0 x\n")
    code = main(["bench", "--dir", str(inst_dir), "--methods", "spt"])
    assert code == 3
    captured = capsys.readouterr()
    assert "FAILED broken" in captured.err
    assert "tiny" in captured.out  # good instance still ran


_real_bench_single = cli._bench_single


def _bench_single_failing_prorl_s1(instance, method, seed, *rest):
    # module-level, so a pool worker can unpickle it by name
    if (method, seed) == ("prorl", 1):
        raise RuntimeError(f"task raised in process {os.getpid()}")
    return _real_bench_single(instance, method, seed, *rest)


def test_bench_pool_matches_in_process_tasks(tmp_path, capsys, monkeypatch, bks_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "tiny.txt").write_text(TINY_2X2 + "\n")
    sets = ["search.lambda=2", "bo.init_points=2", "bo.iterations=1", "bo.candidates=16"]
    argv = [
        "bench", "--dir", str(inst_dir), "--methods", "fifo,spt,random,prorl",
        "--seeds", "0,1", "--budget", "6", "--bks", bks_path,
    ] + [arg for pair in sets for arg in ("--set", pair)]
    tasks = [("fifo", 0), ("spt", 0), ("random", 0), ("random", 1), ("prorl", 0), ("prorl", 1)]
    instance = load_instance_file(str(inst_dir / "tiny.txt"), "standard")
    table = cli._load_bks_table(bks_path)
    config = cli._search_config(6, 0, sets)
    reports = [_real_bench_single(instance, method, seed, config, table) for method, seed in tasks]
    expected = [report.csv_row() for report in reports]

    def untimed(row: str) -> list[str]:
        return row.split()[:5] + row.split()[6:]  # the time column varies

    csv = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(argv + ["--csv", str(csv)]) == 0
    assert csv.read_text().splitlines() == [cli.RunReport.CSV_HEADER] + expected
    rows = capsys.readouterr().out.splitlines()[1:len(tasks) + 1]
    assert [untimed(r) for r in rows] == [untimed(r.table_row()) for r in reports]

    # one task raises in its worker: it is reported, every other row still prints in order
    monkeypatch.setattr(cli, "_bench_single", _bench_single_failing_prorl_s1)
    assert main(argv + ["--csv", str(csv)]) == 4
    captured = capsys.readouterr()
    failed = [line for line in captured.err.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 1 and failed[0].startswith("FAILED tiny/prorl/s1: task raised in process ")
    assert int(failed[0].rsplit(" ", 1)[1]) != os.getpid()
    assert csv.read_text().splitlines() == [cli.RunReport.CSV_HEADER] + expected[:-1]
    rows = captured.out.splitlines()[1:len(tasks)]
    assert [untimed(r) for r in rows] == [untimed(r.table_row()) for r in reports[:-1]]
    assert captured.out.splitlines()[len(tasks)] == ""  # then the summary table


def test_bench_with_nothing_to_run_starts_no_pool(tmp_path, capsys, monkeypatch):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "broken.txt").write_text("2 2\n0 x\n")
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *a, **k: pools.append(k))
    assert main(["bench", "--dir", str(inst_dir), "--methods", "spt,prorl"]) == 3
    assert "FAILED broken.txt" in capsys.readouterr().err
    assert pools == []


@pytest.mark.parametrize("fmt, text, line", [
    ("standard", "2 2\n0 3 1 2\n1 2 0 1_0\n", 3),
    ("standard", "2 2\n0 3 1 2\n1 2 0 \uff15\n", 3),  # a fullwidth 5
    ("taillard", "2 2\n3 2\n2 1_0\n1 2\n2 1\n", 3),
    ("taillard", "2 2\n3 2\n2 4\n1 2\n\uff12 1\n", 5),
])
def test_an_instance_integer_is_ascii_digits(tmp_path, capsys, fmt, text, line):
    # int() alone reads 1_0 as 10 and a fullwidth digit as its value
    path = tmp_path / "odd.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["pdr", "--instance", str(path), "--format", fmt, "--rule", "spt"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"line {line}: invalid integer" in err


@pytest.mark.parametrize("makespan", ["5_5", "\uff15\uff15"])
def test_a_bks_makespan_is_ascii_digits(tmp_path, capsys, makespan):
    bks = tmp_path / "bks.csv"
    bks.write_text(f"ft10,930\nft06,{makespan}\n", encoding="utf-8")
    assert main(["pdr", "--instance", FT06, "--rule", "spt", "--bks", str(bks)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"line 2: invalid makespan {makespan!r}" in err


HUGE_DURATION = 10**400


@pytest.mark.parametrize("command", ["pdr", "train", "eval"])
def test_an_instance_past_2_53_of_work_is_rejected_at_load(tmp_path, capsys, command):
    # each command takes a float of the makespan: pdr's table, the BO's
    # -float(makespan) in train, and the BKS gap in eval (of a file that the
    # BKS table names); the bound keeps all three exact and finite
    if command == "eval":
        path = tmp_path / "ft06.txt"
        path.write_text(f"2 2\n3 2\n2 {HUGE_DURATION}\n1 2\n2 1\n")
        policy = tmp_path / "policy.json"
        policy.write_text('{"kind": "action", "heuristic": "MWR"}')
        argv = ["eval", "--instance", str(path), "--format", "taillard", "--policy", str(policy),
                "--bks", str(DATA_DIR / "bks.csv")]
    else:
        path = tmp_path / "huge.txt"
        path.write_text(f"2 2\n0 3 1 2\n1 {HUGE_DURATION} 0 4\n")
        argv = [command, "--instance", str(path)]
        argv += ["--rule", "spt"] if command == "pdr" else ["--budget", "5"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""  # no partial table
    assert "line 3: total work exceeds 2**53" in err


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv", [
    ["pdr", "--instance", "ft06.txt", "--rule", "spt", "--trace", "ft06.txt"],
    ["train", "--instance", "ft06.txt", "--budget", "5", "--out", "p.json", "--log", "p.json"],
    ["pdr", "--instance", "ft06.txt", "--rule", "spt", "--bks", "b.csv", "--csv", "b.csv"],
    ["eval", "--instance", "ft06.txt", "--policy", "p.json", "--csv", "p.json"],
    ["bench", "--dir", "d", "--csv", "d/ft06.txt"],
    ["bench", "--dir", "d", "--csv", "./d/../d/new.csv"],  # a new file there is read as an instance
    ["bench", "--dir", "d", "--csv", "d/"],
    ["pdr", "--instance", "./ft06.txt", "--rule", "spt", "--dump-schedule", "d/../ft06.txt"],
    ["pdr", "--instance", "ft06.txt", "--rule", "spt", "--csv", ""],
    ["pdr", "--instance", "ft06.txt", "--rule", "spt", "--trace", ""],
    ["eval", "--instance", "ft06.txt", "--policy", ""],
    ["bench", "--dir", ""],
    ["bench", "--dir", "d", "--bks", "d/b.csv", "--methods", "spt"],  # b.csv read as an instance
])
def test_an_output_path_cannot_overwrite_an_input(tmp_path, capsys, monkeypatch, argv):
    # each of these once exited 0, replacing the instance, BKS table, policy
    # or log with a report, or skipped an empty path without a word; a bench
    # --bks in --dir ran every task and exited 3 on the table read as an instance
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ft06.txt").write_text(Path(FT06).read_text())
    (tmp_path / "b.csv").write_text("ft06,55\n")
    (tmp_path / "p.json").write_text('{"kind": "action", "heuristic": "MWR"}')
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "ft06.txt").write_text(Path(FT06).read_text())
    (tmp_path / "d" / "b.csv").write_text("ft06,55\n")
    before = _snapshot(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage error" in err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["random", "--seed", "\uff17"],  # a fullwidth 7
    ["random", "--episodes", "1_0"],
    ["random", "--seed", " 7"],
    ["train", "--budget", "1_0"],
    ["train", "--budget", "5", "--seed", "\uff17"],
    ["bench", "--budget", "1_0", "--methods", "prorl"],
])
def test_a_flag_integer_is_ascii_digits(tmp_path, capsys, argv):
    # int() reads 1_0 as 10 and a fullwidth digit as its value, which
    # instance and BKS files refuse; so do the flags
    (tmp_path / "ft06.txt").write_text(Path(FT06).read_text())
    where = ["--dir", str(tmp_path)] if argv[0] == "bench" else ["--instance", str(tmp_path / "ft06.txt")]
    before = _snapshot(tmp_path)
    assert main(argv[:1] + where + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid integer value" in err
    assert _snapshot(tmp_path) == before


def test_bench_takes_spaced_seeds_and_a_csv_below_its_dir(tmp_path, capsys):
    # spaces around a --seeds entry pass, and bench reads the files of
    # --dir, not those of its subdirectories, so a report may go there
    (tmp_path / "ft06.txt").write_text(Path(FT06).read_text())
    csv_path = tmp_path / "out" / "r.csv"
    csv_path.parent.mkdir()
    argv = ["bench", "--dir", str(tmp_path), "--methods", "random", "--csv", str(csv_path)]
    assert main(argv + ["--seeds", " 3 , -1"]) == 0
    assert [row["seed"] for row in csv.DictReader(csv_path.open())] == ["3", "-1"]
    capsys.readouterr()
