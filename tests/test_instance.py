"""Instance and BKS parsing."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from conftest import INSTANCE_DIR, TINY_2X2, random_instance, to_standard, to_taillard
from prorl.instance import (
    Instance,
    Operation,
    ParseError,
    load_bks,
    load_instance_file,
    parse_standard,
    parse_taillard,
)


def test_parse_standard_2x2():
    inst = parse_standard(TINY_2X2, "tiny")
    assert inst.num_jobs == 2 and inst.num_machines == 2
    assert inst.jobs[0] == (Operation(0, 3), Operation(1, 2))
    assert inst.jobs[1] == (Operation(1, 2), Operation(0, 4))


def test_parse_standard_1x1():
    inst = parse_standard("1 1\n0 5")
    assert inst.jobs == ((Operation(0, 5),),)
    assert parse_standard("1 1\n+0 +5") == inst  # a sign is still an ASCII integer


def test_parse_standard_comments_skipped():
    inst = parse_standard("# a fixture\n2 2\n# job 0\n0 3 1 2\n1 2 0 4")
    assert inst.num_jobs == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2 2\n0 x 1 2\n1 2 0 4", "invalid integer"),
        ("2 2\n0 3 1 2\n1 2 0 +\u0663", "line 3: invalid integer '+\u0663'"),  # Arabic-Indic 3
        ("2 2\n0 3 1\n1 2 0 4", "expected 4 values"),
        ("2 2\n0 3 5 2\n1 2 0 4", "machine index 5"),
        ("2 2\n0 0 1 2\n1 2 0 4", "duration 0"),
        ("2 2\n0 3 0 2\n1 2 0 4", "line 2: machine 0 visited twice"),
        ("2 2\n0 3 1 2", "expected 2 job lines"),
        ("2 2\n0 3 5 2\n1 2 0", "line 2: machine index 5"),  # checked before line 3 is read
        ("", "empty input"),
    ],
)
def test_parse_standard_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_standard(text)
    assert fragment in str(err.value)


def test_total_work_is_bounded_by_2_53():
    # every makespan up to the bound is an exact float; the error names the
    # line whose job takes the running total past it
    edge = parse_standard(f"2 1\n0 {2**52}\n0 {2**52}")
    assert sum(op.duration for job in edge.jobs for op in job) == 2**53
    with pytest.raises(ParseError, match="total work exceeds 2") as err:
        parse_standard(f"3 1\n0 1\n0 {2**52}\n0 {2**52}")
    assert err.value.line_no == 4
    with pytest.raises(ParseError, match="total work exceeds 2") as err:
        parse_taillard(f"2 1\n{2**52}\n{2**52 + 1}\n1\n1")
    assert err.value.line_no == 3


def test_instance_refuses_total_work_past_2_53():
    # an Instance built in code, not parsed, meets the same bound
    with pytest.raises(ValueError, match="x: total work exceeds 2"):
        Instance("x", 2, 2, ((Operation(0, 3), Operation(1, 2)), (Operation(1, 10**400), Operation(0, 4))))
    with pytest.raises(ValueError, match="total work exceeds 2"):
        Instance("over", 2, 1, ((Operation(0, 2**52),), (Operation(0, 2**52 + 1),)))
    edge = Instance("edge", 2, 1, ((Operation(0, 2**52),), (Operation(0, 2**52),)))
    assert sum(edge.durations) == 2**53


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_standard("2 2\n0 3 1 2\n1 2 0 zzz")
    assert err.value.line_no == 3


def test_parse_taillard_matches_standard():
    taillard = "2 2\n3 2\n2 4\n1 2\n2 1"
    assert parse_taillard(taillard, "tiny") == parse_standard(TINY_2X2, "tiny")


def test_make_taillard_regenerates_ta01_byte_for_byte():
    script = INSTANCE_DIR.parent.parent / "scripts" / "make_taillard.py"
    out = subprocess.run(
        [sys.executable, str(script), "ta01"], capture_output=True, check=True
    ).stdout
    assert out == (INSTANCE_DIR / "ta01.txt").read_bytes()


def test_parse_taillard_rejects_zero_machine():
    with pytest.raises(ParseError) as err:
        parse_taillard("2 2\n3 2\n2 4\n0 2\n2 1")
    assert "machine index 0" in str(err.value)


def test_parse_taillard_dimension_error():
    with pytest.raises(ParseError) as err:
        parse_taillard("2 2\n3 2 9\n2 4\n1 2\n2 1")
    assert "times row" in str(err.value)


@pytest.mark.parametrize("text, line_no, fragment", [
    ("2 2\n5 0\n3 4\n1 2\n2 1", 2, "duration 0"),  # a times row
    ("2 2\n5 3\n3 4\n9 2\n2 1", 4, "machine index 9"),  # a machines row
    ("# comment\n2 2\n3 2\n2 4\n0 2\n2 1", 5, "machine index 0"),  # lines count comments
    ("2 2\n3 2\n2 4\n1 1\n2 1", 4, "machine 1 visited twice"),  # as the file numbers it
    ("2 2\n5 0\n3 4\n1 2\n2", 5, "machines row"),  # both matrices are read before any value
], ids=["times-row", "machines-row", "leading-comment", "repeated-machine", "short-row-first"])
def test_parse_taillard_names_the_line_of_the_bad_value(text, line_no, fragment):
    with pytest.raises(ParseError) as err:
        parse_taillard(text)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


def test_parse_taillard_missing_matrix_rows():
    with pytest.raises(ParseError):
        parse_taillard("2 2\n3 2\n2 4\n1 2")


def test_ta01_file_loads_as_15x15():
    inst = load_instance_file(str(INSTANCE_DIR / "ta01.txt"), "taillard")
    assert inst.num_jobs == 15 and inst.num_machines == 15
    assert len(inst.durations) == 225


def test_ft06_file_has_36_ops_all_machines():
    inst = load_instance_file(str(INSTANCE_DIR / "ft06.txt"), "standard")
    assert len(inst.durations) == 36
    for job in inst.jobs:
        assert sorted(op.machine for op in job) == list(range(6))
    with pytest.raises(ValueError, match="unknown instance format 'bogus'"):
        load_instance_file(str(INSTANCE_DIR / "ft06.txt"), "bogus")


@pytest.mark.parametrize("fmt, text", [
    ("standard", TINY_2X2),
    ("taillard", "2 2\n3 2\n2 4\n1 2\n2 1"),
], ids=["standard", "taillard"])
def test_load_instance_file_drops_a_byte_order_mark(tmp_path, fmt, text):
    path = tmp_path / "marked.txt"
    path.write_text("\ufeff# with a BOM\n" + text, encoding="utf-8")
    parse = parse_standard if fmt == "standard" else parse_taillard
    assert load_instance_file(str(path), fmt) == parse(text, "marked")


def test_round_trip_standard():
    # the standard format fixes 2m values per job line, so only instances
    # where every job visits every machine are representable
    rng = random.Random(7)
    for _ in range(200):
        inst = random_instance(rng, square=True)
        again = parse_standard(to_standard(inst), inst.name)
        assert again == inst


def test_round_trip_taillard_square():
    rng = random.Random(8)
    for _ in range(200):
        inst = random_instance(rng, square=True)
        again = parse_taillard(to_taillard(inst), inst.name)
        assert again == inst


def test_formats_agree_on_same_problem():
    rng = random.Random(9)
    for _ in range(100):
        inst = random_instance(rng, square=True)
        assert parse_taillard(to_taillard(inst), inst.name) == parse_standard(
            to_standard(inst), inst.name
        )


def test_derived_tables_2x2():
    # J0 = (M0,3)(M1,2), J1 = (M1,2)(M0,4)
    inst = parse_standard(TINY_2X2, "tiny")
    assert inst.job_work == (5, 6)
    assert inst.machine_loads == (7, 4)
    assert inst.durations == (2, 2, 3, 4)
    # and on random instances, against per-job and per-machine sums
    rng = random.Random(185)
    for _ in range(100):
        inst = random_instance(rng, max_jobs=6, max_machines=6)
        ops = [op for job in inst.jobs for op in job]
        assert inst.job_work == tuple(sum(op.duration for op in job) for job in inst.jobs)
        assert inst.machine_loads == tuple(sum(op.duration for op in ops if op.machine == m)
                                           for m in range(inst.num_machines))
        assert inst.durations == tuple(sorted(op.duration for op in ops))


def test_instance_refuses_empty_dimensions():
    # as the header's check does; simulating or training on one would fail late
    with pytest.raises(ValueError, match="z: bad dimensions 0x0"):
        Instance("z", 0, 0, ())
    with pytest.raises(ValueError, match="bad dimensions 1x0"):
        Instance("z", 1, 0, ((),))


def test_parse_standard_refuses_a_line_after_the_last_job():
    with pytest.raises(ParseError, match=r"^line 4: trailing content after last job line$"):
        parse_standard(TINY_2X2 + "\n0 1 1 1\n")


@pytest.mark.parametrize("jobs, message", [
    (((Operation(0, 1),),), "z: job count mismatch"),  # two jobs declared, one given
    (((Operation(0, 1),), (Operation(2, 1),)), "z: job 1 uses machine 2, have 2"),
    (((Operation(0, 1),), (Operation(1, 0),)), "z: job 1 has duration 0"),
])
def test_instance_built_in_code_is_checked(jobs, message):
    # the parsers refuse these with a line number first, so only an
    # Instance built in code reaches its own checks
    with pytest.raises(ValueError, match=f"^{message}$"):
        Instance("z", 2, 2, jobs)


def test_instance_rejects_repeated_machine_visit():
    with pytest.raises(ValueError, match="twice"):
        Instance("bad", 1, 2, ((Operation(0, 1), Operation(0, 2)),))


def test_load_bks():
    table = load_bks("ta21,1642\nft06,55\n")
    assert table == {"ta21": 1642, "ft06": 55}
    assert "nope" not in table
    with pytest.raises(KeyError):
        table["nope"]


def test_load_bks_refuses_an_empty_instance_name():
    with pytest.raises(ParseError, match=r"^line 1: empty instance name$"):
        load_bks(",5")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x,0", "makespan 0"),
        ("x,1\nx,2", "duplicate"),
        ("x,abc", "invalid makespan"),
        ("justname", "expected"),
    ],
)
def test_load_bks_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        load_bks(text)
    assert fragment in str(err.value)
