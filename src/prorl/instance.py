"""Parsing of benchmark job-shop instances and best-known-solution tables.

Two on-disk formats are supported: the OR-Library "standard" format
(n m header, then one line per job of (machine, duration) pairs with
0-based machines) and Taillard's native format (n m header, an n x m
duration matrix, then an n x m machine matrix with 1-based machines).
The two are ambiguous to sniff apart for square instances, so callers
pick the parser explicitly. Lines starting with '#' are comments, counted
in line numbers. Integers are ASCII digits with an optional sign (`int()`
alone would read `1_0` as 10 and a fullwidth digit as its value). Both
formats share one reader: `_rows` reads rows of integers and `_jobs`
checks each job's (machine, duration) pairs. A standard file is checked
job line by job line; a Taillard file is read in full first, then a bad
machine names its machines row and a bad duration its times row. Total
work is at most 2**53, so every makespan, and its `float`, is exact:
`Instance` refuses more, and the parsers refuse it first, naming the line
where the running total crosses the bound.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property

MAX_TOTAL_WORK = 2**53
_INTEGER = re.compile(r"[+-]?[0-9]+")


class ParseError(ValueError):
    """Malformed instance or BKS input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Operation:
    """One processing step of a job: a machine index and an integer duration."""

    machine: int
    duration: int


@dataclass(frozen=True)
class Instance:
    """An immutable job-shop problem of at least one job and one machine:
    jobs are ordered chains of operations, each job visiting a machine at
    most once, with total work at most MAX_TOTAL_WORK."""

    name: str
    num_jobs: int
    num_machines: int
    jobs: tuple[tuple[Operation, ...], ...]

    def __post_init__(self):
        if self.num_jobs < 1 or self.num_machines < 1:
            raise ValueError(f"{self.name}: bad dimensions {self.num_jobs}x{self.num_machines}")
        if self.num_jobs != len(self.jobs):
            raise ValueError(f"{self.name}: job count mismatch")
        work = 0
        for i, job in enumerate(self.jobs):
            seen = set()
            for op in job:
                if not 0 <= op.machine < self.num_machines:
                    raise ValueError(
                        f"{self.name}: job {i} uses machine {op.machine}, "
                        f"have {self.num_machines}"
                    )
                if op.duration < 1:
                    raise ValueError(f"{self.name}: job {i} has duration {op.duration}")
                if op.machine in seen:
                    raise ValueError(f"{self.name}: job {i} visits machine {op.machine} twice")
                seen.add(op.machine)
                work += op.duration
        if work > MAX_TOTAL_WORK:
            raise ValueError(f"{self.name}: total work exceeds 2**53")

    # Derived tables, cached on first use; the simulator reads them per decision.
    @cached_property
    def job_work(self) -> tuple[int, ...]:
        """Total processing time per job."""
        return tuple(sum(op.duration for op in job) for job in self.jobs)

    @cached_property
    def machine_loads(self) -> tuple[int, ...]:
        """Total processing time per machine."""
        loads = [0] * self.num_machines
        for job in self.jobs:
            for op in job:
                loads[op.machine] += op.duration
        return tuple(loads)

    @cached_property
    def durations(self) -> tuple[int, ...]:
        """Every operation's duration, sorted ascending; one entry per operation."""
        return tuple(sorted(op.duration for job in self.jobs for op in job))


def integer(text: str) -> int:
    """`text` as an integer: ASCII digits with an optional sign, the one
    syntax of every integer the program reads, in files and on its command
    line. int() alone also reads `1_0` and non-ASCII digits."""
    if _INTEGER.fullmatch(text):
        return int(text)
    raise ValueError(f"invalid integer {text!r}")


def _data_lines(text: str):
    """Yield (line_no, tokens) for non-blank, non-comment lines."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line.split()


def _ints(line_no: int, tokens: list[str]) -> list[int]:
    """The tokens as integers, each ASCII digits with an optional sign. int()
    also takes `1_0` and non-ASCII digits, so a line holding either is
    refused before it is converted."""
    joined = "".join(tokens)
    if joined.isascii() and "_" not in joined:
        try:
            return [int(tok) for tok in tokens]
        except ValueError:
            pass
    bad = next(tok for tok in tokens if not _INTEGER.fullmatch(tok))
    raise ParseError(line_no, f"invalid integer {bad!r}")


def _header(lines) -> tuple[int, int, int]:
    """Read the "n m" header line; returns (line_no, n, m)."""
    try:
        line_no, tokens = next(lines)
    except StopIteration:
        raise ParseError(0, "empty input") from None
    header = _ints(line_no, tokens)
    if len(header) != 2:
        raise ParseError(line_no, f"expected 'n m' header, got {len(header)} values")
    n, m = header
    if n < 1 or m < 1:
        raise ParseError(line_no, f"bad dimensions {n}x{m}")
    return line_no, n, m


def _rows(lines, count: int, width: int, label: str, line_no: int):
    """Lazily yield (line_no, values) for the next `count` lines, each of
    exactly `width` integers. Input that ends early is blamed on the last
    line read, `line_no` before the first row."""
    for got in range(count):
        try:
            line_no, tokens = next(lines)
        except StopIteration:
            raise ParseError(line_no, f"expected {count} {label} lines, got {got}") from None
        values = _ints(line_no, tokens)
        if len(values) != width:
            raise ParseError(line_no, f"{label} row: expected {width} values, got {len(values)}")
        yield line_no, values


def _jobs(rows, m: int, base: int) -> tuple[tuple[Operation, ...], ...]:
    """The jobs from `rows` of (machine_no, duration_no, pairs): each job's
    (machine, duration) pairs, machines numbered from `base` as the file
    numbers them, and the lines to blame for a bad machine and for a bad
    duration or the running total of work passing MAX_TOTAL_WORK."""
    jobs, work = [], 0
    for machine_no, duration_no, pairs in rows:
        ops, seen = [], set()
        for machine, duration in pairs:
            if not base <= machine < base + m:
                raise ParseError(
                    machine_no, f"machine index {machine} out of range {base}..{base + m - 1}"
                )
            if duration < 1:
                raise ParseError(duration_no, f"duration {duration} must be >= 1")
            if machine in seen:
                raise ParseError(machine_no, f"machine {machine} visited twice")
            seen.add(machine)
            ops.append(Operation(machine - base, duration))
            work += duration
        if work > MAX_TOTAL_WORK:
            raise ParseError(duration_no, "total work exceeds 2**53")
        jobs.append(tuple(ops))
    return tuple(jobs)


def parse_standard(text: str, name: str = "unnamed") -> Instance:
    """Parse the OR-Library standard format (0-based machine indices)."""
    lines = _data_lines(text)
    line_no, n, m = _header(lines)
    rows = _rows(lines, n, 2 * m, "job", line_no)
    jobs = _jobs(((no, no, zip(row[0::2], row[1::2])) for no, row in rows), m, 0)
    for line_no, _ in lines:
        raise ParseError(line_no, "trailing content after last job line")
    return Instance(name, n, m, jobs)


def parse_taillard(text: str, name: str = "unnamed") -> Instance:
    """Parse Taillard's native format (times matrix then 1-based machines matrix)."""
    lines = _data_lines(text)
    line_no, n, m = _header(lines)
    times = list(_rows(lines, n, m, "times", line_no))
    machines = list(_rows(lines, n, m, "machines", times[-1][0]))
    for line_no, _ in lines:
        raise ParseError(line_no, "trailing content after machines matrix")
    rows = zip(times, machines)
    jobs = _jobs(((m_no, t_no, zip(mrow, trow)) for (t_no, trow), (m_no, mrow) in rows), m, 1)
    return Instance(name, n, m, jobs)


def load_bks(text: str) -> dict[str, int]:
    """Parse a CSV of "name,makespan" lines into best-known makespans by
    instance name; a name with no entry raises KeyError, never a default."""
    entries: dict[str, int] = {}
    for line_no, tokens in _data_lines(text):
        parts = " ".join(tokens).split(",")
        if len(parts) != 2:
            raise ParseError(line_no, f"expected 'name,makespan', got {parts!r}")
        name = parts[0].strip()
        makespan_text = parts[1].strip()
        if not _INTEGER.fullmatch(makespan_text):
            raise ParseError(line_no, f"invalid makespan {makespan_text!r}")
        makespan = int(makespan_text)
        if not name:
            raise ParseError(line_no, "empty instance name")
        if makespan < 1:
            raise ParseError(line_no, f"makespan {makespan} must be >= 1")
        if name in entries:
            raise ParseError(line_no, f"duplicate entry for {name!r}")
        entries[name] = makespan
    return entries


def instance_name(path: str | os.PathLike) -> str:
    """The name of the instance a file holds: the file's name without its extension."""
    return os.path.splitext(os.path.basename(path))[0]


def load_instance_file(path: str, fmt: str) -> Instance:
    """Read an instance file in the given format ('standard' or 'taillard'),
    named by `instance_name`."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
        text = fh.read()
    name = instance_name(path)
    if fmt == "standard":
        return parse_standard(text, name)
    if fmt == "taillard":
        return parse_taillard(text, name)
    raise ValueError(f"unknown instance format {fmt!r}")
