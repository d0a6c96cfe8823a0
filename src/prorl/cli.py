"""Command-line front end: train, evaluate, and benchmark dispatching policies.

Commands
    pdr     run one dispatching rule on one instance
    random  run the uniform-random rule-picking agent
    train   learn a policy on one instance and write it to a file
    eval    evaluate a saved policy file on an instance
    bench   sweep a directory of instances with several methods

`bench` runs each (instance, method, seed) task in a process pool with one
worker per CPU this process may use, capped at the number of tasks; results
are reported in task order, so its output matches a run one task at a time.
Every other command runs in one process.

Exit codes: 0 success, 2 usage error, 3 I/O or parse error, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import os
import random
import sys
import time
from pathlib import Path

from . import bo, dsl, pdr, search, sim
from .instance import Instance, instance_name, integer, load_bks, load_instance_file

USAGE_ERROR = 2
IO_ERROR = 3
INTERNAL_ERROR = 4

PDR_METHODS = tuple(h.value.lower() for h in pdr.HEURISTICS)


class UsageError(ValueError):
    pass


@dataclasses.dataclass
class RunReport:
    instance: str
    method: str
    makespan: float
    gap: float | None
    seed: int | None
    seconds: float
    episodes: int

    # wall-clock stays out of the CSV so identical invocations produce
    # byte-identical files; the table output still shows it
    CSV_HEADER = "instance,method,makespan,gap_percent,seed,episodes"

    def _makespan_text(self) -> str:
        # :g would print 1234567 as 1.23457e+06; repr prints every digit of a
        # mean from 10**6 to 2**52, past which every float is integral
        if float(self.makespan).is_integer():
            return str(int(self.makespan))
        return f"{self.makespan:g}" if self.makespan < 10**6 else repr(float(self.makespan))

    def csv_row(self) -> str:
        """One CSV line, without its newline; the csv module quotes a name as needed."""
        gap = f"{100 * self.gap:.2f}" if self.gap is not None else ""
        seed = "" if self.seed is None else str(self.seed)
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow(
            [self.instance, self.method, self._makespan_text(), gap, seed, self.episodes])
        return line.getvalue()[:-1]

    def table_row(self) -> str:
        gap = f"{100 * self.gap:.2f}%" if self.gap is not None else "-"
        seed = "-" if self.seed is None else str(self.seed)
        return (
            f"{self.instance:<12} {self.method:<8} {self._makespan_text():>10} "
            f"{gap:>8} {seed:>4} {self.seconds:>8.3f}s {self.episodes:>8}"
        )

    @staticmethod
    def table_header() -> str:
        return (
            f"{'instance':<12} {'method':<8} {'makespan':>10} "
            f"{'gap':>8} {'seed':>4} {'time':>9} {'episodes':>8}"
        )


def _load_bks_table(path: str | None) -> dict[str, int] | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not part of a name
        return load_bks(fh.read())


def _report(instance: Instance, method: str, makespan: float, table: dict[str, int] | None,
            seed: int | None, started: float, episodes: int = 1) -> RunReport:
    """The report of a run that began at `started`: its gap to the instance's
    best-known makespan, if `table` has one, and its time up to now."""
    bks = table.get(instance.name) if table else None
    gap = None if bks is None else (makespan - bks) / bks
    elapsed = time.perf_counter() - started
    return RunReport(instance.name, method, makespan, gap, seed, elapsed, episodes)


def _write(path: str, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")


def _emit_reports(reports: list[RunReport], csv_path: str | None) -> None:
    print(RunReport.table_header())
    for report in reports:
        print(report.table_row())
    if csv_path:
        rows = [RunReport.CSV_HEADER] + [report.csv_row() for report in reports]
        _write(csv_path, "\n".join(rows) + "\n")


def _run_policy(args, policy: sim.Policy, method: str) -> int:
    """One episode of `policy` on --instance: report it, then write the dumps."""
    instance = load_instance_file(args.instance, args.format)
    table = _load_bks_table(args.bks)
    started = time.perf_counter()
    result = sim.run_episode(instance, policy)
    _emit_reports([_report(instance, method, result.makespan, table, None, started)], args.csv)
    if args.trace:
        _write(args.trace, sim.trace_csv(result))
    if args.dump_schedule:
        _write(args.dump_schedule, sim.schedule_csv(result, instance))
    return 0


def cmd_pdr(args) -> int:
    rule = pdr.Heuristic.parse(args.rule)
    return _run_policy(args, lambda cv: rule, rule.value)


def _random_agent(instance: Instance, seed: int, episodes: int,
                  table: dict[str, int] | None) -> RunReport:
    """The mean makespan of `episodes` random-agent episodes drawn from one
    `random.Random(seed)` stream."""
    rng = random.Random(seed)
    started = time.perf_counter()
    total = 0
    for _ in range(episodes):
        total += sim.run_episode(instance, pdr.random_rule_policy(rng)).makespan
    return _report(instance, "random", total / episodes, table, seed, started, episodes)


def cmd_random(args) -> int:
    if args.episodes < 1:
        raise UsageError("--episodes must be >= 1")
    instance = load_instance_file(args.instance, args.format)
    report = _random_agent(instance, args.seed, args.episodes, _load_bks_table(args.bks))
    _emit_reports([report], args.csv)
    return 0


_SEARCH_KEYS = {"lambda": "lam", "mutation_rate": "mutation_rate", "max_depth": "max_depth"}


def _search_config(budget: int, seed: int, set_pairs: list[str] | None) -> search.SearchConfig:
    """The training configuration: defaults, then the --set key=value pairs in order."""
    if budget < 0:
        raise UsageError("--budget must be >= 0")
    defaults = search.SearchConfig(episode_budget=budget, seed=seed)
    bo_fields = {f.name for f in dataclasses.fields(bo.BoConfig)}
    bo_changes: dict[str, float] = {}
    search_changes: dict[str, float] = {}
    for pair in set_pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        section, _, name = key.partition(".")
        if section == "bo" and name in bo_fields:
            changes, default = bo_changes, getattr(defaults.bo, name)
        elif section == "search" and name in _SEARCH_KEYS:
            name = _SEARCH_KEYS[name]
            changes, default = search_changes, getattr(defaults, name)
        elif key.startswith(("bo.", "search.")):
            raise UsageError(f"unknown config key {key!r}")
        else:
            raise UsageError(f"unknown config key {key!r} (use bo.* or search.*)")
        try:
            if "_" in raw or not raw.isascii():  # float() reads 1_0 and fullwidth digits
                raise ValueError
            value = float(raw)
        except ValueError:
            raise UsageError(f"invalid value {raw!r} for {key}") from None
        if isinstance(default, int):
            if not value.is_integer():  # also false for NaN and infinities
                raise UsageError(f"{key} needs an integer, got {raw!r}")
            value = int(value)
        changes[name] = value
    try:
        return dataclasses.replace(defaults, bo=bo.BoConfig(**bo_changes), **search_changes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _training(instance: Instance, config: search.SearchConfig,
              table: dict[str, int] | None) -> tuple[RunReport, dsl.Program, search.SearchState]:
    """Train on `config` and evaluate the learned program once; the report
    times both."""
    started = time.perf_counter()
    program, state = search.train(instance, config)
    makespan = search.evaluate_policy(program, instance)
    report = _report(instance, "prorl", makespan, table, config.seed, started, state.episodes_used)
    return report, program, state


def cmd_train(args) -> int:
    config = _search_config(args.budget, args.seed, args.set)
    instance = load_instance_file(args.instance, args.format)
    report, program, state = _training(instance, config, _load_bks_table(args.bks))
    if args.out:
        _write(args.out, dsl.serialize(program))
    if args.log:
        _write(args.log, search.training_log_csv(state))
    print(dsl.pretty_print(program))
    print()
    _emit_reports([report], args.csv)
    return 0


def cmd_eval(args) -> int:
    with open(args.policy, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
        program = dsl.deserialize(fh.read())
    return _run_policy(args, dsl.make_policy(program), "prorl")


def _bench_single(instance: Instance, method: str, seed: int,
                  config: search.SearchConfig, table: dict[str, int] | None) -> RunReport:
    """One bench task, run by the function its own command runs; it runs in
    a pool worker, so it and its arguments must pickle. `config` is the
    validated training configuration; a prorl task trains on it with its own
    seed."""
    if method == "random":
        return _random_agent(instance, seed, 1, table)
    if method == "prorl":
        return _training(instance, dataclasses.replace(config, seed=seed), table)[0]
    started = time.perf_counter()  # a rule; cmd_bench has rejected unknown methods
    makespan = sim.run_pdr(instance, pdr.Heuristic.parse(method)).makespan
    return _report(instance, method, makespan, table, None, started)


def cmd_bench(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():  # an I/O error, like a missing --instance
        error = NotADirectoryError if directory.exists() else FileNotFoundError
        raise error(f"--dir {args.dir!r} is not a directory")
    paths = sorted(p for p in directory.glob("*") if p.is_file())
    if not paths:
        raise UsageError(f"no instance files in {args.dir!r}")
    named: dict[str, str] = {}
    for path in paths:
        name = instance_name(path)
        if name in named:
            raise UsageError(f"{named[name]} and {path.name} in --dir both name instance {name!r}")
        named[name] = path.name
    methods = [m.strip().lower() for m in args.methods.split(",")]
    for m in methods:
        if m not in PDR_METHODS + ("random", "prorl"):
            raise UsageError(f"unknown method {m!r} in --methods {args.methods!r}")
    try:
        seeds = [integer(s.strip()) for s in args.seeds.split(",")]
    except ValueError:
        raise UsageError(f"--seeds expects comma-separated integers, got {args.seeds!r}") from None
    for flag, raw, values in (("--methods", args.methods, methods), ("--seeds", args.seeds, seeds)):
        if len(set(values)) < len(values):  # a repeat reruns identical work
            raise UsageError(f"{flag} names an entry twice: {raw!r}")
    # a bad budget or --set is rejected before any task runs, prorl or not
    config = _search_config(args.budget, seeds[0], args.set)
    table = _load_bks_table(args.bks)

    instances = []
    failures: list[tuple[str, str, int]] = []
    for path in paths:
        try:
            instances.append(load_instance_file(str(path), args.format))
        except Exception as exc:  # reported, then skipped
            failures.append((path.name, str(exc), IO_ERROR))

    tasks = [
        (instance, method, seed)
        for instance in instances
        for method in methods
        for seed in (seeds if method in ("prorl", "random") else seeds[:1])
    ]
    reports = []
    if tasks:  # a pool needs at least one worker
        from concurrent.futures import ProcessPoolExecutor  # kept out of `import prorl.cli`

        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(cpus, len(tasks))) as pool:
            futures = [
                pool.submit(_bench_single, instance, method, seed, config, table)
                for instance, method, seed in tasks
            ]
            for (instance, method, seed), future in zip(tasks, futures):
                try:
                    reports.append(future.result())
                except Exception as exc:
                    failures.append((f"{instance.name}/{method}/s{seed}", str(exc), INTERNAL_ERROR))

    _emit_reports(reports, args.csv)

    # per-instance mean gaps by method, plus mPDR when all five rules ran
    print()
    have_all_pdrs = all(m in methods for m in PDR_METHODS)
    columns = methods + (["mpdr"] if have_all_pdrs else [])
    print(f"{'instance':<12} " + " ".join(f"{c:>8}" for c in columns))
    for instance in instances:
        cells = []
        by_method: dict[str, list[float]] = {}
        for report in reports:
            if report.instance == instance.name and report.gap is not None:
                by_method.setdefault(report.method, []).append(report.gap)
        for method in methods:
            gaps = by_method.get(method)
            cells.append(f"{100 * sum(gaps) / len(gaps):>7.2f}%" if gaps else f"{'-':>8}")
        if have_all_pdrs:
            pdr_gaps = [sum(by_method[m]) / len(by_method[m]) for m in PDR_METHODS if m in by_method]
            cells.append(f"{100 * min(pdr_gaps):>7.2f}%" if pdr_gaps else f"{'-':>8}")
        print(f"{instance.name:<12} " + " ".join(cells))

    if failures:
        for name, message, _ in failures:
            print(f"FAILED {name}: {message}", file=sys.stderr)
        return max(code for _, _, code in failures)
    return 0


# the flags that name a file, or for bench's --dir a directory
_PATH_FLAGS = ("instance", "bks", "policy", "dir", "csv", "trace", "dump_schedule", "out", "log")


def _check_paths(args) -> None:
    """Refuse an empty path, two path flags that resolve to one path, and
    a bench --bks or --csv among the files of --dir, each of which bench
    reads as an instance; before the command reads or writes anything."""
    named: dict[str, str] = {}
    for name in _PATH_FLAGS:
        path = getattr(args, name, None)
        if path is None:
            continue
        flag = "--" + name.replace("_", "-")
        if not path:
            raise UsageError(f"{flag} is empty")
        real = os.path.realpath(path)
        if real in named:
            raise UsageError(f"{named[real]} and {flag} name one path, {path!r}")
        named[real] = flag
    if args.command == "bench":
        for name in ("bks", "csv"):
            path = getattr(args, name)
            if path is not None and os.path.dirname(os.path.realpath(path)) == os.path.realpath(args.dir):
                raise UsageError(f"--{name} {path!r} is in --dir {args.dir!r}, whose files are instances")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prorl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_instance=True):
        if with_instance:
            p.add_argument("--instance", required=True, help="instance file path")
        p.add_argument(
            "--format", choices=("standard", "taillard"), default="standard",
            help="instance file format",
        )
        p.add_argument("--bks", help="CSV file of best-known makespans")
        p.add_argument("--csv", help="write the report as CSV to this path")

    p = sub.add_parser("pdr", help="run one dispatching rule")
    add_common(p)
    p.add_argument("--rule", required=True, type=str.lower, choices=PDR_METHODS)
    p.add_argument("--trace", help="write the per-decision concept trace CSV")
    p.add_argument("--dump-schedule", help="write the schedule CSV")
    p.set_defaults(func=cmd_pdr)

    p = sub.add_parser("random", help="uniform-random rule-picking agent")
    add_common(p)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--episodes", type=integer, default=1)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("train", help="learn a policy on an instance")
    add_common(p)
    p.add_argument("--budget", type=integer, required=True, help="episode budget")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", help="write the learned policy to this path")
    p.add_argument("--log", help="write the per-generation training log CSV")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override bo.* or search.* configuration keys")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved policy file")
    add_common(p)
    p.add_argument("--policy", required=True, help="policy file path")
    p.add_argument("--trace", help="write the per-decision concept trace CSV")
    p.add_argument("--dump-schedule", help="write the schedule CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="sweep a directory of instances")
    add_common(p, with_instance=False)
    p.add_argument("--dir", required=True, help="directory of instance files")
    p.add_argument("--methods", default="fifo,spt,mor,mwr,lor",
                   help="comma-separated: fifo,spt,mor,mwr,lor,random,prorl")
    p.add_argument("--budget", type=integer, default=1000, help="episode budget for prorl")
    p.add_argument("--seeds", default="0", help="comma-separated seeds for prorl/random")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override bo.* or search.* configuration keys")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        _check_paths(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
