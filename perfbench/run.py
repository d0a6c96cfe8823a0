"""prorl benchmark: three closed-loop workloads driven through the `prorl` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it needs `src/` and `data/`).
One client (this process) sends the next prorl command only after the last
one finished. Commands run in child processes (`child.py`) that import prorl
once and call `prorl.cli.main`, so a command's wall time leaves out
interpreter start-up; `setup_s` measures that start-up on its own. The
benchmark writes its inputs (a temp instance directory, a BKS table, random
policy files) under `.bench_work/` in the checkout, checks every output, and
prints the metrics as the last line of standard output, as one JSON object.

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced units and reports per-layer metrics from the
outside tracer (`tracer.py`); see README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

INSTANCE_FORMATS = {"ft06": "standard", "ft10": "standard", "ta01": "taillard"}
PDRS = ("fifo", "spt", "mor", "mwr", "lor")
BUDGET = 1000
BENCH_SEEDS = (0, 1, 2, 3)
DISPATCH_PROGRAMS = 60
SETUP_REPEATS = 7
MIN_UNITS = 2  # two repeats of the same inputs must give byte-identical outputs
MIN_TRACED_UNITS = 2  # traced counts must repeat exactly
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("episodes_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("gap_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.decisions", "count"),
    ("sim.us_per_decision", "us"),
    ("sim.ready_set.calls", "count"),
    ("sim.ready_set.calls_per_decision", "ratio"),
    ("sim.ready_set.self_s", "s"),
    ("sim.step.self_s", "s"),
    ("sim.run_episode.calls", "count"),
    ("sim.run_episode.self_s", "s"),
    ("concepts.extract.calls", "count"),
    ("concepts.extract.self_s", "s"),
    ("sim.trace_csv.self_s", "s"),
    ("sim.schedule_csv.self_s", "s"),
    ("pdr.apply.calls", "count"),
    ("pdr.apply.self_s", "s"),
    ("dsl.evaluate.calls", "count"),
    ("dsl.evaluate.self_s", "s"),
    ("dsl.set_params.self_s", "s"),
    ("dsl.mutate.self_s", "s"),
    ("bo.optimize_params.calls", "count"),
    ("bo.fit.calls", "count"),
    ("bo.fit.self_s", "s"),
    ("bo.fit.max_points", "count"),
    ("bo.fit.jitter_escalations", "count"),
    ("bo.propose.calls", "count"),
    ("bo.propose.self_s", "s"),
    ("search.train.s", "s"),
    ("search.generations", "count"),
    ("search.episodes_charged", "count"),
    ("search.distinct_episode_ratio", "ratio"),
    ("cli.bench.tasks", "count"),
    ("cli.bench.task_s_sum", "s"),
    ("cli.bench.parallel_efficiency", "ratio"),
    ("cli.failures", "count"),
    ("instance.load.self_s", "s"),
    ("trace.self_s_total", "s"),
    ("trace.overhead", "ratio"),
)

# per-layer values that are counts of work; each must repeat exactly
EXACT = {name for name, unit in PER_LAYER if unit == "count"} | {
    "sim.ready_set.calls_per_decision",
    "search.distinct_episode_ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a prorl failure)."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_instance(text: str, fmt: str) -> list[list[tuple[int, int]]]:
    """Jobs as [(machine, duration), ...], 0-based machines; no validation
    beyond what the schedule check needs."""
    rows = [
        [int(tok) for tok in line.split()]
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    n, _ = rows[0]
    if fmt == "standard":
        return [list(zip(row[0::2], row[1::2])) for row in rows[1:1 + n]]
    times, machines = rows[1:1 + n], rows[1 + n:1 + 2 * n]
    return [[(mc - 1, t) for t, mc in zip(tr, mr)] for tr, mr in zip(times, machines)]


def schedule_error(jobs: list[list[tuple[int, int]]], text: str, makespan: int) -> str | None:
    """Independent feasibility check of a dumped schedule CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != "job,op,machine,start,end":
        return "schedule header missing"
    starts: dict[tuple[int, int], tuple[int, int]] = {}
    by_machine: dict[int, list[tuple[int, int]]] = {}
    for line in lines[1:]:
        j, k, machine, start, end = (int(v) for v in line.split(","))
        if not (0 <= j < len(jobs) and 0 <= k < len(jobs[j])) or (j, k) in starts:
            return f"unknown or repeated operation J{j}-{k}"
        if (machine, end - start) != jobs[j][k] or start < 0:
            return f"J{j}-{k} has the wrong machine or duration"
        starts[(j, k)] = (start, end)
        by_machine.setdefault(machine, []).append((start, end))
    if len(starts) != sum(len(job) for job in jobs):
        return "schedule does not cover every operation"
    for j, job in enumerate(jobs):
        for k in range(1, len(job)):
            if starts[(j, k)][0] < starts[(j, k - 1)][1]:
                return f"J{j}-{k} starts before its predecessor ends"
    for machine, intervals in by_machine.items():
        intervals.sort()
        for (_, end_a), (start_b, _) in zip(intervals, intervals[1:]):
            if start_b < end_a:
                return f"machine {machine} runs two operations at once"
    if max(end for _, end in starts.values()) != makespan:
        return "schedule makespan differs from the reported makespan"
    return None


def read_report(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def random_policy(rng: random.Random, depth_left: int = 4) -> dict:
    """A random program tree in prorl's policy JSON format (depth <= 4, so at
    most 64 tokens)."""
    if depth_left >= 2 and rng.random() < 0.75:
        return {
            "kind": "if",
            "weights": [rng.uniform(-2.0, 2.0) for _ in range(6)],
            "then": random_policy(rng, depth_left - 1),
            "else": random_policy(rng, depth_left - 1),
        }
    return {"kind": "action", "heuristic": rng.choice(PDRS).upper()}


@dataclass
class Unit:
    """Outcome of one unit of a workload: what ran, what it cost, what it made."""

    wall_s: float = 0.0
    episodes: int = 0
    decisions: int = 0
    attempted: int = 0
    failed_commands: int = 0
    peak_rss_mb: float = 0.0
    gaps: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)


class Workload:
    """One workload: its inputs, the commands of a unit, and their checks."""

    name = ""
    instances: tuple[str, ...] = ()

    def __init__(self, inputs: Path, seed: int):
        self.inputs = inputs
        self.bks_path = inputs / "bks.csv"
        shutil.copyfile(ROOT / "data" / "bks.csv", self.bks_path)
        self.bks = {
            name: int(value)
            for name, value in (
                line.split(",") for line in self.bks_path.read_text().splitlines() if line.strip()
            )
        }
        (inputs / "instances").mkdir()
        self.jobs = {}
        for name in self.instances:
            text = (ROOT / "data" / "instances" / f"{name}.txt").read_text(encoding="utf-8")
            (inputs / "instances" / f"{name}.txt").write_text(text, encoding="utf-8")
            self.jobs[name] = parse_instance(text, INSTANCE_FORMATS[name])

    def instance_args(self, name: str) -> list[str]:
        return ["--instance", str(self.instance_path(name)), "--format", INSTANCE_FORMATS[name]]

    def instance_path(self, name: str) -> Path:
        return self.inputs / "instances" / f"{name}.txt"

    def ops(self, name: str) -> int:
        return sum(len(job) for job in self.jobs[name])

    def commands(self, out: Path) -> list[tuple[list[str], bool]]:
        """(argv, timed) pairs; untimed commands only produce outputs to check."""
        raise NotImplementedError

    def check(self, out: Path, unit: Unit) -> None:
        raise NotImplementedError

    def check_makespan(self, unit: Unit, instance: str, makespan: int, label: str) -> None:
        bks = self.bks[instance]
        if makespan < bks:
            unit.errors.append(f"{label}: makespan {makespan} below BKS {bks}")
        unit.gaps.append(100.0 * (makespan - bks) / bks)
        unit.fingerprints.setdefault("makespans", {})[label] = makespan

    def check_episode_outputs(self, out: Path, unit: Unit, instance: str, stem: str, makespan: int) -> None:
        """Checks on an eval/pdr command's --dump-schedule and --trace files."""
        problem = schedule_error(self.jobs[instance], (out / f"{stem}.schedule.csv").read_text(), makespan)
        if problem:
            unit.errors.append(f"{stem}: {problem}")
        trace = out / f"{stem}.trace.csv"
        if len(trace.read_text().splitlines()) != self.ops(instance) + 1:
            unit.errors.append(f"{stem}: trace does not hold one row per decision")
        unit.fingerprints.setdefault("trace_sha256", {})[stem] = sha256(trace)

    def episode_args(self, out: Path, stem: str) -> list[str]:
        return [
            "--bks", str(self.bks_path), "--csv", str(out / f"{stem}.csv"),
            "--trace", str(out / f"{stem}.trace.csv"),
            "--dump-schedule", str(out / f"{stem}.schedule.csv"),
        ]


class TrainTa01(Workload):
    name = "train-ta01"
    instances = ("ta01",)

    def commands(self, out):
        train = ["train", *self.instance_args("ta01"), "--budget", str(BUDGET), "--seed", "0",
                 "--bks", str(self.bks_path), "--out", str(out / "policy.json"),
                 "--log", str(out / "train_log.csv"), "--csv", str(out / "train.csv")]
        check = ["eval", *self.instance_args("ta01"), "--policy", str(out / "policy.json"),
                 *self.episode_args(out, "eval")]
        return [(train, True), (check, False)]

    def check(self, out, unit):
        (row,) = read_report(out / "train.csv")
        if int(row["episodes"]) != BUDGET:
            unit.errors.append(f"train used {row['episodes']} episodes, budget {BUDGET}")
        makespan = int(row["makespan"])
        self.check_makespan(unit, "ta01", makespan, "ta01/prorl/s0")
        (evaluated,) = read_report(out / "eval.csv")
        if int(evaluated["makespan"]) != makespan:
            unit.errors.append("eval of the saved policy disagrees with train")
        self.check_episode_outputs(out, unit, "ta01", "eval", makespan)
        unit.fingerprints["policy_sha256"] = sha256(out / "policy.json")
        unit.fingerprints["train_log_sha256"] = sha256(out / "train_log.csv")
        unit.episodes = int(row["episodes"]) + 1  # charged plus the final evaluation
        unit.decisions = unit.episodes * self.ops("ta01")


class BenchFt06(Workload):
    name = "bench-ft06"
    instances = ("ft06",)

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self.bench_dir = inputs / "bench-dir"
        self.bench_dir.mkdir()
        shutil.copyfile(self.instance_path("ft06"), self.bench_dir / "ft06.txt")

    def commands(self, out):
        return [([
            "bench", "--dir", str(self.bench_dir), "--format", "standard",
            "--methods", ",".join(PDRS + ("prorl",)),
            "--seeds", ",".join(str(s) for s in BENCH_SEEDS), "--budget", str(BUDGET),
            "--bks", str(self.bks_path), "--csv", str(out / "bench.csv"),
        ], True)]

    def check(self, out, unit):
        rows = read_report(out / "bench.csv")
        expected = [(m, "") for m in PDRS] + [("prorl", str(s)) for s in BENCH_SEEDS]
        if sorted((r["method"], r["seed"]) for r in rows) != sorted(expected):
            unit.errors.append("bench rows do not match the methods and seeds asked for")
        for r in rows:
            want = BUDGET if r["method"] == "prorl" else 1
            if int(r["episodes"]) != want:
                unit.errors.append(f"{r['method']}/s{r['seed']} used {r['episodes']} episodes, want {want}")
            self.check_makespan(unit, "ft06", int(r["makespan"]), f"ft06/{r['method']}/s{r['seed']}")
            # a training also runs one final evaluation of the learned policy
            unit.episodes += int(r["episodes"]) + (r["method"] == "prorl")
        unit.decisions = unit.episodes * self.ops("ft06")
        unit.fingerprints["bench_csv_sha256"] = sha256(out / "bench.csv")


class DispatchMix(Workload):
    name = "dispatch-mix"
    instances = ("ft06", "ft10", "ta01")

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        rng = random.Random(f"dispatch-mix:{seed}")
        (inputs / "policies").mkdir()
        self.policies = []
        for i in range(DISPATCH_PROGRAMS):
            path = inputs / "policies" / f"p{i:02d}.json"
            path.write_text(json.dumps(random_policy(rng), indent=2) + "\n", encoding="utf-8")
            self.policies.append(path)

    def runs(self):
        for instance in self.instances:
            for rule in PDRS:
                yield instance, rule, ["pdr", *self.instance_args(instance), "--rule", rule]
            for policy in self.policies:
                yield instance, policy.stem, ["eval", *self.instance_args(instance), "--policy", str(policy)]

    def commands(self, out):
        return [(argv + self.episode_args(out, f"{inst}-{method}"), True) for inst, method, argv in self.runs()]

    def check(self, out, unit):
        for instance, method, _ in self.runs():
            stem = f"{instance}-{method}"
            (row,) = read_report(out / f"{stem}.csv")
            makespan = int(row["makespan"])
            self.check_makespan(unit, instance, makespan, stem)
            self.check_episode_outputs(out, unit, instance, stem, makespan)
            unit.episodes += 1
            unit.decisions += self.ops(instance)


WORKLOADS = {cls.name: cls for cls in (TrainTa01, BenchFt06, DispatchMix)}


class Runner:
    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.children = 0
        self.workers = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env["PRORL_WORKERS"] = str(self.workers)
        self.versions: dict = {}

    def child(self, spec: dict) -> dict:
        self.children += 1
        spec_path = self.work / f"spec{self.children}.json"
        result_path = self.work / f"result{self.children}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path), str(result_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a child process ran past the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"child process failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.versions = {"python": result["python"], "numpy": result["numpy"]}
        return result

    def setup_s(self) -> float:
        """Median time for a fresh process to import prorl and load the instances."""
        load = [[str(self.workload.instance_path(n)), INSTANCE_FORMATS[n]] for n in self.workload.instances]
        times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.child({"load": load})
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def unit(self, traced: bool) -> tuple[Unit, dict | None]:
        out = self.work / f"unit{self.children + 1}"
        out.mkdir()
        commands = self.workload.commands(out)
        result = self.child({"commands": [argv for argv, _ in commands], "trace": traced})
        unit = Unit()
        unit.peak_rss_mb = result["peak_rss_mb"]
        unit.attempted = len(commands)
        for (argv, timed), outcome in zip(commands, result["commands"]):
            if timed:
                unit.wall_s += outcome["seconds"]
            if outcome["rc"] != 0:
                unit.failed_commands += 1
                unit.errors.append(f"prorl {argv[0]} exited {outcome['rc']}: {outcome['stderr'].strip()}")
        if not unit.failed_commands:
            try:
                self.workload.check(out, unit)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                unit.errors.append(f"unreadable output: {exc!r}")
        shutil.rmtree(out)
        return unit, result["trace"]

    def has_time_for(self, last_child_s: float) -> bool:
        return time.monotonic() + 1.5 * last_child_s + 5.0 < self.deadline


def layer_values(report: dict, failed_commands: int, workers: int) -> dict:
    """Per-layer values of one traced unit."""
    spans, counters = report["spans"], report["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    decisions = counters["sim.decisions"]
    training = counters["search.training_episodes"]
    bench_wall = span("cli.bench", "wall_s")
    return {
        "sim.decisions": decisions,
        "sim.us_per_decision": 1e6 * span("sim.run_episode", "busy_s") / decisions if decisions else 0.0,
        "sim.ready_set.calls": span("sim.ready_set", "calls"),
        "sim.ready_set.calls_per_decision": span("sim.ready_set", "calls") / decisions if decisions else 0.0,
        "sim.ready_set.self_s": span("sim.ready_set", "self_s"),
        "sim.step.self_s": span("sim.step", "self_s"),
        "sim.run_episode.calls": span("sim.run_episode", "calls"),
        "sim.run_episode.self_s": span("sim.run_episode", "self_s"),
        "concepts.extract.calls": span("concepts.extract", "calls"),
        "concepts.extract.self_s": span("concepts.extract", "self_s"),
        "sim.trace_csv.self_s": span("sim.trace_csv", "self_s"),
        "sim.schedule_csv.self_s": span("sim.schedule_csv", "self_s"),
        "pdr.apply.calls": span("pdr.apply", "calls"),
        "pdr.apply.self_s": span("pdr.apply", "self_s"),
        "dsl.evaluate.calls": span("dsl.evaluate", "calls"),
        "dsl.evaluate.self_s": span("dsl.evaluate", "self_s"),
        "dsl.set_params.self_s": span("dsl.set_params", "self_s"),
        "dsl.mutate.self_s": span("dsl.mutate", "self_s"),
        "bo.optimize_params.calls": span("bo.optimize_params", "calls"),
        "bo.fit.calls": span("bo.fit", "calls"),
        "bo.fit.self_s": span("bo.fit", "self_s"),
        "bo.fit.max_points": counters["bo.fit.max_points"],
        "bo.fit.jitter_escalations": counters["bo.fit.jitter_escalations"],
        "bo.propose.calls": span("bo.propose", "calls"),
        "bo.propose.self_s": span("bo.propose", "self_s"),
        "search.train.s": span("search.train", "wall_s"),
        "search.generations": counters["search.generations"],
        "search.episodes_charged": counters["search.episodes_charged"],
        "search.distinct_episode_ratio": counters["search.distinct_episodes"] / training if training else 0.0,
        "cli.bench.tasks": span("cli.bench_task", "calls"),
        "cli.bench.task_s_sum": span("cli.bench_task", "wall_s"),
        # busy time of the tasks over the worker-seconds the sweep held
        "cli.bench.parallel_efficiency": (
            span("cli.bench_task", "busy_s") / (bench_wall * workers) if bench_wall else 0.0
        ),
        "cli.failures": counters["cli.exceptions"] + failed_commands,
        "instance.load.self_s": span("instance.load", "self_s"),
        "trace.self_s_total": sum(s["self_s"] for s in spans.values()),
    }


def collect_units(runner: Runner, trace: bool, seconds: float) -> tuple[list[Unit], list[tuple[Unit, dict]]]:
    """Run units until `seconds` have passed. Untraced runs need MIN_UNITS
    plain units; traced runs start with one plain unit and MIN_TRACED_UNITS
    traced ones, then keep two traced units per plain one."""
    plain: list[Unit] = []
    traced: list[tuple[Unit, dict]] = []
    started = time.monotonic()
    last = 0.0
    while True:
        if trace:
            need = len(plain) < 1 or len(traced) < MIN_TRACED_UNITS
            want_traced = len(plain) >= 1 and len(traced) < 2 * len(plain)
        else:
            need, want_traced = len(plain) < MIN_UNITS, False
        if not need and (time.monotonic() - started >= seconds or not runner.has_time_for(last)):
            return plain, traced
        t0 = time.monotonic()
        unit, report = runner.unit(want_traced)
        last = time.monotonic() - t0
        if want_traced:
            traced.append((unit, report))
        else:
            plain.append(unit)


def end_to_end_metrics(plain: list[Unit], setup_s: float) -> dict:
    walls = [u.wall_s for u in plain]
    print(f"wall_s samples: n={len(walls)} median={statistics.median(walls):.4f} max={max(walls):.4f}")
    values = {
        "wall_s": statistics.median(walls),
        "episodes_per_s": statistics.median(u.episodes / u.wall_s for u in plain),
        "decisions_per_s": statistics.median(u.decisions / u.wall_s for u in plain),
        "gap_pct": statistics.mean(plain[0].gaps),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(u.peak_rss_mb for u in plain),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(plain: list[Unit], traced: list[tuple[Unit, dict]], workers: int,
                      errors: list[str]) -> dict:
    per_unit = [layer_values(report, u.failed_commands, workers) for u, report in traced]
    for name in sorted(EXACT):
        if len({v[name] for v in per_unit}) > 1:
            errors.append(f"count {name} differs between traced repeats")
    values = {
        name: per_unit[0][name] if name in EXACT else statistics.median(v[name] for v in per_unit)
        for name in per_unit[0]
    }
    values["trace.overhead"] = (
        statistics.median(u.wall_s for u, _ in traced) / statistics.median(u.wall_s for u in plain)
    )
    first = traced[0][1]
    total = sum(s["self_s"] for s in first["spans"].values())
    print("self time share (first traced unit):")
    for name, s in sorted(first["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<22} {100 * s['self_s'] / total:6.2f}%  {s['calls']:>10} calls")
    print("absent layers: " + (", ".join(first["absent"]) or "none"))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run(args) -> int:
    for needed in (ROOT / "src" / "prorl" / "cli.py", ROOT / "data" / "bks.csv", ROOT / "data" / "instances"):
        if not needed.exists():
            print(f"benchmark: {needed.relative_to(ROOT)} is missing; run from a prorl checkout",
                  file=sys.stderr)
            return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        (work / "inputs").mkdir()
        workload = WORKLOADS[args.workload](work / "inputs", args.seed)
        runner = Runner(workload, work, deadline)
        setup_s = runner.setup_s()
        plain, traced = collect_units(runner, bool(args.trace), args.seconds)

        units = plain + [u for u, _ in traced]
        reference = units[0].fingerprints
        for unit in units[1:]:
            if unit.fingerprints != reference and not unit.errors:
                unit.errors.append("outputs differ from the first repeat of the same inputs")
        attempted = sum(u.attempted for u in units)
        failed = sum(min(u.attempted, len(u.errors)) for u in units)  # one error per bad command
        errors = [e for u in units for e in u.errors]

        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": runner.workers, "PRORL_WORKERS": runner.env["PRORL_WORKERS"],
            **runner.versions, "units": len(plain), "traced_units": len(traced),
            "fingerprints": reference,
        }
        print("run: " + json.dumps(info, sort_keys=True))
        if args.trace:
            metrics = per_layer_metrics(plain, traced, runner.workers, errors)
        else:
            metrics = end_to_end_metrics(plain, setup_s)
        for e in errors[:20]:
            print(f"FAILED: {e}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
        print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
