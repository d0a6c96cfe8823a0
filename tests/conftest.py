"""Shared fixtures: tiny instances, random-instance generation, instance
writers for the parser round trips, a seeded text mutator for the boundary
fuzz, brute-force and reference oracles (the ready set and the next event
by a scan of every job, a tree-walking program router, a tree-walking
program size, a schedule feasibility check, a BO inner loop that refits its
GP every round), and one-query helpers over the library."""

from __future__ import annotations

import random
import re
import string
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from prorl.bo import BoConfig, GpModel, posterior_batch
from prorl.concepts import ConceptVector
from prorl.dsl import If, Node, Program, set_params
from prorl.instance import Instance, Operation, parse_standard
from prorl.pdr import Heuristic
from prorl.sim import Policy, ScheduleResult

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
INSTANCE_DIR = DATA_DIR / "instances"

# J0 = (M0,3)(M1,2), J1 = (M1,2)(M0,4); every non-delay schedule reaches
# the M0-workload bound of 7 (asserted against the enumeration oracle).
TINY_2X2 = "2 2\n0 3 1 2\n1 2 0 4"


@pytest.fixture
def inst_2x2() -> Instance:
    return parse_standard(TINY_2X2, "tiny2x2")


@pytest.fixture
def inst_1x1() -> Instance:
    return parse_standard("1 1\n0 5", "tiny1x1")


@pytest.fixture
def ft06() -> Instance:
    from prorl.instance import load_instance_file

    return load_instance_file(str(INSTANCE_DIR / "ft06.txt"), "standard")


def random_instance(rng: random.Random, max_jobs: int = 4, max_machines: int = 4,
                    max_duration: int = 9, square: bool = False) -> Instance:
    """A small random instance; jobs visit distinct machines in random order."""
    n = rng.randint(1, max_jobs)
    m = rng.randint(1, max_machines)
    jobs = []
    for _ in range(n):
        machines = list(range(m))
        rng.shuffle(machines)
        if not square:
            machines = machines[: rng.randint(1, m)]
        jobs.append(tuple(Operation(mach, rng.randint(1, max_duration)) for mach in machines))
    return Instance(f"rand{n}x{m}", n, m, tuple(jobs))


def to_standard(instance: Instance) -> str:
    """Render an instance in the standard format; inverse of parse_standard."""
    out = [f"{instance.num_jobs} {instance.num_machines}"]
    for job in instance.jobs:
        out.append(" ".join(f"{op.machine} {op.duration}" for op in job))
    return "\n".join(out) + "\n"


def to_taillard(instance: Instance) -> str:
    """Render an instance in Taillard's format (machines written 1-based)."""
    out = [f"{instance.num_jobs} {instance.num_machines}"]
    for job in instance.jobs:
        out.append(" ".join(str(op.duration) for op in job))
    for job in instance.jobs:
        out.append(" ".join(str(op.machine + 1) for op in job))
    return "\n".join(out) + "\n"


# What the boundary fuzz inserts into a text, and the characters it deletes.
FUZZ_INSERTS = tuple(string.digits + "+-") + (" ", "\t", "\n", ",", ".", "_", "\ufeff", "nan", "\uff17")
_FUZZ_DELETABLE = frozenset(string.digits + "+- \t\n,._")
_FUZZ_INTEGER = re.compile(r"[0-9]+")


def mutate(text: str, rng: random.Random) -> str:
    """`text` after one to three seeded edits, each one of: delete a digit,
    sign or separator; insert one of FUZZ_INSERTS (digits, signs,
    separators, a byte-order mark, `nan`, a fullwidth 7) anywhere; replace
    one integer with a 400-digit one, which lands on a duration about as
    often as the file holds durations."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(3)
        if edit == 0:
            spots = [i for i, char in enumerate(text) if char in _FUZZ_DELETABLE]
            if spots:
                i = rng.choice(spots)
                text = text[:i] + text[i + 1:]
        elif edit == 1:
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(FUZZ_INSERTS) + text[i:]
        else:
            integers = list(_FUZZ_INTEGER.finditer(text))
            if integers:
                match = rng.choice(integers)
                huge = str(rng.randint(1, 9)) + "".join(rng.choices(string.digits, k=399))
                text = text[:match.start()] + huge + text[match.end():]
    return text


def reference_ready(instance: Instance, clock: int, machine_free_at, job_next_op,
                    job_ready_at) -> list[int]:
    """The jobs whose next operation is startable at `clock`, in job order,
    by a scan of every job: the simulator's ready-set predicate before it
    kept the ready set on its state."""
    out = []
    for j in range(instance.num_jobs):
        k = job_next_op[j]
        if k < len(instance.jobs[j]):
            op = instance.jobs[j][k]
            if max(job_ready_at[j], machine_free_at[op.machine]) <= clock:
                out.append(j)
    return out


def reference_next_event(instance: Instance, machine_free_at, job_next_op, job_ready_at) -> int | None:
    """The earliest time some job's next operation becomes startable, the
    smallest max(job ready, machine free), by a scan of every job; None once
    every operation is scheduled."""
    best = None
    for j in range(instance.num_jobs):
        k = job_next_op[j]
        if k < len(instance.jobs[j]):
            op = instance.jobs[j][k]
            t = max(job_ready_at[j], machine_free_at[op.machine])
            if best is None or t < best:
                best = t
    return best


def all_nondelay_makespans(instance: Instance) -> set[int]:
    """Enumerate every non-delay dispatch sequence; independent of the simulator.

    Exhaustive DFS over ready choices with the same readiness/advance rules,
    written against plain state tuples rather than the sim module.
    """
    total = len(instance.durations)
    results: set[int] = set()

    def walk(clock, mfree, jnext, jready, done):
        if done == total:
            results.add(max(mfree))
            return
        choices = reference_ready(instance, clock, mfree, jnext, jready)
        if not choices:
            walk(reference_next_event(instance, mfree, jnext, jready), mfree, jnext, jready, done)
            return
        for j in choices:
            k = jnext[j]
            op = instance.jobs[j][k]
            mfree2 = list(mfree)
            jnext2 = list(jnext)
            jready2 = list(jready)
            mfree2[op.machine] = clock + op.duration
            jready2[j] = clock + op.duration
            jnext2[j] += 1
            walk(clock, mfree2, jnext2, jready2, done + 1)

    walk(0, [0] * instance.num_machines, [0] * instance.num_jobs, [0] * instance.num_jobs, 0)
    return results


def reference_concepts(state, instance: Instance) -> tuple[float, float, float, float, float]:
    """The concept vector recomputed from scratch; independent of the
    simulator's running totals.

    Counts startable operations with the readiness predicate and rescans
    every job's unscheduled suffix for machine loads, job work and the
    duration bounds, as the simulator did before it kept incremental state.
    """

    def spread(max_value, min_value):
        return (max_value - min_value) / max_value if max_value > 0 else 0.0

    unscheduled = sum(len(job) - k for job, k in zip(instance.jobs, state.job_next_op))
    m = instance.num_machines
    am = sum(1 for t in state.machine_free_at if t <= state.clock) / m

    ready = reference_ready(instance, state.clock, state.machine_free_at, state.job_next_op,
                            state.job_ready_at)
    ao = len(ready) / unscheduled

    machine_load = [0] * m
    job_work = []
    dur_min, dur_max = None, None
    for job in range(instance.num_jobs):
        ops = instance.jobs[job]
        k = state.job_next_op[job]
        if k >= len(ops):
            continue
        work = 0
        for op in ops[k:]:
            machine_load[op.machine] += op.duration
            work += op.duration
            if dur_max is None or op.duration > dur_max:
                dur_max = op.duration
            if dur_min is None or op.duration < dur_min:
                dur_min = op.duration
        job_work.append(work)

    ld = spread(max(machine_load), min(machine_load))
    jd = spread(max(job_work), min(job_work)) if len(job_work) > 1 else 0.0
    st = spread(dur_max, dur_min)
    return (ld, am, ao, jd, st)


def posterior(model: GpModel, query: tuple[float, ...]) -> tuple[float, float]:
    """Predictive mean and stddev at one raw query."""
    mean, std = posterior_batch(model, [query])
    return float(mean[0]), float(std[0])


def get_params(program: Program) -> tuple[float, ...]:
    """All condition weights flattened in pre-order, the order `set_params` reads."""
    values: list[float] = []

    def walk(node: Node):
        if isinstance(node, If):
            values.extend(node.weights)
            walk(node.then_branch)
            walk(node.else_branch)

    walk(program.root)
    return tuple(values)


def tree_size(program: Program) -> tuple[int, int, int]:
    """(depth, tokens, parameter count) by fresh walks of the tree: a leaf is
    1 token, an if-node 8 plus its branches and six parameters."""

    def walk(node: Node) -> tuple[int, int, int]:
        if isinstance(node, Heuristic):
            return 1, 1, 0
        then_size, else_size = walk(node.then_branch), walk(node.else_branch)
        return (1 + max(then_size[0], else_size[0]), 8 + then_size[1] + else_size[1],
                6 + then_size[2] + else_size[2])

    return walk(program.root)


def condition_value(weights: tuple[float, ...], cv: ConceptVector) -> float:
    """The value of an if-node's linear condition at `cv`, summed term for
    term in the order the compiled policy sums it."""
    w = weights
    ld, am, ao, jd, st = cv
    return w[0] + w[1] * ld + w[2] * am + w[3] * ao + w[4] * jd + w[5] * st


def evaluate_counted(program: Program, cv: ConceptVector) -> tuple[Heuristic, int]:
    """Route the concept vector to a leaf by walking the tree; also count
    condition evaluations. The reference for the compiled `make_policy`."""
    node = program.root
    conditions = 0
    while isinstance(node, If):
        conditions += 1
        node = node.then_branch if condition_value(node.weights, cv) > 0.0 else node.else_branch
    return node, conditions


def verify_feasible(result: ScheduleResult, instance: Instance) -> bool:
    """Check job precedence, machine exclusivity, and the recorded makespan."""
    by_machine: dict[int, list[tuple[int, int]]] = {}
    makespan = 0
    for job, starts in zip(instance.jobs, result.start_times):
        if len(starts) != len(job):
            return False
        prev_end = 0
        for op, start in zip(job, starts):
            if start is None or start < prev_end:
                return False
            end = start + op.duration
            prev_end = end
            makespan = max(makespan, end)
            by_machine.setdefault(op.machine, []).append((start, end))
    for intervals in by_machine.values():
        intervals.sort()
        for (_, end_a), (start_b, _) in zip(intervals, intervals[1:]):
            if start_b < end_a:
                return False
    return makespan == result.makespan


def reference_optimize_params(
    program: Program, evaluate: Callable[[Policy], float], episodes: int, seed: int | str,
    config: BoConfig,
) -> tuple[list[tuple[float, ...]], Program, float]:
    """The BO inner loop with its GP refit from scratch every round: the Gram
    matrix of all points rebuilt and factored by LAPACK, the jitter
    escalation restarting from `config.jitter`, the factor inverted by
    LAPACK, and each policy `evaluate` is given routed by walking the tree
    that `set_params` builds. Every weight is drawn by its own
    `uniform(-2, 2)` call on `random.Random(seed)`, a candidate's weights in
    a row. Returns the evaluated parameter vectors in order, then the best
    (program, return) as `optimize_params` does."""
    dim = len(get_params(program))
    rng = random.Random(seed)
    points: list[tuple[tuple[float, ...], float]] = []

    def kernel(a, b):
        sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1) - 2.0 * (a @ b.T)
        return np.exp(-0.5 * np.maximum(sq, 0.0))

    def observe(params: tuple[float, ...]) -> None:
        tuned = set_params(program, params)
        points.append((params, evaluate(lambda cv: evaluate_counted(tuned, cv)[0])))

    n_init = min(config.init_points, episodes)
    for _ in range(n_init):
        observe(tuple(rng.uniform(-2.0, 2.0) for _ in range(dim)))
    for _ in range(episodes - n_init):
        x = np.array([params for params, _ in points]) / 2.0
        y = np.array([value for _, value in points])
        y_mean, y_std = y.mean(), y.std() or 1.0
        jitter = config.jitter
        while True:
            try:
                chol = np.linalg.cholesky(kernel(x, x) + jitter * np.eye(len(y)))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
                if jitter > 1e-2 * (1 + 1e-9):
                    raise RuntimeError("GP factorization failed at maximum jitter") from None
        chol_inv = np.linalg.inv(chol)
        candidates = np.array([[rng.uniform(-2.0, 2.0) for _ in range(dim)] for _ in range(config.candidates)])
        k_star = kernel(candidates / 2.0, x)
        mean = k_star @ (chol_inv.T @ (chol_inv @ ((y - y_mean) / y_std))) * y_std + y_mean
        v = k_star @ chol_inv.T
        std = np.sqrt(np.maximum(1.0 - np.sum(v * v, axis=1), 0.0)) * y_std
        observe(tuple(candidates[int(np.argmax(mean + config.beta * std))].tolist()))

    best_params, best_value = max(points, key=lambda point: point[1])
    return [params for params, _ in points], set_params(program, best_params), best_value
