"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavier criteria (desk-scale training runs)
take a few minutes combined.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from conftest import INSTANCE_DIR, evaluate_counted, posterior, random_instance, verify_feasible
from prorl import sim
from prorl.bo import BoConfig
from prorl.concepts import ConceptVector
from prorl.dsl import (
    MAX_DEPTH,
    MAX_TOKENS,
    deserialize,
    make_policy,
    mutate,
    pretty_print,
    random_program,
    serialize,
)
from prorl.instance import load_instance_file
from prorl.pdr import Heuristic
from prorl.sim import run_pdr
from prorl.search import SearchConfig, evaluate_policy, train

from test_bo import dataset_from, dense_oracle, oracle_comparison_cases
from test_dsl import example_policy


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def load(name: str, fmt: str):
    return load_instance_file(str(INSTANCE_DIR / name), fmt)


# --- criterion 1: PDR reproduction on ta21 (20x20), +/-5%, < 1 s per rule ---

TA21_REFERENCE = {
    Heuristic.FIFO: 2208.0,
    Heuristic.SPT: 2175.0,
    Heuristic.MOR: 1964.0,
    Heuristic.MWR: 2044.0,
    Heuristic.LOR: 2324.0,
}


def test_criterion_1_ta21_pdr_reproduction():
    path = INSTANCE_DIR / "ta21.txt"
    if not path.exists():
        report(
            "1",
            False,
            "ta21 instance data unavailable in this environment (see decisions "
            "ledger); place the Taillard-format file at data/instances/ta21.txt "
            "to run this criterion",
        )
    inst = load("ta21.txt", "taillard")
    assert (inst.num_jobs, inst.num_machines) == (20, 20)
    details = []
    ok = True
    for rule, reference in TA21_REFERENCE.items():
        started = time.perf_counter()
        makespan = run_pdr(inst, rule).makespan
        elapsed = time.perf_counter() - started
        within = abs(makespan - reference) <= 0.05 * reference
        ok = ok and within and elapsed < 1.0
        details.append(f"{rule.value}={makespan} (ref {reference:g}, {elapsed:.2f}s)")
    report("1", ok, "; ".join(details))


# --- criterion 2: ft06 MOR/FIFO gaps within +/-2 points of 7.27% / 9.09% ---


def test_criterion_2_ft06_mor_gap():
    inst = load("ft06.txt", "standard")
    started = time.perf_counter()
    makespan = run_pdr(inst, Heuristic.MOR).makespan
    elapsed = time.perf_counter() - started
    gap = 100 * (makespan - 55) / 55
    ok = abs(gap - 7.27) <= 2.0 and elapsed < 0.1
    report("2-MOR", ok, f"makespan {makespan}, gap {gap:.2f}% vs 7.27%, {elapsed:.3f}s")


def test_criterion_2_ft06_fifo_gap():
    inst = load("ft06.txt", "standard")
    started = time.perf_counter()
    makespan = run_pdr(inst, Heuristic.FIFO).makespan
    elapsed = time.perf_counter() - started
    gap = 100 * (makespan - 55) / 55
    ok = abs(gap - 9.09) <= 2.0 and elapsed < 0.1
    report(
        "2-FIFO",
        ok,
        f"makespan {makespan}, gap {gap:.2f}% vs 9.09%, {elapsed:.3f}s"
        + (
            ""
            if ok
            else " (tie-break sensitivity on this instance; see decisions ledger)"
        ),
    )


# --- criterion 3: ft06 training, budget 1000, >= 2 of 3 seeds reach 59 ---


def test_criterion_3_ft06_training_plateau():
    inst = load("ft06.txt", "standard")
    started = time.perf_counter()
    reached = []
    for seed in (0, 1, 2):
        program, _ = train(inst, SearchConfig(episode_budget=1000, seed=seed))
        reached.append(evaluate_policy(program, inst))
    elapsed = time.perf_counter() - started
    hits = sum(1 for makespan in reached if makespan <= 59)
    ok = hits >= 2 and elapsed < 300
    report("3", ok, f"makespans {reached}, {hits}/3 at or under 59, {elapsed:.0f}s")


# --- criterion 4: ft10 mean trained gap strictly below the best PDR gap ---


def test_criterion_4_ft10_beats_best_pdr():
    inst = load("ft10.txt", "standard")
    bks = 930
    started = time.perf_counter()
    pdr_gaps = {
        rule.value: (run_pdr(inst, rule).makespan - bks) / bks for rule in Heuristic
    }
    best_pdr = min(pdr_gaps.values())
    gaps = []
    for seed in (0, 1, 2):
        program, _ = train(inst, SearchConfig(episode_budget=1000, seed=seed))
        gaps.append((evaluate_policy(program, inst) - bks) / bks)
    mean_gap = sum(gaps) / len(gaps)
    elapsed = time.perf_counter() - started
    ok = mean_gap < best_pdr and elapsed < 900
    report(
        "4",
        ok,
        f"mean trained gap {100 * mean_gap:.2f}% vs best PDR {100 * best_pdr:.2f}%, "
        f"{elapsed:.0f}s",
    )


# --- criterion 5: budget trend on a TA 15x15 instance, >= 2 of 3 seeds ---


def test_criterion_5_ta15_budget_trend():
    inst = load("ta01.txt", "taillard")
    bks = 1231
    started = time.perf_counter()
    agreeing = 0
    rows = []
    for seed in (0, 1, 2):
        gaps = []
        for budget in (0, 100, 1000):
            program, _ = train(inst, SearchConfig(episode_budget=budget, seed=seed))
            gaps.append((evaluate_policy(program, inst) - bks) / bks)
        monotone = gaps[0] >= gaps[1] >= gaps[2]
        agreeing += monotone
        rows.append(f"seed {seed}: " + "->".join(f"{100 * g:.2f}%" for g in gaps))
    elapsed = time.perf_counter() - started
    ok = agreeing >= 2
    report("5", ok, f"{agreeing}/3 seeds non-increasing ({'; '.join(rows)}), {elapsed:.0f}s")


# --- criterion 6: property suites ---


def test_criterion_6a_feasibility_bounds_concepts_10k():
    rng = random.Random(60)
    started = time.perf_counter()
    for _ in range(10_000):
        inst = random_instance(rng, max_jobs=4, max_machines=3, max_duration=9)
        program = random_program(rng)
        result = sim.run_episode(inst, make_policy(program))
        assert verify_feasible(result, inst)
        ops = [op for job in inst.jobs for op in job]
        machine_bound = max(sum(op.duration for op in ops if op.machine == m) for m in range(inst.num_machines))
        job_bound = max(sum(op.duration for op in job) for job in inst.jobs)
        assert result.makespan >= max(machine_bound, job_bound)
        for cv, _ in result.decisions:
            for value in cv:
                assert 0.0 <= value <= 1.0
    report("6a", True, f"10,000 random (program, instance) episodes, {time.perf_counter() - started:.0f}s")


def test_criterion_6b_round_trips_1k():
    rng = random.Random(61)
    for _ in range(1_000):
        program = random_program(rng)
        again = deserialize(serialize(program))
        assert again == program
        assert pretty_print(again) == pretty_print(program)
        point = ConceptVector(*(rng.random() for _ in range(5)))
        assert evaluate_counted(again, point) == evaluate_counted(program, point)
    report("6b", True, "1,000 serialize and pretty-print round-trips")


def test_criterion_6c_gp_oracle_equivalence_50():
    from prorl.bo import fit

    for xs, ys, queries in oracle_comparison_cases(50, seed=62):
        model = fit(dataset_from(zip(xs, ys)), BoConfig())
        for q in queries:
            mean, std = posterior(model, q)
            oracle_mean, oracle_std = dense_oracle(xs, ys, q)
            assert mean == pytest.approx(oracle_mean, abs=1e-8)
            assert std == pytest.approx(oracle_std, abs=1e-8)
    report("6c", True, "50 random 1-D/2-D GP datasets vs dense solve within 1e-8")


def test_criterion_6d_budget_exactness_100():
    from prorl.instance import parse_standard

    inst = parse_standard("2 2\n0 3 1 2\n1 2 0 4", "tiny")
    rng = random.Random(63)
    started = time.perf_counter()
    for _ in range(100):
        config = SearchConfig(
            episode_budget=rng.randint(1, 30),
            lam=rng.randint(1, 4),
            seed=rng.randint(0, 100_000),
            bo=BoConfig(
                init_points=rng.randint(1, 4),
                iterations=rng.randint(0, 3),
                candidates=8,
            ),
        )
        _, state = train(inst, config)
        per_candidate = config.bo.init_points + config.bo.iterations
        remaining = config.episode_budget
        expected = 0
        for record in state.history:
            for dim in record.candidate_dims:
                want = 1 if dim == 0 else per_candidate
                granted = min(want, remaining)
                expected += granted
                remaining -= granted
        assert state.episodes_used == expected
    report("6d", True, f"100 random configs, episodes match the closed form, {time.perf_counter() - started:.0f}s")


def test_criterion_6e_mutation_validity_10k():
    rng = random.Random(64)
    program = random_program(rng)
    for _ in range(10_000):
        program = mutate(program, rng)
        assert program.depth <= MAX_DEPTH
        assert program.tokens <= MAX_TOKENS
    report("6e", True, "10,000 chained mutations respect depth and token limits")


def test_criterion_6f_example_policy_hand_evaluation():
    program = example_policy()
    heuristic, conditions = evaluate_counted(
        program, ConceptVector(ld=0.0, am=0.0, ao=0.0, jd=0.0, st=1.0)
    )
    ok = heuristic is Heuristic.LOR and conditions == 2
    report("6f", ok, f"routing at (0,0,0,0,1) gives {heuristic.value} after {conditions} conditions")


# --- criterion 7: inference cost bound ---


def test_criterion_7_condition_evaluations_bounded():
    rng = random.Random(70)
    worst = 0
    for _ in range(1_000):
        program = random_program(rng)
        for _ in range(20):
            point = ConceptVector(*(rng.random() for _ in range(5)))
            _, conditions = evaluate_counted(program, point)
            worst = max(worst, conditions)
    from test_dsl import full_tree

    deep = full_tree(MAX_DEPTH)
    for _ in range(100):
        point = ConceptVector(*(rng.random() for _ in range(5)))
        _, conditions = evaluate_counted(deep, point)
        worst = max(worst, conditions)
    ok = worst <= MAX_DEPTH - 1
    report("7", ok, f"max condition evaluations per decision = {worst} (bound {MAX_DEPTH - 1})")
