"""Concept extraction: hand-computed values, ranges, invariances."""

from __future__ import annotations

import random

import pytest

from conftest import random_instance, reference_concepts
from prorl import sim
from prorl.concepts import extract
from prorl.instance import Instance, Operation, parse_standard
from prorl.pdr import Heuristic, apply


def test_2x2_initial_vector(inst_2x2):
    # machine loads: M0 = 3+4 = 7, M1 = 2+2 = 4; job work: J0 = 5, J1 = 6;
    # durations {3,2,2,4}; 2 ready of 4 unscheduled; both machines free
    state = sim.reset(inst_2x2)
    cv = extract(state)
    assert cv.am == 1.0
    assert cv.ao == 0.5
    assert cv.ld == pytest.approx(3 / 7)
    assert cv.jd == pytest.approx(1 / 6)
    assert cv.st == pytest.approx(0.5)


def test_am_half_when_five_of_ten_machines_busy():
    jobs = tuple((Operation(m, 4), Operation((m + 5) % 10, 4)) for m in range(10))
    inst = Instance("tenmach", 10, 10, jobs)
    state = sim.reset(inst)
    for machine in range(5):
        state.machine_free_at[machine] = 9  # five machines busy at the clock
    assert extract(state).am == 0.5


def test_equal_durations_zero_spread():
    inst = parse_standard("2 2\n0 4 1 4\n1 4 0 4", "flat")
    state = sim.reset(inst)
    cv = extract(state)
    assert cv.st == 0.0
    assert cv.ld == 0.0  # equal per-machine loads
    assert cv.jd == 0.0


def test_single_remaining_job_jd_zero(inst_2x2):
    state = sim.reset(inst_2x2)
    # dispatch until exactly one job still has operations left
    while sum(1 for j in range(2) if state.job_next_op[j] < 2) > 1:
        sim.step(state, sim.ready_set(state)[0])
    assert sum(len(job) - k for job, k in zip(inst_2x2.jobs, state.job_next_op)) > 0
    assert extract(state).jd == 0.0


def test_error_when_all_scheduled(inst_1x1):
    state = sim.reset(inst_1x1)
    sim.step(state, sim.ready_set(state)[0])
    with pytest.raises(ValueError):
        extract(state)


def test_ranges_and_am_exactness_along_episodes():
    rng = random.Random(32)
    for _ in range(150):
        inst = random_instance(rng)
        state = sim.reset(inst)
        for _ in range(len(inst.durations)):
            ready = sim.ready_set(state)
            cv = extract(state)
            for value in cv:
                assert 0.0 <= value <= 1.0
            free = sum(1 for t in state.machine_free_at if t <= state.clock)
            assert cv.am * inst.num_machines == pytest.approx(free)
            sim.step(state, ready[rng.randrange(len(ready))])


def test_ao_denominator_depletes_by_one_per_step(inst_2x2):
    state = sim.reset(inst_2x2)
    denominators = []
    for _ in range(len(inst_2x2.durations)):
        denominators.append(sum(len(job) - k for job, k in zip(inst_2x2.jobs, state.job_next_op)))
        sim.step(state, sim.ready_set(state)[0])
    assert denominators == [4, 3, 2, 1]


def test_scale_invariance_of_normalized_concepts():
    rng = random.Random(33)
    for _ in range(50):
        inst = random_instance(rng, square=True)
        big = Instance(
            inst.name,
            inst.num_jobs,
            inst.num_machines,
            tuple(tuple(Operation(op.machine, op.duration * 5) for op in job) for job in inst.jobs),
        )
        state_a, state_b = sim.reset(inst), sim.reset(big)
        for _ in range(len(inst.durations)):
            ready_a = sim.ready_set(state_a)
            ready_b = sim.ready_set(state_b)
            cv_a = extract(state_a)
            cv_b = extract(state_b)
            assert cv_a.ld == pytest.approx(cv_b.ld)
            assert cv_a.jd == pytest.approx(cv_b.jd)
            assert cv_a.st == pytest.approx(cv_b.st)
            # drive both with the same count-based rule to stay in lockstep
            pick_a = apply(Heuristic.MOR, state_a)
            pick_b = apply(Heuristic.MOR, state_b)
            assert (pick_a, state_a.job_next_op[pick_a]) == (pick_b, state_b.job_next_op[pick_b])
            sim.step(state_a, pick_a)
            sim.step(state_b, pick_b)


def test_incremental_concepts_match_from_scratch_oracle():
    # the running totals on SimState must give exactly the vector that a
    # full rescan gives, at every decision of random episodes
    rng = random.Random(34)
    for _ in range(300):
        inst = random_instance(rng, max_jobs=6, max_machines=5, max_duration=12, square=False)
        state = sim.reset(inst)
        for _ in range(len(inst.durations)):
            expected = reference_concepts(state, inst)
            ready = sim.ready_set(state)
            assert extract(state) == expected
            sim.step(state, ready[rng.randrange(len(ready))])
