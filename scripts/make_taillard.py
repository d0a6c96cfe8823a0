#!/usr/bin/env python3
"""Regenerate Taillard benchmark instances from their published seeds.

The benchmark set is defined by a deterministic generator: a multiplicative
linear congruential RNG (16807, modulus 2^31 - 1, Schrage's method) drives
both the duration matrix (uniform integers in [1, 99], job-major) and the
per-job machine permutations (forward swap shuffle). An instance is fully
determined by its published (time seed, machine seed) pair, so shipping the
seeds plus this script is equivalent to shipping the files. A known name
fixes its size and seeds, so it takes none of --n, --m and the seed flags.

Usage:
    python scripts/make_taillard.py ta01 > data/instances/ta01.txt
    python scripts/make_taillard.py --n 20 --m 20 --time-seed X --machine-seed Y
"""

from __future__ import annotations

import argparse
import sys

MODULUS = 2147483647
MULTIPLIER = 16807

# name: (jobs, machines, time seed, machine seed)
KNOWN_SEEDS = {
    "ta01": (15, 15, 840612802, 398197754),
}


def make_rng(seed: int):
    # the states of a Lehmer stream are 1..2^31 - 2: from 0 it stays at 0, and
    # a seed past the modulus draws values outside [low, high]
    if not 1 <= seed < MODULUS:
        raise ValueError(f"seed {seed} outside 1..{MODULUS - 1}")
    state = seed

    def next_int(low: int, high: int) -> int:
        nonlocal state
        b, c = 127773, 2836
        k = state // b
        state = MULTIPLIER * (state % b) - k * c
        if state < 0:
            state += MODULUS
        return low + int(state / MODULUS * (high - low + 1))

    return next_int

def generate(n: int, m: int, time_seed: int, machine_seed: int):
    rt = make_rng(time_seed)
    durations = [[rt(1, 99) for _ in range(m)] for _ in range(n)]
    rm = make_rng(machine_seed)
    machines = []
    for _ in range(n):
        row = list(range(1, m + 1))
        for j in range(m):
            k = rm(j, m - 1)
            row[j], row[k] = row[k], row[j]
        machines.append(row)
    return durations, machines


def render(name: str, n: int, m: int, durations, machines) -> str:
    lines = [f"# {name}: {n}x{m}, Taillard format (times matrix, then 1-based machines)"]
    lines.append(f"{n} {m}")
    for row in durations:
        lines.append(" ".join(str(v) for v in row))
    for row in machines:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", nargs="?", help=f"known instance: {', '.join(KNOWN_SEEDS)}")
    parser.add_argument("--n", type=int, help="number of jobs")
    parser.add_argument("--m", type=int, help="number of machines")
    parser.add_argument("--time-seed", type=int)
    parser.add_argument("--machine-seed", type=int)
    args = parser.parse_args(argv)
    custom = {"--n": args.n, "--m": args.m,
              "--time-seed": args.time_seed, "--machine-seed": args.machine_seed}

    if args.name:
        if args.name not in KNOWN_SEEDS:
            parser.error(f"unknown instance {args.name!r}")
        given = [flag for flag, value in custom.items() if value is not None]
        if given:  # a known instance is fixed by its published seeds
            parser.error(f"{' '.join(given)} cannot change known instance {args.name}")
        n, m, ts, ms = KNOWN_SEEDS[args.name]
        name = args.name
    else:
        if None in custom.values():
            parser.error("need a known instance name or all of --n --m --time-seed --machine-seed")
        n, m, ts, ms = args.n, args.m, args.time_seed, args.machine_seed
        if n < 1 or m < 1:
            parser.error(f"need at least 1 job and 1 machine, got --n {n} --m {m}")
        name = f"custom_{n}x{m}"

    try:
        durations, machines = generate(n, m, ts, ms)
    except ValueError as exc:
        parser.error(str(exc))
    sys.stdout.write(render(name, n, m, durations, machines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
