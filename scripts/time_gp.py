"""Time the GP surrogate's `fit` and `propose` at the shapes training uses.

    PYTHONPATH=src python scripts/time_gp.py [--repeat R]

For d in {6, 18, 42} weights (one, three and seven conditions) and n in
{10, 29} observed points (the first and the last fit of a default tuning),
it fits a model to n uniform parameter vectors with integer returns, then
times `fit` on those points and `propose` over the default 256 candidates on
the fitted model. Each figure is the best of R timeit repeats, in µs per
call. The result is printed as one JSON object. Point PYTHONPATH at another
checkout's `src/` to time that version on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import timeit

from prorl.bo import BoConfig, fit, propose


def time_call(call, repeat: int) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    config = BoConfig()
    results = {}
    for d in (6, 18, 42):
        for n in (10, 29):
            rng = random.Random(d * 100 + n)
            points = [
                (tuple(rng.uniform(-2.0, 2.0) for _ in range(d)), -float(rng.randint(55, 70)))
                for _ in range(n)
            ]
            model = fit(points, config)
            draws = random.Random(0)
            results[f"d={d},n={n}"] = {
                "fit_us": round(time_call(lambda: fit(points, config), args.repeat), 1),
                "propose_us": round(
                    time_call(lambda: propose(model, config.beta, draws, config.candidates), args.repeat), 1
                ),
            }
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
