"""Time one BO round of the GP surrogate at the shapes training uses.

    PYTHONPATH=src python scripts/time_gp.py [--repeat R]

A round of a tuning is a `propose` over the default 256 candidates on a
model of n points, then an `add` of the evaluated point, which grows the
model's factor to n + 1 rows. For d in {6, 18, 42} weights (one, three and
seven conditions) and n in {10, 29} (the first and the last round of a
default tuning), it fits a model to n uniform parameter vectors with
integer returns and times `propose` on it, drawing from a weight stream,
and `add` onto a fresh copy of it. `draw_us` is the candidate draw on its
own, part of `propose_us`. Each figure is the best of R repeats, in µs per
call; `round_us` is the sum of `add_us` and `propose_us`. `stream_us` is
paid once per tuning: loading the weight stream of a tuning's seed. The
result is printed as one JSON object. Point PYTHONPATH at another
checkout's `src/` (one whose `bo.weight_stream` takes a seed) to time that
version on the same inputs.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import timeit

from prorl.bo import BoConfig, fit, propose, weight_stream
from prorl.dsl import WEIGHT_HIGH, WEIGHT_LOW


def time_call(call, repeat: int, setup=None, number: int = 200) -> float:
    timer = timeit.Timer(call, setup) if setup else timeit.Timer(call)
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    config = BoConfig()
    key = "0:gen:1:cand:0"  # a candidate's seed as training builds it
    weight_stream(key)  # builds the process's generator outside the timing
    results = {"stream_us": round(time_call(lambda: weight_stream(key), args.repeat), 1)}
    for d in (6, 18, 42):
        for n in (10, 29):
            rng = random.Random(d * 100 + n)
            points = [
                (tuple(rng.uniform(-2.0, 2.0) for _ in range(d)), -float(rng.randint(55, 70)))
                for _ in range(n + 1)
            ]
            model = fit(points[:n], config)
            stream = weight_stream(0)
            draw_us = time_call(
                lambda: stream.uniform(WEIGHT_LOW, WEIGHT_HIGH, (config.candidates, d)), args.repeat
            )
            propose_us = time_call(
                lambda: propose(model, config.beta, stream, config.candidates), args.repeat
            )
            # add mutates its model: each timed call grows its own copy
            copies = []
            add_us = time_call(
                lambda: copies.pop().add(*points[n]),
                args.repeat,
                setup=lambda: copies.extend(copy.deepcopy(model) for _ in range(200)),
            )
            results[f"d={d},n={n}"] = {
                "add_us": round(add_us, 1),
                "draw_us": round(draw_us, 1),
                "propose_us": round(propose_us, 1),
                "round_us": round(add_us + propose_us, 1),
            }
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
