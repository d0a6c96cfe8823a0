"""Per-layer tracing of prorl from outside the package.

`Tracer.install()` replaces the module attributes through which prorl calls
its own layers (for example `prorl.sim.extract`, which `run_episode` looks up
at call time) with wrappers that record a span per call. Nothing inside
`src/` is edited, so the benchmark keeps working while the layers change: a
layer whose functions have all gone is reported as absent.

Each thread keeps its own span stack, because `train` and `bench` run thread
pools. A span records its wall time and its busy time (the thread's CPU
time, which leaves out waiting on a pool or on the interpreter lock). Self
time is a span's busy time minus the busy time of its child spans. Spans are
aggregated per name in memory and read once, at the end, by `report()`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

EPISODE_ATTRS = (
    "prorl.sim.run_episode", "prorl.pdr.run_episode", "prorl.bo.run_episode",
    "prorl.search.run_episode",
)

# span name -> the module attributes the program calls that layer through
LAYERS = (
    ("cli.main", ("prorl.cli.main",)),
    ("cli.bench", ("prorl.cli.cmd_bench",)),
    ("cli.bench_task", ("prorl.cli._bench_single",)),
    ("instance.load", ("prorl.cli.load_instance_file",)),
    ("search.train", ("prorl.search.train",)),
    ("dsl.mutate", ("prorl.search.mutate",)),
    ("bo.optimize_params", ("prorl.search.optimize_params",)),
    ("bo.fit", ("prorl.bo.fit",)),
    ("bo.propose", ("prorl.bo.propose",)),
    ("dsl.set_params", ("prorl.bo.set_params",)),
    ("sim.run_episode", EPISODE_ATTRS),
    ("sim.ready_set", ("prorl.sim.ready_set",)),
    ("sim.step", ("prorl.sim.step",)),
    ("concepts.extract", ("prorl.sim.extract",)),
    ("dsl.evaluate", ("prorl.dsl.evaluate",)),
    ("pdr.apply", ("prorl.pdr.apply", "prorl.dsl.apply")),
    ("sim.trace_csv", ("prorl.sim.trace_csv",)),
    ("sim.schedule_csv", ("prorl.sim.schedule_csv",)),
    ("sim.verify_feasible", ("prorl.sim.verify_feasible",)),
)


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self._active_trains: list[dict] = []
        self.absent: list[str] = []
        self.counters = {
            "sim.decisions": 0,
            "bo.fit.max_points": 0,
            "bo.fit.jitter_escalations": 0,
            "search.generations": 0,
            "search.episodes_charged": 0,
            "search.training_episodes": 0,
            "search.distinct_episodes": 0,
            "cli.exceptions": 0,
        }
        # hooks keyed by module attribute: (enter() -> ctx, leave(ctx, args, kwargs, result))
        self._hooks = {
            "prorl.search.train": (self._train_enter, self._train_leave),
            "prorl.bo.fit": (None, self._fit_leave),
        }
        for attr in EPISODE_ATTRS:
            self._hooks[attr] = (None, self._episode_leave)
        # only the inner loop's episodes are training episodes
        self._hooks["prorl.bo.run_episode"] = (None, self._training_episode_leave)

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        for name, attrs in LAYERS:
            found = False
            for attr in attrs:
                module_name, _, func_name = attr.rpartition(".")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, func_name, None)
                if not callable(fn):
                    continue
                setattr(module, func_name, tracer._wrap(name, fn, *tracer._hooks.get(attr, (None, None))))
                found = True
            if not found:
                tracer.absent.append(name)
        return tracer

    def _thread_state(self):
        try:
            return self._tls.stack, self._tls.stats
        except AttributeError:
            self._tls.stack, self._tls.stats = [], {}
            with self._lock:
                self._thread_stats.append(self._tls.stats)
            return self._tls.stack, self._tls.stats

    def _wrap(self, name, fn, enter, leave):
        perf, cpu = time.perf_counter, time.thread_time
        is_cli = name.startswith("cli.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = self._thread_state()
            frame = [0.0, enter() if enter else None]  # child busy time, hook context
            stack.append(frame)
            result = None
            w0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if is_cli:
                    with self._lock:
                        self.counters["cli.exceptions"] += 1
                raise
            finally:
                busy, wall = cpu() - c0, perf() - w0
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0, 0.0]
                s[0] += 1
                s[1] += wall
                s[2] += busy
                s[3] += busy - frame[0]
                if leave:
                    leave(frame[1], args, kwargs, result)
            return result

        return traced

    # hooks run after a span's clocks stop, so their cost lands in the
    # parent's self time; they never raise

    def _train_enter(self):
        ctx = {"hashes": set(), "episodes": 0}
        with self._lock:
            self._active_trains.append(ctx)
        return ctx

    def _train_leave(self, ctx, args, kwargs, result):
        with self._lock:
            self._active_trains.remove(ctx)
            self.counters["search.training_episodes"] += ctx["episodes"]
            self.counters["search.distinct_episodes"] += len(ctx["hashes"])
            if result is not None:
                _, state = result
                self.counters["search.generations"] += len(state.history)
                self.counters["search.episodes_charged"] += state.episodes_used

    def _fit_leave(self, ctx, args, kwargs, result):
        if result is None:
            return
        dataset = args[0] if args else kwargs["dataset"]
        config = args[1] if len(args) > 1 else kwargs.get("config")
        if config is None:
            from prorl.bo import BoConfig

            config = BoConfig()
        with self._lock:
            c = self.counters
            c["bo.fit.max_points"] = max(c["bo.fit.max_points"], len(dataset))
            if result.jitter > config.jitter:
                c["bo.fit.jitter_escalations"] += 1

    def _episode_leave(self, ctx, args, kwargs, result):
        if result is not None:
            decisions = sum(len(row) for row in result.start_times)
            with self._lock:
                self.counters["sim.decisions"] += decisions

    def _training_episode_leave(self, ctx, args, kwargs, result):
        self._episode_leave(ctx, args, kwargs, result)
        if result is None:
            return
        # the training this episode belongs to: the innermost train span on
        # this thread, else the only training running (train's own pool
        # threads carry no train span)
        train = next((f[1] for f in reversed(self._tls.stack) if f[1] is not None), None)
        key = hash(result.start_times)
        with self._lock:
            if train is None and len(self._active_trains) == 1:
                train = self._active_trains[0]
            if train is not None:
                train["episodes"] += 1
                train["hashes"].add(key)

    def report(self) -> dict:
        """Spans merged over threads: calls, wall_s, busy_s and self_s per name."""
        spans: dict[str, dict] = {}
        with self._lock:
            for stats in self._thread_stats:
                for name, (calls, wall, busy, self_busy) in stats.items():
                    agg = spans.setdefault(name, {"calls": 0, "wall_s": 0.0, "busy_s": 0.0, "self_s": 0.0})
                    agg["calls"] += calls
                    agg["wall_s"] += wall
                    agg["busy_s"] += busy
                    agg["self_s"] += self_busy
            return {"spans": spans, "counters": dict(self.counters), "absent": list(self.absent)}
