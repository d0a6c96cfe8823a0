"""One benchmark child process: import prorl, then run prorl commands in order.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds "load" (instance files to load with the documented library call,
used to time set-up), "commands" (argv lists for `prorl.cli.main`, the
function behind the `prorl` console script) and "trace" (wrap the layers with
the outside tracer). Each command's wall time covers the `main` call alone,
so interpreter start-up and imports stay out of it. RESULT receives exit
codes, wall times, versions, the peak resident set and, when traced, the
aggregated spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import numpy
    import prorl.cli
    from prorl.instance import load_instance_file

    for path, fmt in spec.get("load", []):
        load_instance_file(path, fmt)

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer.install()

    commands = []
    for argv in spec.get("commands", []):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            rc = prorl.cli.main(argv)
            seconds = time.perf_counter() - started
        commands.append({"rc": rc, "seconds": seconds, "stderr": err.getvalue()[-2000:]})

    # ru_maxrss is in KiB on Linux; children cover any worker processes
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "commands": commands,
        "peak_rss_mb": peak_kib / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trace": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: child.py SPEC.json RESULT.json")
    main(sys.argv[1], sys.argv[2])
