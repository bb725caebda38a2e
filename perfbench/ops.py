"""Op runner: executes the planned CLI ops in-process, one at a time.

    python3 perfbench/ops.py PLAN_JSON RESULT_JSON

Started by ``run.py`` as its own process, with ``src`` on ``PYTHONPATH``,
so that its peak RSS covers the ops alone.  Each round runs the untimed
probe ops (if any) and then every timed op, each through
``streamdecomp.cli.main``; a timed op runs from the ``main([...])`` call to
its return, after the metrics JSON and partition file are written, and is
bracketed by two ``speed.calibrate()`` readings.  Garbage is collected
before every op so each starts from the same interpreter state.  Rounds
repeat until ``seconds`` have elapsed; a round is never cut short.  With ``trace`` set, rounds alternate untraced and traced (at least
one of each), and the result carries the traced rounds' span totals.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from time import perf_counter

from speed import calibrate


def run_op(main, op: dict, timed: bool) -> dict:
    """One op; a timed op is bracketed by machine-speed calibrations."""
    gc.collect()
    before = calibrate() if timed else None
    t0 = perf_counter()
    try:
        rc = main(op["argv"])
    except Exception as exc:   # a crash is a failed op, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return {"name": op["name"], "rc": rc, "seconds": seconds,
            "calib": [before, calibrate()] if timed else None}


def main() -> None:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    from streamdecomp import cli
    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()

    rounds = []
    start = perf_counter()
    while True:
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        probe = [run_op(cli.main, op, False) for op in plan["probe_ops"][r]]
        entry = cli.main
        if traced:
            spans.install(tracer)
            entry = tracer.timed("cli.main", cli.main)
        timed = [run_op(entry, op, True) for op in plan["ops"][r]]
        if traced:
            tracer.restore()
        rounds.append({"probe": probe, "timed": timed, "traced": traced})
        done = perf_counter() - start >= plan["seconds"]
        if len(rounds) == len(plan["ops"]) or (
                done and (tracer is None or len(rounds) >= 2)):
            break

    result = {"rounds": rounds,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["spans"] = tracer.stats
        result["counters"] = tracer.counters
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
