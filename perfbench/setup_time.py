"""One set-up measurement in a fresh interpreter.

    python3 perfbench/setup_time.py NETS_HGR NODE_MAJOR_HGR TRACE

Times ``import streamdecomp.cli`` and then the ``transpose`` command that
converts the workload's hMetis file into the node-major file the
``hpartition`` ops read, bracketed by two machine-speed calibrations
(``speed.py``).  With TRACE=1 the ``transpose_hmetis`` call is also timed
on its own.  Prints one JSON object as the last stdout line.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from speed import calibrate


def main() -> None:
    src, dst, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    before = calibrate()
    t0 = perf_counter()
    from streamdecomp import cli
    t1 = perf_counter()
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.rebind(cli, "transpose_hmetis", tracer.timed(
            "streams.transpose", cli.transpose_hmetis))
    t2 = perf_counter()
    rc = cli.main(["transpose", "--input", src, "--output", dst])
    t3 = perf_counter()
    out = {"rc": rc, "import_s": t1 - t0, "transpose_s": t3 - t2,
           "calib": [before, calibrate()]}
    if tracer is not None:
        out["transpose_span_s"] = tracer.stats["streams.transpose"][1]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
