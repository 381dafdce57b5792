"""Worker process of one benchmark run.

It imports layeredit from the checkout, sets the workload up, reports
ready, and then runs the ops the parent asks for, one at a time.  Requests
arrive on stdin and answers leave on a private copy of stdout as JSON
lines; the real stdout is pointed at stderr so nothing the program prints
can corrupt the protocol.  Run only by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

from tracing import Tracer
from workloads import load_layeredit, make_workload, reference_ms


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)

    def send(message: dict) -> None:
        proto.write(json.dumps(message) + "\n")

    root = Path.cwd()
    run_dir = Path(args.run_dir)
    lib, import_ms = load_layeredit(root)
    workload = make_workload(args.workload, args.seed, run_dir, root)
    workload.setup(lib)
    send({"event": "ready", "import_ms": import_ms, "ops_per_cycle": workload.ops_per_cycle})
    if args.setup_only:
        return

    tracer = None
    ref = reference_ms()  # the reference before the next op
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "op":
            if request["traced"] and tracer is None:
                tracer = Tracer()
                tracer.install()
            result = workload.run(lib, request["cycle"], request["index"],
                                  tracer if request["traced"] else None,
                                  in_process=request["in_process"])
            after = reference_ms()
            result.ref_ms = (ref + after) / 2.0
            ref = after
            send({"event": "op", **result.as_dict()})
        elif request["cmd"] == "finish":
            message = {
                "event": "finish",
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                "expected": workload.expected_table(),
            }
            if tracer is not None:
                tracer.uninstall()
                metrics, absent = tracer.metrics()
                message["trace"] = {"metrics": metrics, "absent": absent,
                                    "spans": len(tracer.spans), "dropped": tracer.dropped}
                if request.get("spans"):
                    tracer.write_spans(Path(request["spans"]))
            send(message)
            return


if __name__ == "__main__":
    main()
