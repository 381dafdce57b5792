"""layeredit benchmark: one closed-loop client, one operation in flight.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mlce-planted --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                     # every workload, seed 0

Each workload runs in a worker process (``worker.py``) that imports the
package from ``src/``; this process hands it one op at a time and kills it
when an op exceeds its wall cap, so a hang counts as a failure and never
stalls the run.  Whole cycles (full passes of the workload) run until
``--seconds`` have passed.  ``--trace 1`` instead runs the first cycle
twice, untraced and then traced, and reports per-layer metrics and the
tracing overhead.  The last line of stdout is a JSON summary; README.md
lists every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import OP_CAP_S, WORKLOADS, OpResult  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5           # fresh set-ups per run; setup_s is their median
SETUP_CAP_S = 60.0          # wall cap of one set-up
SETUP_BUDGET_S = 30.0       # no further set-up samples after this long
RUN_DEADLINE_S = 120.0      # no op starts later than this after launch
CLI_CAP_MARGIN_S = 15.0     # cli ops also enforce OP_CAP_S on their own subprocess
# Nominal duration of workloads.reference_ms(), about its median time between
# ops on a shared 2-vCPU Xeon host.  See adjusted_ms().
REF_MS = 2.0
TAIL_BEYOND = 10            # op_ms.tail leaves at least this many samples above it
# op_ms.tail: a fixed percentile per workload that leaves at least TAIL_BEYOND
# samples above it in a 30 s run.  It is fixed so that runs of different
# length measure the same thing: tce ops fall into groups of similar
# instances, and a percentile that moved with the sample count would jump
# between groups (0.7 s or 1.1 s) as a run fits four or five passes.  tce
# and cli use the highest such whole percentile.  On mlce that would be p98,
# where relabelling alone spreads the value by 0.10 of its median from seed
# to seed; p95 halves that.
TAIL_PCT = {"mlce-planted": 95.0, "tce-planted": 90.0, "cli-session": 67.0}


class WorkerDied(Exception):
    pass


class Worker:
    """One worker process and its JSON-lines pipe."""

    def __init__(self, root: Path, workload: str, seed: int, run_dir: Path,
                 setup_only: bool = False):
        log = open(run_dir / "worker.log", "ab")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--run-dir", str(run_dir)]
        if setup_only:
            cmd.append("--setup-only")
        self.started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=log,
                                         start_new_session=True, bufsize=0)
        finally:
            log.close()
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    def read(self, timeout: float):
        """Next message, or None when ``timeout`` seconds pass first."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not self._selector.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise WorkerDied(f"worker exited with {self.proc.wait()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def send(self, message: dict) -> None:
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
        except BrokenPipeError as exc:
            raise WorkerDied("worker closed its input") from exc

    def stop(self) -> None:
        """Kill the worker and every process it started, and wait for them."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self._selector.close()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def start_worker(root: Path, workload: str, seed: int, run_dir: Path,
                 setup_only: bool = False) -> tuple[Worker, float, dict]:
    """Start a worker and wait until it is ready; returns it, the set-up time
    in seconds, and its ready message."""
    worker = Worker(root, workload, seed, run_dir, setup_only)
    try:
        ready = worker.read(SETUP_CAP_S)
    except WorkerDied:
        ready = None
    if ready is None or ready.get("event") != "ready":
        worker.stop()
        raise SystemExit(f"perfbench: {workload} worker failed to set up; "
                         f"see {run_dir / 'worker.log'}")
    return worker, time.perf_counter() - worker.started, ready


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """(value, samples above it): the ``pct`` percentile, interpolated
    between the two nearest samples."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
    return value, sum(v > value for v in ordered)


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
              "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = "absent"
    return record


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool,
                 ops_limit: int = 0) -> dict:
    launched = time.monotonic()
    out_dir = BENCH_DIR / "out"
    run_dir = out_dir / f"{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    setup_times, import_ms = [], []
    for _ in range(SETUP_SAMPLES - 1):
        probe, took, ready = start_worker(root, workload, seed, run_dir, setup_only=True)
        probe.stop()
        setup_times.append(took)
        import_ms.append(ready["import_ms"])
        if time.monotonic() - launched > SETUP_BUDGET_S:
            break
    worker, took, ready = start_worker(root, workload, seed, run_dir)
    setup_times.append(took)
    import_ms.append(ready["import_ms"])
    per_cycle = ready["ops_per_cycle"]
    if ops_limit:
        per_cycle = min(per_cycle, ops_limit)

    cli = workload == "cli-session"
    cap = OP_CAP_S + (CLI_CAP_MARGIN_S if cli else 0.0)
    # (cycle, traced) passes; untraced runs add cycles until the time is up
    passes = [(0, False), (0, True)] if traced else None
    results: list[tuple[int, bool, OpResult]] = []
    final = None  # the last worker's closing message; replaced workers send none
    measure_start = time.monotonic()
    pass_no = 0
    try:
        while True:
            if passes is not None:
                if pass_no == len(passes):
                    break
                cycle, traced_pass = passes[pass_no]
            else:
                if pass_no and time.monotonic() - measure_start >= seconds:
                    break
                cycle, traced_pass = pass_no, False
            for index in range(per_cycle):
                if time.monotonic() - launched > RUN_DEADLINE_S:
                    result = OpResult(f"c{cycle}.{index}", 0.0, False, "not run: run deadline")
                else:
                    worker, result = run_op(worker, root, workload, seed, run_dir, cap,
                                            cycle, index, traced_pass, in_process=traced and cli)
                results.append((cycle, traced_pass, result))
            pass_no += 1
        spans_file = out_dir / f"{workload}-seed{seed}.spans.jsonl" if traced else None
        worker.send({"cmd": "finish", "spans": str(spans_file) if spans_file else None})
        final = worker.read(cap)
    except WorkerDied:
        pass
    finally:
        worker.stop()

    report = summarize(workload, seed, traced, results, setup_times, import_ms, final,
                       cli and not traced)
    report["machine"] = machine_record()
    report["ops"] = [{"cycle": c, "traced": t, **r.as_dict()} for c, t, r in results]
    with open(out_dir / f"{workload}-seed{seed}-trace{int(traced)}.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if report["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)  # kept, with worker.log, when ops failed
    return report


def run_op(worker: Worker, root: Path, workload: str, seed: int, run_dir: Path, cap: float,
           cycle: int, index: int, traced: bool, in_process: bool) -> tuple[Worker, OpResult]:
    """Run one op under the wall cap; a worker that overruns or dies is
    replaced and the op counts as failed."""
    request = {"cmd": "op", "cycle": cycle, "index": index, "traced": traced,
               "in_process": in_process}
    try:
        worker.send(request)
        reply = worker.read(cap)
        failure = None if reply is not None else ("timeout", cap * 1000.0)
    except WorkerDied as exc:
        reply, failure = None, (f"worker died: {exc}", 0.0)
    if reply is not None:
        return worker, OpResult(reply["op_id"], reply["ms"], reply["ok"], reply["reason"],
                                reply["ref_ms"])
    worker.stop()
    worker, _, _ = start_worker(root, workload, seed, run_dir)
    return worker, OpResult(f"c{cycle}.{index}", failure[1], False, failure[0])


def adjusted_ms(op: OpResult) -> float:
    """The op's time at nominal host speed: ``ms`` × REF_MS ÷ the reference
    time measured around it.  An op that never finished has no reference
    and keeps its ``ms``."""
    return op.ms * REF_MS / op.ref_ms if op.ref_ms > 0 else op.ms


def op_metrics(results, times: list[float], tail_pct: float) -> tuple[dict, str]:
    """op_ms.p50, op_ms.tail and ops_per_s from the ops' ``times``; also
    returns the note that says which percentile the tail is."""
    total_s = sum(times) / 1000.0
    value, beyond = percentile(times, tail_pct)
    note = f"p{tail_pct:g}, {beyond} of {len(times)} samples beyond"
    if beyond < TAIL_BEYOND:
        note += f"; fewer than {TAIL_BEYOND}, run longer"
    return {
        "op_ms.p50": (statistics.median(times), "ms"),
        "op_ms.tail": (value, "ms"),
        "ops_per_s": (sum(r.ok for _, _, r in results) / total_s if total_s else 0.0, "1/s"),
    }, note


def summarize(workload: str, seed: int, traced: bool, results, setup_times, import_ms,
              final, children_rss: bool) -> dict:
    attempted = len(results)
    failed = sum(not r.ok for _, _, r in results)
    report = {"workload": workload, "seed": seed, "trace": int(traced),
              "attempted": attempted, "failed": failed,
              "failures": [r.as_dict() for _, _, r in results if not r.ok][:20],
              "expected": final["expected"] if final else None,
              "setup_samples_s": setup_times}
    adjusted = [adjusted_ms(r) for _, _, r in results]
    if traced:
        # cycle 0 untraced vs the same ops traced
        plain = sum(ms for (_, t, _), ms in zip(results, adjusted) if not t)
        with_trace = sum(ms for (_, t, _), ms in zip(results, adjusted) if t)
        trace = final.get("trace", {}) if final else {}
        metrics = dict(trace.get("metrics", {}))
        metrics["cli.import_ms"] = (statistics.median(import_ms), "ms")
        metrics["trace.overhead_ratio"] = (with_trace / plain if plain else 0.0, "ratio")
        report["absent"] = trace.get("absent", [])
        report["spans"] = {"kept": trace.get("spans", 0), "dropped": trace.get("dropped", 0)}
        report["notes"] = {"trace.overhead_ratio": "traced / untraced adjusted time of cycle 0"}
    else:
        rss_key = "children_rss_kb" if children_rss else "rss_kb"
        rss_kb = final[rss_key] if final else 0
        metrics, tail_note = op_metrics(results, adjusted, TAIL_PCT[workload])
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        wall, _ = op_metrics(results, [r.ms for _, _, r in results], TAIL_PCT[workload])
        report["unadjusted"] = {name: value for name, (value, _) in wall.items()}
        report["notes"] = {
            "op_ms.tail": tail_note,
            "ops_per_s": f"over {len({c for c, _, _ in results})} whole passes of "
                         f"{sum(c == 0 for c, _, _ in results)} ops",
            "setup_s": f"median of {len(setup_times)} fresh set-ups",
        }
        report["failed_frac"] = failed / attempted if attempted else 0.0
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report["correct"] = failed == 0 and final is not None
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print("machine " + json.dumps(report["machine"]))
    notes = report.get("notes", {})
    for name, metric in report["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        wall = report.get("unadjusted", {}).get(name)
        wall = f"  [unadjusted {wall:.6g}]" if wall is not None else ""
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}{wall}{note}")
    if "failed_frac" in report:
        print(f"  {'failed_frac':36s} {report['failed_frac']:.6g} ratio"
              f"  ({report['failed']} of {report['attempted']} ops)")
    if report.get("absent"):
        print("  absent: " + " ".join(report["absent"]))
    for failure in report["failures"]:
        print(f"  FAILED {failure['op_id']}: {failure['reason']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run only the first N ops of each cycle (smoke tests)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "layeredit" / "__init__.py").is_file():
        print(f"perfbench: run from a layeredit checkout; no src/layeredit under {root}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.ops)
        print_report(report)
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in reports for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
