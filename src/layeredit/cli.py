"""Command-line front end.

Exit codes are a stable contract: 0 for yes / valid, 10 for no, 1 for an
invalid solution under ``verify``, 2 for usage or input errors, 3 for an
internal error (a solver's own output failed verification).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from itertools import product
from typing import Optional, Sequence

from .core import (
    MLCE,
    MODES,
    TCE,
    CapabilityError,
    InputError,
    Instance,
    SearchStats,
    replace,
    verify,
)
from .fileio import (
    PlantedParams,
    generate_planted_logged,
    parse_formula,
    parse_instance,
    parse_solution,
    generate_sat_reduction,
    serialize_instance,
    serialize_solution,
)

EXIT_YES = 0
EXIT_NO = 10
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Solver-side names load with their submodule on first use (PEP 562), so a
# command imports only the solver it runs.
_LAZY = {"solve_mlce": "branching", "solve_tce_xp": "tcepath", "kernelize": "kernelize",
         "oracle_mlce": "oracle", "oracle_tce": "oracle", "structured_mlce": "oracle"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


# Call sites read the solvers through the module, so a wrapped or patched
# module attribute is the one that runs.
_cli = sys.modules[__name__]

# One solver per (algorithm, mode); any other pair is a usage error.
SOLVERS = {
    ("branch", MLCE): lambda inst, trace, stats: _cli.solve_mlce(inst, trace=trace, stats=stats),
    ("xp", TCE): lambda inst, trace, stats: _cli.solve_tce_xp(inst, stats=stats),
    ("oracle", MLCE): lambda inst, trace, stats: _cli.oracle_mlce(inst),
    ("oracle", TCE): lambda inst, trace, stats: _cli.oracle_tce(inst),
    ("structured", MLCE): lambda inst, trace, stats: _cli.structured_mlce(inst),
}
AUTO = {MLCE: "branch", TCE: "xp"}
ALGOS = ("auto", *dict.fromkeys(name for name, _ in SOLVERS))

# The largest --timeout bench accepts; setitimer overflows from about 1e10 s.
MAX_TIMEOUT_S = 10 ** 6


def _bounded(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then refuse a value not ``ok``."""
    def parse(text: str):
        value = convert(text)
        if ok(value):
            return value
        raise argparse.ArgumentTypeError(f"must be {rule}: {text!r}")
    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="layeredit",
                                     description="exact multi-layer / temporal cluster editing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance and emit a solution file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", choices=ALGOS, default="auto")
    p_solve.add_argument("--trace", action="store_true", help="log rule applications to stderr")
    p_solve.add_argument("--out", help="solution file (default: stdout)")
    p_solve.set_defaults(cmd=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="solve by brute force only")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--out", help="solution file (default: stdout)")
    p_oracle.set_defaults(cmd=_cmd_solve, algo="oracle", trace=False)

    p_verify = sub.add_parser("verify", help="check a solution file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(cmd=_cmd_verify)

    p_kern = sub.add_parser("kernelize", help="shrink an instance to its kernel")
    p_kern.add_argument("instance")
    p_kern.add_argument("--out", help="output file (default: stdout)")
    p_kern.set_defaults(cmd=_cmd_kernelize)

    p_gen = sub.add_parser("generate", help="emit instances")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_planted = gen_sub.add_parser("planted", help="planted clustering with drift and noise")
    p_planted.add_argument("--mode", choices=MODES, default=MLCE)
    p_planted.add_argument("--n", type=int, required=True)
    p_planted.add_argument("--ell", type=int, required=True)
    p_planted.add_argument("--clusters", type=int, required=True)
    p_planted.add_argument("--drift", type=int, default=0)
    p_planted.add_argument("--noise", type=int, default=0)
    p_planted.add_argument("--seed", type=int, default=0)
    p_planted.add_argument("--out", help="instance file (default: stdout)")
    p_planted.set_defaults(cmd=_cmd_planted)
    p_sat = gen_sub.add_parser("sat", help="hardness reduction from a (2,2)-3-SAT formula")
    p_sat.add_argument("formula", help="text file, one clause of signed literals per line")
    p_sat.add_argument("--out", help="instance file (default: stdout)")
    p_sat.set_defaults(cmd=_cmd_sat)

    positive = _bounded(int, lambda v: v >= 1, "at least 1")
    nonnegative = _bounded(int, lambda v: v >= 0, "nonnegative")
    p_bench = sub.add_parser("bench", help="parameter sweep, CSV output")
    p_bench.add_argument("--mode", choices=MODES, default=MLCE)
    p_bench.add_argument("--algo", choices=ALGOS, default="auto")
    p_bench.add_argument("--n", type=positive, nargs="+", required=True)
    p_bench.add_argument("--ell", type=positive, nargs="+", required=True)
    p_bench.add_argument("--k", type=nonnegative, nargs="+", required=True)
    p_bench.add_argument("--d", type=nonnegative, nargs="+", required=True)
    p_bench.add_argument("--seeds", type=nonnegative, default=3)
    p_bench.add_argument("--drift", type=nonnegative, default=1)
    p_bench.add_argument("--noise", type=nonnegative, default=1)
    p_bench.add_argument("--timeout", default=30.0, help="wall-clock seconds per instance",
                         type=_bounded(float, lambda v: 0 < v <= MAX_TIMEOUT_S,  # false for nan
                                       f"positive and at most {MAX_TIMEOUT_S}"))
    p_bench.add_argument("--out", help="CSV file (default: stdout)")
    p_bench.set_defaults(cmd=_cmd_bench)
    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.cmd(args)
    except (InputError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # an instance too large to hold, such as n = 10^12
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a solver rejected its own result
        return _internal_error(str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _internal_error(message: str) -> int:
    print("internal error: " + "; ".join(message.splitlines()), file=sys.stderr)
    return EXIT_INTERNAL


def _solver(algo: str, mode: str):
    """The algorithm that ``algo`` names for ``mode`` instances, and its solver."""
    name = AUTO[mode] if algo == "auto" else algo
    if (name, mode) not in SOLVERS:  # every name in ALGOS solves one mode at least
        other = TCE if mode == MLCE else MLCE
        article = "an" if other == MLCE else "a"
        raise InputError(f"--algo {name} requires {article} {other} instance")
    return name, SOLVERS[name, mode]


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    _, solve = _solver(args.algo, inst.mode)
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    sol = solve(inst, trace, None)
    if sol is not None:
        report = verify(inst, sol)
        if not report.ok:
            return _internal_error(f"solver output failed verification: {report}")
    _emit(serialize_solution(sol, inst), args.out)
    return EXIT_YES if sol is not None else EXIT_NO


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol = parse_solution(_read(args.solution), inst)
    if sol is None:
        raise InputError("solution file declares 'answer no'; nothing to verify")
    report = verify(inst, sol)
    print(report)
    return EXIT_YES if report.ok else EXIT_INVALID


def _cmd_kernelize(args) -> int:
    inst = parse_instance(_read(args.instance))
    result = _cli.kernelize(inst)
    if result.is_no:
        _emit("answer no\n", args.out)
        return EXIT_NO
    comments = ["idmap old->new"]
    comments += [f"idmap {old} -> {new if new is not None else 'none'}"
                 for old, new in sorted(result.id_map.items())]
    _emit(serialize_instance(result.reduced, tuple(comments)), args.out)
    return EXIT_YES


def _cmd_planted(args) -> int:
    params = PlantedParams(n=args.n, ell=args.ell, cluster_count=args.clusters,
                           drift_per_layer=args.drift, noise_edits=args.noise,
                           seed=args.seed)
    inst, log = generate_planted_logged(params, args.mode)
    _emit(serialize_instance(inst, log), args.out)
    return EXIT_YES


def _cmd_sat(args) -> int:
    inst = generate_sat_reduction(parse_formula(_read(args.formula)))
    _emit(serialize_instance(inst), args.out)
    return EXIT_YES


class _Timeout(BaseException):
    """The bench timer's strike: no ``except Exception`` can take it."""


def _timed(solve, inst: Instance, seconds: float) -> tuple[str, int]:
    """Solve ``inst`` in process under a ``seconds`` interval timer; return the
    answer ("yes", "no", "timeout" or "error:<exception>") and the nodes counted."""
    import signal  # only bench needs it, and it slows every start-up

    stats = SearchStats()
    solving = True

    def strike(signum, frame):
        if solving:  # a strike handled after the solve returned changes nothing
            raise _Timeout

    previous = signal.signal(signal.SIGALRM, strike)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
            answer = "yes" if solve(inst, None, stats) is not None else "no"
        finally:
            solving = False  # a strike before this line is caught below
    except _Timeout:
        answer = "timeout"
    except Exception as exc:  # noqa: BLE001 - reported as a row, not a crash
        answer = f"error:{type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return answer, stats.nodes


def _cmd_bench(args) -> int:
    # imported here: only bench needs them, and they slow every start-up
    import csv
    import io

    algo, solve = _solver(args.algo, args.mode)
    rows = []
    for n, ell, k, d, seed in product(args.n, args.ell, args.k, args.d, range(args.seeds)):
        params = PlantedParams(n=n, ell=ell, cluster_count=min(n, n // 2 + 1),
                               drift_per_layer=args.drift, noise_edits=args.noise, seed=seed)
        inst, _ = generate_planted_logged(params, args.mode)
        start = time.perf_counter()
        answer, nodes = _timed(solve, replace(inst, k=k, d=d), args.timeout)
        millis = int((time.perf_counter() - start) * 1000)
        rows.append([n, ell, k, d, algo, seed, answer, millis, nodes])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "ell", "k", "d", "algo", "seed", "answer", "millis",
                     "nodes_expanded"])
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_YES


if __name__ == "__main__":
    main()
