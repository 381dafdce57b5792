"""Workload inputs, operations and their correctness checks.

A workload runs in cycles.  Cycle ``c`` of a run with seed ``s`` is a fixed
list of operations whose inputs depend only on (workload, s, c), so a cycle
is one full pass of the workload at its stated sizes.

The two library workloads draw from committed pools of base instances
(``pool.json``, written by ``make_pool.py``), each stored with its expected
answer and where that answer came from.  The seed picks the order of a
cycle and a fresh vertex relabelling for every operation.  Relabelling
keeps the answer, so the table holds for every seed, while the solvers
still see inputs they have not seen before.

The cli-session workload builds its inputs from the seed directly:
(2,2)-3-SAT formulas whose answer ``Formula223.satisfiable()`` decides, and
planted instances whose generator guarantees that the stored budgets
suffice.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

POOL_FILE = Path(__file__).with_name("pool.json")

# Wall cap of one operation.  The parent process enforces it for library
# ops; cli ops enforce it on their own subprocess as well.
OP_CAP_S = 30.0

LIBRARY_SOLVERS = {"mlce-planted": "solve_mlce", "tce-planted": "solve_tce_xp"}
WORKLOADS = ("mlce-planted", "tce-planted", "cli-session")


def load_layeredit(root: Path):
    """Import ``layeredit`` from ``root/src`` and nowhere else.

    Returns the package and the import time in ms.  Raises SystemExit when
    the checkout holds no sources, so the benchmark never measures an
    installed copy by accident.
    """
    src = root / "src"
    if not (src / "layeredit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no layeredit sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import layeredit
    import_ms = (time.perf_counter() - start) * 1000.0
    if Path(layeredit.__file__).resolve().parent != (src / "layeredit").resolve():
        raise SystemExit(f"perfbench: imported layeredit from {layeredit.__file__}, not {src}")
    return layeredit, import_ms


# ---------------------------------------------------------------- encoding

def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def encode_layer(n: int, edges) -> str:
    """Edge set as a hex bitmask over ``all_pairs(n)``."""
    index = {p: i for i, p in enumerate(all_pairs(n))}
    mask = 0
    for p in edges:
        mask |= 1 << index[p]
    return format(mask, "x")


def decode_layer(n: int, text: str) -> list[tuple[int, int]]:
    mask = int(text, 16)
    return [p for i, p in enumerate(all_pairs(n)) if mask >> i & 1]


def relabel(n: int, layers: list[list[tuple[int, int]]],
            rng: random.Random) -> list[list[tuple[int, int]]]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)
            for edges in layers]


def instance_text(mode: str, n: int, k: int, d: int,
                  layers: list[list[tuple[int, int]]]) -> str:
    """The layeredit instance format, written without the program's serializer."""
    out = ["mlg 1", f"mode {mode}", f"n {n}", f"ell {len(layers)}", f"k {k}", f"d {d}"]
    for i, edges in enumerate(layers, start=1):
        out.append(f"layer {i}")
        out.extend(f"{u} {v}" for u, v in sorted(edges))
    out.append("end")
    return "\n".join(out) + "\n"


def load_pool(name: str) -> list[dict]:
    with open(POOL_FILE, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]


# ---------------------------------------------------------------- results

def reference_ms() -> float:
    """Wall time in ms of a fixed pure-Python task of tuples, sets and dicts.

    The host's speed changes by up to half within seconds, as other tenants
    come and go.  Timing this task between ops tracks that speed; the task
    never calls layeredit, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    seen, counts = set(), {}
    for i in range(2000):
        pair = (i % 97, i % 89)
        if pair not in seen:
            seen.add(pair)
        counts[pair] = counts.get(pair, 0) + 1
    sorted(counts.items())
    return (time.perf_counter() - start) * 1000.0


@dataclasses.dataclass
class OpResult:
    """One finished operation.  ``ms`` is the wall time of the call alone;
    ``ref_ms`` the mean of ``reference_ms()`` just before and just after
    the op, or 0 when the op never finished."""

    op_id: str
    ms: float
    ok: bool
    reason: str = ""
    ref_ms: float = 0.0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _call(fn, *args):
    """Run ``fn`` and time it; returns (ms, value, error text or None)."""
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - an op that raises is a counted failure
        return (time.perf_counter() - start) * 1000.0, None, f"error: {type(exc).__name__}: {exc}"
    return (time.perf_counter() - start) * 1000.0, value, None


# ---------------------------------------------------------------- library workloads

@dataclasses.dataclass(frozen=True)
class PoolOp:
    op_id: str
    text: str
    answer: str


class PoolWorkload:
    """mlce-planted / tce-planted: one op is one library solve on a freshly
    parsed instance."""

    def __init__(self, name: str, seed: int, entries: Optional[list[dict]] = None):
        self.name = name
        self.seed = seed
        self.entries = load_pool(name) if entries is None else entries
        self.solver = LIBRARY_SOLVERS[name]
        self._orders: dict[int, list[int]] = {}

    @property
    def ops_per_cycle(self) -> int:
        return len(self.entries)

    def _order(self, cycle: int) -> list[int]:
        if cycle not in self._orders:
            order = list(range(len(self.entries)))
            random.Random(f"{self.name}:{self.seed}:{cycle}").shuffle(order)
            self._orders[cycle] = order
        return self._orders[cycle]

    def op(self, cycle: int, index: int) -> PoolOp:
        entry = self.entries[self._order(cycle)[index]]
        n = entry["n"]
        layers = [decode_layer(n, h) for h in entry["layers"]]
        layers = relabel(n, layers, random.Random(f"{self.name}:{self.seed}:{cycle}:{index}"))
        text = instance_text(entry["mode"], n, entry["k"], entry["d"], layers)
        return PoolOp(f"c{cycle}.{index}:{entry['id']}", text, entry["answer"])

    def expected_table(self) -> list[dict]:
        return [{"id": e["id"], "answer": e["answer"], "source": e["source"]}
                for e in self.entries]

    def setup(self, lib) -> None:
        """Generate and parse the inputs of the first cycle."""
        for index in range(self.ops_per_cycle):
            lib.parse_instance(self.op(0, index).text)

    def run(self, lib, cycle: int, index: int, tracer=None, in_process: bool = True) -> OpResult:
        op = self.op(cycle, index)
        inst = lib.parse_instance(op.text)
        solve = getattr(lib, self.solver)
        if tracer is not None:
            tracer.begin_op(op.op_id)
        ms, sol, error = _call(solve, inst)
        if tracer is not None:
            tracer.end_op()
        if error:
            return OpResult(op.op_id, ms, False, error)
        return OpResult(op.op_id, ms, *check_decision(lib, inst, sol, op.answer))


def check_decision(lib, inst, sol, answer: str) -> tuple[bool, str]:
    """Compare a solver's decision with the expected answer and verify a
    yes-solution with the package-level ``verify``."""
    decision = "yes" if sol is not None else "no"
    if decision != answer:
        return False, f"wrong decision: {decision}, expected {answer}"
    if sol is not None:
        report = lib.verify(inst, sol)
        if not report.ok:
            return False, f"verify failed: {report}"
    return True, ""


# ---------------------------------------------------------------- cli workload

SAT_VARS = 3
PLANTED_ELL = 4
PLANTED_NOISE = 3
PLANTED_DRIFT = 1
# Per cycle: two satisfiable and one unsatisfiable SAT session, one planted session.
CLI_SESSIONS = (("sat", True), ("sat", True), ("sat", False), ("planted", None))


def random_formula(lib, rng: random.Random, satisfiable: bool):
    """A (2,2)-3-SAT formula over three variables with the given answer.

    Every variable occurs twice positively and twice negatively, in four
    clauses of three literals or in five clauses of sizes 3, 3, 2, 2, 2, and
    no clause repeats a variable.
    """
    literals = [v for v in range(1, SAT_VARS + 1) for _ in range(2)]
    literals += [-v for v in literals]
    while True:
        rng.shuffle(literals)
        sizes = rng.choice(((3, 3, 3, 3), (3, 3, 2, 2, 2)))
        clauses, pos = [], 0
        for size in sizes:
            clauses.append(tuple(literals[pos:pos + size]))
            pos += size
        if any(len({abs(lit) for lit in c}) != len(c) for c in clauses):
            continue
        formula = lib.Formula223(SAT_VARS, tuple(clauses))
        if formula.satisfiable() == satisfiable:
            return formula


@dataclasses.dataclass(frozen=True)
class CliStep:
    op_id: str
    session: str
    kind: str
    step: str
    argv: tuple[str, ...]
    expect_exit: int


class CliWorkload:
    """cli-session: every op is one ``python -m layeredit`` command, run one
    at a time.  Sessions chain their files: generate -> solve -> verify on
    SAT reductions, generate -> kernelize on planted instances."""

    name = "cli-session"

    def __init__(self, seed: int, run_dir: Path, root: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.root = root
        self._cycles: dict[int, tuple[list[CliStep], dict]] = {}
        self.formulas: dict[str, object] = {}
        self.planted: dict[str, dict] = {}

    @property
    def ops_per_cycle(self) -> int:
        return sum(3 if kind == "sat" and sat else 2 for kind, sat in CLI_SESSIONS)

    def _plan(self, lib, cycle: int) -> list[CliStep]:
        """The steps of a cycle; the first call draws its inputs from the seed
        and writes the formula files."""
        if cycle in self._cycles:
            return self._cycles[cycle][0]
        rng = random.Random(f"{self.name}:{self.seed}:{cycle}")
        sessions = list(CLI_SESSIONS)
        rng.shuffle(sessions)
        steps: list[CliStep] = []
        table = {}
        for s, (kind, sat) in enumerate(sessions):
            where = self.run_dir / f"c{cycle}-s{s}"
            where.mkdir(parents=True, exist_ok=True)
            inst, sol = str(where / "instance.txt"), str(where / "solution.txt")
            sid = f"c{cycle}.s{s}"
            if kind == "sat":
                formula = random_formula(lib, rng, sat)
                self.formulas[sid] = formula
                (where / "formula.txt").write_text(
                    "".join(" ".join(map(str, c)) + "\n" for c in formula.clauses),
                    encoding="utf-8")
                table[sid] = {"answer": "yes" if sat else "no",
                              "source": "Formula223.satisfiable",
                              "clauses": [list(c) for c in formula.clauses]}
                plan = [("generate", ("generate", "sat", str(where / "formula.txt"), "--out", inst), 0),
                        ("solve", ("solve", inst, "--out", sol), 0 if sat else 10)]
                if sat:
                    plan.append(("verify", ("verify", inst, sol), 0))
            else:
                n = rng.randint(60, 80)
                params = {"n": n, "ell": PLANTED_ELL, "clusters": n // 2 + 1,
                          "drift": PLANTED_DRIFT, "noise": PLANTED_NOISE,
                          "seed": rng.randrange(10**6)}
                self.planted[sid] = params
                table[sid] = {"answer": "yes", "source": "planted budgets suffice", **params}
                gen = ["generate", "planted", "--mode", "mlce"]
                for key, value in params.items():
                    gen += [f"--{key}", str(value)]
                plan = [("generate", tuple(gen) + ("--out", inst), 0),
                        ("kernelize", ("kernelize", inst, "--out", str(where / "kernel.txt")), 0)]
            for step, argv, code in plan:
                steps.append(CliStep(f"{sid}.{step}", sid, kind, step, argv, code))
        self._cycles[cycle] = (steps, table)
        return steps

    def expected_table(self) -> dict:
        return {sid: row for _, table in self._cycles.values() for sid, row in table.items()}

    def setup(self, lib) -> None:
        """Generate the formulas of the first cycle and write them out."""
        self._plan(lib, 0)

    def run(self, lib, cycle: int, index: int, tracer=None, in_process: bool = False) -> OpResult:
        step = self._plan(lib, cycle)[index]
        if in_process:
            cli = importlib.import_module("layeredit.cli")
            if tracer is not None:
                tracer.begin_op(step.op_id)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                ms, code, error = _call(cli.run, list(step.argv))
            if tracer is not None:
                tracer.end_op()
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "layeredit", *step.argv],
                                      cwd=self.root, env=env, capture_output=True,
                                      text=True, timeout=OP_CAP_S)
            except subprocess.TimeoutExpired:
                return OpResult(step.op_id, OP_CAP_S * 1000.0, False, "timeout")
            ms = (time.perf_counter() - start) * 1000.0
            code, error, stdout, stderr = proc.returncode, None, proc.stdout, proc.stderr
        if not error and code not in (0, 10):
            error = f"exit {code}: {stderr.strip()[-300:]}"
        if error:
            return OpResult(step.op_id, ms, False, error)
        if code != step.expect_exit:
            return OpResult(step.op_id, ms, False,
                            f"wrong decision: exit {code}, expected {step.expect_exit}")
        return OpResult(step.op_id, ms, *self._check(lib, step, stdout))

    def _check(self, lib, step: CliStep, stdout: str) -> tuple[bool, str]:
        inst_path = Path(step.argv[-1] if step.step == "generate" else step.argv[1])
        try:
            inst = lib.parse_instance(inst_path.read_text(encoding="utf-8"))
            if step.step == "generate" and step.kind == "sat":
                if inst != lib.generate_sat_reduction(self.formulas[step.session]):
                    return False, "generated SAT reduction differs from the library's"
            elif step.step == "generate":
                p = self.planted[step.session]
                if (inst.mode, inst.n, inst.ell) != ("mlce", p["n"], p["ell"]):
                    return False, "generated planted instance has the wrong shape"
            elif step.step == "solve":
                sol = lib.parse_solution(Path(step.argv[-1]).read_text(encoding="utf-8"), inst)
                return check_decision(lib, inst, sol, "yes" if step.expect_exit == 0 else "no")
            elif step.step == "verify":
                if stdout.strip() != "valid":
                    return False, f"verify printed {stdout.strip()[:80]!r}"
            elif step.step == "kernelize":
                kernel = lib.parse_instance(Path(step.argv[-1]).read_text(encoding="utf-8"))
                if (kernel.mode, kernel.ell, kernel.d) != (inst.mode, inst.ell, inst.d) or \
                        kernel.k > inst.k or kernel.n > inst.n + 2 * kernel.k + 2:
                    return False, "kernel does not match its input's shape"
        except (OSError, ValueError) as exc:
            return False, f"unreadable output: {exc}"
        return True, ""


def make_workload(name: str, seed: int, run_dir: Path, root: Path):
    if name == "cli-session":
        return CliWorkload(seed, run_dir, root)
    if name in LIBRARY_SOLVERS:
        return PoolWorkload(name, seed)
    raise SystemExit(f"perfbench: unknown workload {name!r}")
