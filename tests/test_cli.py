import csv
import io
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from layeredit import branching, cli, core, oracle
from layeredit.cli import run
from layeredit.core import Solution, replace, verify
from layeredit.fileio import (PlantedParams, generate_planted, parse_instance, parse_solution,
                              serialize_instance, serialize_solution)
from layeredit.tcepath import enumerate_cluster_editing_sets

from conftest import ref_instance, ref_mlce_solution_k1_d2, ref_tce_solution


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write, tmp_path


def test_solve_mlce_yes(files, capsys):
    write, tmp = files
    inst = ref_instance("mlce", 1, 2)
    inst_file = write("ref_instance-mlce.mlg", serialize_instance(inst))
    out_file = str(tmp / "out.sol")
    code = run(["solve", "--algo", "branch", inst_file, "--out", out_file])
    assert code == 0
    sol = parse_solution((tmp / "out.sol").read_text(), inst)
    assert sol is not None and verify(inst, sol).ok


def test_solve_tce_no(files, capsys):
    write, tmp = files
    inst = ref_instance("tce", 0, 1)
    inst_file = write("ref_instance-tce.mlg", serialize_instance(inst))
    code = run(["solve", inst_file])
    assert code == 10
    assert "answer no" in capsys.readouterr().out


def test_solve_every_algo_agrees(files, capsys):
    write, _ = files
    cases = [("mlce", 1, 2, ["branch", "oracle", "structured"], True),
             ("mlce", 2, 0, ["branch", "oracle", "structured"], False),
             ("tce", 1, 1, ["xp", "oracle"], True),
             ("tce", 3, 0, ["xp", "oracle"], False)]
    for mode, k, d, algos, want_yes in cases:
        inst_file = write(f"f-{mode}-{k}-{d}.mlg", serialize_instance(ref_instance(mode, k, d)))
        for algo in algos:
            code = run(["solve", "--algo", algo, inst_file])
            capsys.readouterr()
            assert code == (0 if want_yes else 10), (mode, k, d, algo)


def test_solve_algo_mode_mismatch(files, capsys):
    write, tmp = files
    for algo, mode, message in [
            ("branch", "tce", "--algo branch requires an mlce instance"),
            ("structured", "tce", "--algo structured requires an mlce instance"),
            ("xp", "mlce", "--algo xp requires a tce instance")]:
        inst_file = write(f"{mode}.mlg", serialize_instance(ref_instance(mode, 1, 1)))
        assert run(["solve", "--algo", algo, inst_file]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # bench refuses the same pair before it builds or solves any instance
        out = tmp / "bench.csv"
        assert run(["bench", "--mode", mode, "--algo", algo, "--n", "4", "--ell", "2",
                    "--k", "1", "--d", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_solve_parse_error_names_line(files, capsys):
    write, _ = files
    bad = serialize_instance(ref_instance("mlce", 1, 2)).replace("4 5", "5 9")
    inst_file = write("bad.mlg", bad)
    assert run(["solve", inst_file]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_format_version_exits_2(files, capsys):
    write, _ = files
    text = serialize_instance(ref_instance("mlce", 1, 2))
    inst_file = write("v9.mlg", text.replace("mlg 1\n", "mlg 9 extra\n", 1))
    assert run(["solve", inst_file]) == 2
    assert "mlg 1" in capsys.readouterr().err
    sol_file = write("v7.sol", "sol 7\nanswer no\nend\n")
    assert run(["verify", write("v1.mlg", text), sol_file]) == 2


def test_solve_trace(files, capsys):
    write, _ = files
    inst_file = write("f.mlg", serialize_instance(ref_instance("mlce", 1, 2)))
    assert run(["solve", "--algo", "branch", "--trace", inst_file]) == 0
    assert "TRACE" in capsys.readouterr().err


def test_verify_valid_and_corrupted(files, capsys):
    write, _ = files
    inst = ref_instance("tce", 1, 1)
    inst_file = write("f.mlg", serialize_instance(inst))
    sol = ref_tce_solution()
    good = write("good.sol", serialize_solution(sol, inst))
    assert run(["verify", inst_file, good]) == 0
    assert "valid" in capsys.readouterr().out
    # corrupt: drop the layer-3 edit, leaving a non-cluster layer
    corrupted = serialize_solution(sol, inst).replace("edit 3 add 4 5\n", "")
    bad = write("bad.sol", corrupted)
    assert run(["verify", inst_file, bad]) == 1
    out = capsys.readouterr().out
    assert "P3" in out or "differ" in out


def test_wrong_solver_output_is_an_internal_error(files, capsys, monkeypatch):
    write, tmp = files
    inst = ref_instance("mlce", 1, 2)
    inst_file = write("f.mlg", serialize_instance(inst))
    wrong = Solution((frozenset(),) * inst.ell, marked=frozenset())
    assert not verify(inst, wrong).ok
    monkeypatch.setattr(cli, "solve_mlce", lambda inst, **kwargs: wrong)
    out_file = tmp / "out.sol"
    assert run(["solve", "--algo", "branch", inst_file, "--out", str(out_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: solver output failed verification")
    assert err.count("\n") == 1
    assert not out_file.exists()


def test_solver_runtime_error_is_an_internal_error(files, capsys, monkeypatch):
    # solve_mlce verifies the solution it extracts and raises when it fails
    write, _ = files
    inst = ref_instance("mlce", 1, 2)
    inst_file = write("f.mlg", serialize_instance(inst))
    wrong = Solution((frozenset(),) * inst.ell, marked=frozenset())
    monkeypatch.setattr(branching, "_extract_solution", lambda ctx, c, completions: wrong)
    assert run(["solve", inst_file]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: extracted solution failed verification")
    assert err.count("\n") == 1


def test_oracle_subcommand(files, capsys):
    write, _ = files
    inst_file = write("f.mlg", serialize_instance(ref_instance("mlce", 1, 2)))
    assert run(["oracle", inst_file]) == 0
    assert "answer yes" in capsys.readouterr().out


def test_oracle_guard_exits_2(files, capsys):
    # k = 5 is past the oracle's k guard; CapabilityError maps to exit 2
    write, tmp = files
    inst_file = write("f.mlg", serialize_instance(ref_instance("mlce", 5, 2)))
    for argv in (["oracle", inst_file], ["solve", "--algo", "oracle", inst_file]):
        assert run(argv + ["--out", str(tmp / "out.sol")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: oracle guard: k=5 > 4\n"
        assert captured.out == ""
        assert not (tmp / "out.sol").exists()
    assert oracle.CapabilityError is core.CapabilityError


def test_pair_tables_past_their_limit_exit_2(files, capsys, monkeypatch):
    # edgeless n=1000 files: both searches refuse before building a table
    write, tmp = files
    monkeypatch.setattr(core, "all_pairs", lambda n: pytest.fail(f"built tables for n={n}"))
    for mode in ("mlce", "tce"):
        text = f"mlg 1\nmode {mode}\nn 1000\nell 2\nk 1\nd 1\nlayer 1\nlayer 2\nend\n"
        inst_file = write(f"big-{mode}.mlg", text)
        assert run(["solve", inst_file, "--out", str(tmp / "out.sol")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: n=1000 needs pair tables of over 1 GiB; the limit is n=512\n"
        assert captured.out == ""
        assert not (tmp / "out.sol").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "kernelize"])
def test_instance_too_large_for_memory_exits_2(files, command):
    # n = 10^12: a list or mask over the vertices cannot be held, so the
    # command fails on its first allocation; the child's address space is
    # capped at 2 GiB, so the test allocates nothing large on any host
    import resource

    write, tmp = files
    inst = write("huge.mlg", "mlg 1\nmode mlce\nn 1000000000000\nell 2\nk 0\nd 0\n"
                             "layer 1\nlayer 2\nend\n")
    argv = [sys.executable, "-m", "layeredit", command, inst]
    if command == "verify":
        argv.append(write("huge.sol", "sol 1\nanswer yes\nend\n"))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(argv, cwd=tmp, env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=cap_memory, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (2, "error: out of memory\n", "")


@pytest.mark.parametrize("argv", [["solve", "{bad}"], ["oracle", "{bad}"], ["kernelize", "{bad}"],
                                  ["generate", "sat", "{bad}"], ["verify", "{bad}", "{sol}"],
                                  ["verify", "{inst}", "{bad}"]])
def test_undecodable_input_exits_2(files, capsys, argv):
    write, tmp = files
    inst = ref_instance("mlce", 1, 2)
    paths = {"inst": write("f.mlg", serialize_instance(inst)),
             "sol": write("f.sol", serialize_solution(ref_mlce_solution_k1_d2(), inst)),
             "bad": str(tmp / "latin1.txt")}
    (tmp / "latin1.txt").write_bytes(b"# caf\xe9\n1 2 3\n")
    out = [] if argv[0] == "verify" else ["--out", str(tmp / "out")]
    assert run([arg.format(**paths) for arg in argv] + out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {paths['bad']}: not UTF-8 text (byte 5)\n"
    assert captured.out == ""
    assert not (tmp / "out").exists()


def test_kernelize_roundtrip(files, capsys):
    write, tmp = files
    inst = ref_instance("mlce", 1, 2)
    inst_file = write("f.mlg", serialize_instance(inst))
    out_file = str(tmp / "kernel.mlg")
    assert run(["kernelize", inst_file, "--out", out_file]) == 0
    text = (tmp / "kernel.mlg").read_text()
    assert "# idmap old->new" in text
    reduced = parse_instance(text)
    assert reduced.mode == "mlce"


@pytest.mark.parametrize("k", [2000, 10**20])
def test_kernelize_output_does_not_grow_with_k(files, capsys, k):
    # the kernel keeps its layers' budgets, so a large k adds nothing to it
    write, tmp = files
    inst_file = write("f.mlg", f"mlg 1\nmode tce\nn 4\nell 2\nk {k}\nd 1\n"
                               "layer 1\n1 2\nlayer 2\nend\n")
    assert run(["kernelize", inst_file, "--out", str(tmp / "kernel.mlg")]) == 0
    text = (tmp / "kernel.mlg").read_text()
    assert len(text.encode()) < 1000
    kernel = parse_instance(text)
    assert (kernel.n, kernel.k, kernel.d) == (2, k, 1)


def test_kernelize_trivial_no(files, capsys):
    write, _ = files
    inst_file = write("f.mlg", serialize_instance(ref_instance("mlce", 0, 0)))
    assert run(["kernelize", inst_file]) == 10
    assert "answer no" in capsys.readouterr().out


def test_generate_planted_deterministic(files, capsys):
    write, tmp = files
    args = ["generate", "planted", "--n", "6", "--ell", "2", "--clusters", "2",
            "--noise", "1", "--seed", "11"]
    assert run(args + ["--out", str(tmp / "a.mlg")]) == 0
    assert run(args + ["--out", str(tmp / "b.mlg")]) == 0
    assert (tmp / "a.mlg").read_text() == (tmp / "b.mlg").read_text()
    inst = parse_instance((tmp / "a.mlg").read_text())
    assert inst.n == 6 and inst.ell == 2 and inst.k == 1


def test_generate_sat(files, capsys):
    write, tmp = files
    formula_file = write("f.cnf", "1 -2 3\n-1 -2 -3\n1 2 -3\n-1 2 3\n")
    assert run(["generate", "sat", formula_file, "--out", str(tmp / "s.mlg")]) == 0
    inst = parse_instance((tmp / "s.mlg").read_text())
    assert inst.n == 24 and inst.d == 14 and inst.k == 0


def test_generate_sat_empty_formula(files, capsys):
    write, tmp = files
    formula_file = write("empty.cnf", "# no clauses\n\n")
    assert run(["generate", "sat", formula_file, "--out", str(tmp / "s.mlg")]) == 2
    assert "no clauses" in capsys.readouterr().err
    assert not (tmp / "s.mlg").exists()


def test_bench_csv_schema(files, capsys):
    write, tmp = files
    out = str(tmp / "bench.csv")
    code = run(["bench", "--mode", "mlce", "--n", "4", "--ell", "2", "--k", "1",
                "--d", "1", "--seeds", "2", "--timeout", "20", "--out", out])
    assert code == 0
    rows = list(csv.reader(io.StringIO((tmp / "bench.csv").read_text())))
    assert rows[0] == ["n", "ell", "k", "d", "algo", "seed", "answer", "millis",
                       "nodes_expanded"]
    assert len(rows) == 3
    assert all(row[6] in ("yes", "no") for row in rows[1:])


def test_bench_single_vertex(files):
    # bench picks the cluster count itself, so n = 1 needs one cluster
    write, tmp = files
    out = str(tmp / "bench.csv")
    assert run(["bench", "--n", "1", "--ell", "2", "--k", "1", "--d", "1",
                "--seeds", "1", "--timeout", "20", "--out", out]) == 0
    rows = list(csv.reader(io.StringIO((tmp / "bench.csv").read_text())))
    assert len(rows) == 2 and rows[1][:4] == ["1", "2", "1", "1"] and rows[1][6] == "yes"


def test_bench_counts_xp_part_nodes(files):
    write, tmp = files
    out = str(tmp / "bench.csv")
    assert run(["bench", "--mode", "tce", "--n", "10", "--ell", "3", "--k", "2",
                "--d", "1", "--seeds", "1", "--timeout", "20", "--out", out]) == 0
    rows = list(csv.reader(io.StringIO((tmp / "bench.csv").read_text())))
    inst = replace(generate_planted(PlantedParams(10, 3, 6, 1, 1, 0), "tce"), k=2, d=1)
    parts = [enumerate_cluster_editing_sets(g, 2) for g in inst.layers]
    assert rows[1][4:7] == ["xp", "0", "yes"]
    assert rows[1][8] == str(sum(map(len, parts)))


@pytest.mark.parametrize("flag, value", [("--timeout", "nan"), ("--timeout", "inf"),
                                         ("--timeout", "-1"), ("--timeout", "0"),
                                         ("--timeout", "3e6"), ("--timeout", "1e10"),
                                         ("--seeds", "-1"), ("--n", "0"), ("--ell", "0"),
                                         ("--k", "-1"), ("--d", "-1"), ("--drift", "-1"),
                                         ("--noise", "-1")])
def test_bench_refuses_out_of_range_numbers(flag, value, capsys):
    # caught by the parser before any instance is built
    code = run(["bench", "--n", "4", "--ell", "2", "--k", "1", "--d", "1", flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


@pytest.fixture
def caller_alarm():
    """A SIGALRM handler of the caller's, which no bench strike may reach."""
    def handler(signum, frame):
        raise AssertionError("SIGALRM reached the caller's handler")
    previous = signal.signal(signal.SIGALRM, handler)
    yield handler
    signal.signal(signal.SIGALRM, previous)


def test_bench_timeout_row_counts_nodes_and_restores_the_timer(files, caller_alarm):
    # the n=20 solve takes seconds; the timer stops it in process, and the
    # n=6 row after it is solved as if nothing had struck
    write, tmp = files
    out = str(tmp / "bench.csv")
    assert run(["bench", "--mode", "tce", "--n", "20", "6", "--ell", "4", "--k", "5",
                "--d", "1", "--seeds", "1", "--timeout", "0.5", "--out", out]) == 0
    assert signal.getsignal(signal.SIGALRM) is caller_alarm
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    rows = list(csv.reader(io.StringIO((tmp / "bench.csv").read_text())))
    assert len(rows) == 3
    assert rows[1][:7] == ["20", "4", "5", "1", "xp", "0", "timeout"]
    assert int(rows[1][8]) > 0 and int(rows[1][7]) < 1500
    assert rows[2][:7] + rows[2][8:] == ["6", "4", "5", "1", "xp", "0", "yes", "227"]


def test_bench_timer_strike_never_escapes_a_solve_that_returns_at_the_cap(caller_alarm):
    # solves that end within 5% of a 1 ms cap, so that strikes land on every
    # side of their return; none may escape or reach the caller's handler
    rng = random.Random(0)

    def solver(seconds, fails):
        def solve(inst, trace, stats):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                stats.nodes += 1
            if fails:
                raise core.InputError("refused")
        return solve

    answers = set()
    for _ in range(1000):
        solve = solver(rng.uniform(0.00095, 0.00105), rng.random() < 0.25)
        answers.add(cli._timed(solve, None, 0.001)[0])
    assert signal.getsignal(signal.SIGALRM) is caller_alarm
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert answers <= {"no", "timeout", "error:InputError"} and "timeout" in answers


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2
