"""Build pool.json: the base instances of the library workloads and their
expected answers.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_pool.py

Instances come from the planted generator (drift 1, noise 1, n//2+1
clusters) with k and d overridden, over the grids below.  Each answer comes
from the brute-force oracle wherever its guards admit the instance, and
otherwise from the solver of the commit this script runs on; the ``source``
field says which.  Where both ran they must agree, and every relabelled
copy tried must get the same decision.

mlce candidates are kept when the branch solver needs at most NODE_CAP
search nodes on the base labelling and on RELABELS relabelled copies.  That
keeps every op near or under a second, so a cycle holds many instances and
its time varies little from seed to seed.  The tce sizes stay within reach
of the brute-force enumeration and of ``oracle_tce``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import POOL_FILE, encode_layer, instance_text, load_layeredit, relabel  # noqa: E402

NODE_CAP = 12_000
RELABELS = 8

MLCE_GRID = [(n, ell, seed, k, d)
             for n in (16, 18, 20) for ell in (4, 5) for seed in range(4)
             for k, d in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 3))]
TCE_GRID = ([(n, ell, 0, 2, d) for n in (9, 10, 11, 12) for ell in (3, 5) for d in (0, 1, 2)]
            + [(9, 3, 0, 3, 0), (9, 3, 0, 3, 1), (10, 3, 0, 3, 1), (10, 3, 1, 3, 0)])


def base_instance(lib, mode: str, n: int, ell: int, seed: int, k: int, d: int):
    params = lib.PlantedParams(n=n, ell=ell, cluster_count=n // 2 + 1,
                               drift_per_layer=1, noise_edits=1, seed=seed)
    return dataclasses.replace(lib.generate_planted(params, mode), k=k, d=d)


def relabelled(lib, inst, rng: random.Random):
    layers = relabel(inst.n, [sorted(g.edges) for g in inst.layers], rng)
    return lib.parse_instance(instance_text(inst.mode, inst.n, inst.k, inst.d, layers))


def decide(lib, inst):
    """(answer, source, search nodes) for one base instance."""
    if inst.mode == "mlce":
        stats = lib.SearchStats()
        decision = lib.solve_mlce(inst, stats=stats) is not None
        nodes = stats.nodes
        for r in range(RELABELS if nodes <= NODE_CAP else 0):
            stats = lib.SearchStats()
            again = lib.solve_mlce(relabelled(lib, inst, random.Random(r)), stats=stats)
            if (again is not None) != decision:
                raise SystemExit("relabelling changed a decision")
            nodes = max(nodes, stats.nodes)
        oracle, solver = lib.oracle_mlce, "solve_mlce"
    else:
        decision = lib.solve_tce_xp(inst) is not None
        nodes = None
        oracle, solver = lib.oracle_tce, "solve_tce_xp"
    if nodes is not None and nodes > NODE_CAP:
        return None, None, nodes
    try:
        truth = oracle(inst) is not None
    except lib.CapabilityError:
        return ("yes" if decision else "no"), f"{solver} at benchmark creation", nodes
    if truth != decision:
        raise SystemExit(f"{solver} disagrees with {oracle.__name__}")
    return ("yes" if truth else "no"), oracle.__name__, nodes


def main() -> None:
    lib, _ = load_layeredit(Path.cwd())
    pools = {}
    for name, mode, grid in (("mlce-planted", "mlce", MLCE_GRID),
                             ("tce-planted", "tce", TCE_GRID)):
        pool = []
        for n, ell, seed, k, d in grid:
            inst = base_instance(lib, mode, n, ell, seed, k, d)
            answer, source, nodes = decide(lib, inst)
            print(name, (n, ell, seed, k, d), answer, source, nodes, flush=True)
            if answer is None:
                continue
            pool.append({
                "id": f"{mode}-n{n}-l{ell}-s{seed}-k{k}-d{d}", "mode": mode, "n": n,
                "k": k, "d": d, "answer": answer, "source": source,
                "planted": {"clusters": n // 2 + 1, "drift": 1, "noise": 1, "seed": seed},
                "layers": [encode_layer(n, sorted(g.edges)) for g in inst.layers],
            })
        pools[name] = pool
    with open(POOL_FILE, "w", encoding="utf-8") as handle:
        json.dump({"note": "written by make_pool.py; layers are hex bitmasks over the "
                           "pairs (u, v), u < v, in lexicographic order",
                   "workloads": pools}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
