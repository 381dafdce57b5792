import hashlib
import importlib
from itertools import combinations

import pytest

from layeredit import core
from layeredit.branching import solve_mlce
from layeredit.core import Instance, adj_p3s, layer_from_edges, replace, verify
from layeredit.fileio import PlantedParams, generate_planted, parse_instance, serialize_instance
from layeredit.kernelize import (
    APPLIED,
    NOT_APPLICABLE,
    TRIVIAL_NO,
    apply_rule,
    kernelize,
)
from layeredit.oracle import oracle_mlce, oracle_tce

from conftest import ref_instance, random_instance, random_layers

# the package exports the kernelize function under the module's name
kernelize_module = importlib.import_module("layeredit.kernelize")


def sb_from(mode, layers, budgets, d):
    """The instance on these layers with one edit budget per layer."""
    return Instance(mode, layers[0].n, tuple(layers), max(0, *budgets), d,
                    budgets=tuple(budgets))


def oracle_decision(inst) -> bool:
    """Ground-truth answer for an instance with per-layer budgets."""
    if inst.n == 0:
        return min(inst.edit_budgets) >= 0
    oracle = oracle_mlce if inst.mode == "mlce" else oracle_tce
    return oracle(inst) is not None


def reduce_up_to(sb, rule_id):
    """Exhaust all rules with smaller ids; None when one answers NO."""
    while True:
        for rid in range(1, rule_id):
            status, nxt, _, _ = apply_rule(sb, rid)
            if status == TRIVIAL_NO:
                return None
            if status == APPLIED:
                sb = nxt
                break
        else:
            return sb


def kept_ids(sb, dropped):
    """The ids of ``sb``'s vertices that a removal rule kept, in order."""
    return tuple(v for v in range(1, sb.n + 1) if v not in dropped)


class TestIndividualRules:
    def test_tce_inflates_d(self):
        inst = ref_instance("tce", 1, 1)
        assert inst.d == 1 and kernelize_module._d_effective(inst) == 3
        assert kernelize_module._d_effective(ref_instance("mlce", 2, 1)) == 1

    def test_rule1_negative_budget(self):
        sb = sb_from("mlce", [layer_from_edges(2, [])], [-1], 0)
        status, _, _, _ = apply_rule(sb, 1)
        assert status == TRIVIAL_NO

    def test_rule2_star_edge(self):
        # K(1,3): each center edge lies in 2 >= k+1 induced P3s at k=1
        g = layer_from_edges(4, [(1, 2), (1, 3), (1, 4)])
        sb = sb_from("mlce", [g], [1], 0)
        status, nxt, _, _ = apply_rule(sb, 2)
        assert status == APPLIED
        assert nxt.edit_budgets == (0,)
        assert len(nxt.layers[0].edges) == 2

    def test_rule3_missing_clique_edge(self):
        # K4 minus one edge: the non-edge sits in 2 >= k+1 induced P3s at k=1
        edges = [p for p in combinations(range(1, 5), 2) if p != (1, 2)]
        g = layer_from_edges(4, edges)
        sb = sb_from("mlce", [g], [1], 0)
        status, nxt, _, _ = apply_rule(sb, 3)
        assert status == APPLIED
        assert (1, 2) in nxt.layers[0].edges
        assert nxt.edit_budgets == (0,)

    def test_rule4_too_many_dirty_vertices(self):
        # k=0: a single P3 already touches 3 > 0 vertices
        g = layer_from_edges(3, [(1, 2), (2, 3)])
        sb = sb_from("mlce", [g], [0], 0)
        status, _, _, _ = apply_rule(sb, 4)
        assert status == TRIVIAL_NO

    def test_rule5_removes_shared_triangle(self):
        # P3 on 1..3 in both layers plus an identical triangle on 4..6
        tri = list(combinations([4, 5, 6], 2))
        g1 = layer_from_edges(6, [(1, 2), (2, 3)] + tri)
        g2 = layer_from_edges(6, [(1, 2), (2, 3)] + tri)
        sb = sb_from("mlce", [g1, g2], [2, 2], 0)
        status, nxt, _, dropped = apply_rule(sb, 5)
        assert status == APPLIED
        assert nxt.n == 3
        assert kept_ids(sb, dropped) == (1, 2, 3)

    def test_rule5_requires_agreement_in_every_layer(self):
        # component {1, 2, 3} is connected in both layers but not in their
        # intersection, so it is not a shared component
        g1 = layer_from_edges(3, [(1, 2), (2, 3), (1, 3)])
        g2 = layer_from_edges(3, [(1, 2), (1, 3)])
        sb = sb_from("mlce", [g1, g2], [2, 2], 0)
        sb = reduce_up_to(sb, 5)
        status, _, _, _ = apply_rule(sb, 5)
        assert status == NOT_APPLICABLE

    def test_rule6_shrinks_large_clean_group(self):
        # k=d=0: threshold k+d+3 = 3; the triangle 1,2,3 is a shared clean
        # group, while vertex 4 joins it in layer 1 only, which keeps the
        # component from being identical across layers (so rule 5 stays away)
        g1 = layer_from_edges(4, list(combinations([1, 2, 3, 4], 2)))
        g2 = layer_from_edges(4, list(combinations([1, 2, 3], 2)))
        sb = sb_from("mlce", [g1, g2], [0, 0], 0)
        assert reduce_up_to(sb, 6) == sb  # rules 1-5 leave it alone
        status, nxt, _, dropped = apply_rule(sb, 6)
        assert status == APPLIED
        assert nxt.n == 3
        assert kept_ids(sb, dropped) == (2, 3, 4)

    def test_rule7_oversized_component(self):
        # k=d=0: a clean triangle in layer 1 whose vertices split over two
        # intersection components (so rule 6 stays away)
        g1 = layer_from_edges(3, list(combinations([1, 2, 3], 2)))
        g2 = layer_from_edges(3, [(2, 3)])
        sb = sb_from("mlce", [g1, g2], [0, 0], 0)
        assert reduce_up_to(sb, 7) == sb
        status, _, _, _ = apply_rule(sb, 7)
        assert status == TRIVIAL_NO

    def test_rule8_padded_instance(self):
        # k=d=0 bound is 0 vertices; two layers disagreeing on one edge
        # keep rules 1-7 quiet while 2 vertices remain
        g1 = layer_from_edges(2, [(1, 2)])
        g2 = layer_from_edges(2, [])
        sb = sb_from("mlce", [g1, g2], [0, 0], 0)
        assert reduce_up_to(sb, 8) == sb
        status, _, note, _ = apply_rule(sb, 8)
        assert status == TRIVIAL_NO
        assert "exceed" in note


# Kernel pins: (mode, n, ell, clusters (None: n//2+1), noise, seed, k, d,
# per-layer budgets or None, sha256 of ``kernel_record``) for planted
# instances with drift 1.  The comments name the rules applied and the
# trivial-no rule.
KERNEL_PINS = [
    ("mlce", 20, 3, None, 3, 1, 2, 0, None,
     "a38d217411c0b4affbc4542ca46b2abe8a150be132134f964b6ab4fc0cef6957"),  # rules [1, 2, 3], no=1
    ("mlce", 20, 3, 6, 3, 0, 3, 1, None,
     "169a65788db5a4265264b31d4164cc10d79e476fa2a2c34b0ea41fefbd15c73c"),  # rules [2, 3, 5, 6, 8], no=8
    ("mlce", 20, 3, 6, 3, 0, 3, 2, None,
     "2243e4f39520a6788d036b7f0e9c7003f409e2a2a1a6ab6b92ce7412a2528540"),  # rules [2, 3, 5, 6], no=None
    ("mlce", 20, 4, 3, 1, 0, 3, 0, None,
     "6fa815c903744f24c622a1f2c14e6a2561754ebf9a890c8f6c48b6e54a1ae998"),  # rules [2, 3, 6, 7], no=7
    ("mlce", 20, 4, 6, 3, 0, 3, 2, None,
     "ab8a3d5b57441a5e6ca9bea86e3ada5c4dd9d7f578a1969396a198cf9bc6f793"),  # rules [2, 3, 6], no=None
    ("mlce", 40, 3, 6, 1, 0, 1, 1, None,
     "80a99c74cfa69eb4624a711d2bd024c190e85f2ac67d5c69ba8f900ee5234beb"),  # rules [2, 5, 6, 8], no=8
    ("mlce", 48, 4, None, 1, 5, 3, 3, None,
     "5b8f0f5e87769087da0f8c055a45770ec28b32f6aa1c633942841c1d9e4ff9ad"),  # rules [2, 5], no=None
    ("mlce", 60, 4, None, 1, 0, 3, 2, None,
     "cee385fc36c97d4da6b28cc295cf2ea4d7c5cda3f210ae9a25f680da78242869"),  # rules [5], no=None
    ("tce", 24, 3, None, 4, 2, 2, 1, None,
     "dc7ea8f53abaa12cd0db89961f0ea8cb9d8e3d8194a7d46b1c271c695486bda5"),  # rules [1, 2], no=1
    ("tce", 20, 3, 6, 3, 0, 3, 0, None,
     "c155730443b5b6247d1d128017d62fc5d1f38e2b561042816cb03694c8d109b3"),  # rules [2, 3, 5, 6, 7], no=7
    ("tce", 20, 4, 6, 1, 0, 1, 2, None,
     "42aee5ed78dfb426437c7a893d9c58775a40d14016d73e29acf2c6fef8cf438f"),  # rules [2, 3, 5], no=None
    ("tce", 20, 3, 3, 1, 1, 3, 1, None,
     "3e220f9e1583abf17cefeb906e27715eadb8de06c6efe325667c8a40bbb9bc0d"),  # rules [2, 5, 6], no=None
    ("tce", 30, 3, None, 1, 10, 3, 2, None,
     "b325719a11a5a0726925c623ec0d3d22c0100816102f972be7a534628f2894b0"),  # rules [2, 5], no=None
    ("tce", 40, 4, 6, 1, 1, 3, 1, None,
     "5b94b4442e133b6cf1e654bd3f9d174641965147419e36816f188f6519286f38"),  # rules [2, 3, 5, 6], no=None
    ("tce", 54, 3, None, 1, 14, 3, 1, None,
     "190fcfa1a81269709c547976b9413c98a3382a2e116e3b29de11c08182b7203e"),  # rules [2, 5], no=None
    ("tce", 60, 3, None, 1, 0, 3, 1, None,
     "da241baeba30a7f191f68ec9e44053a4a38ded0f6b3ad13d49f319865f6db5c3"),  # rules [5], no=None
    ("mlce", 24, 3, None, 1, 20, 3, 1, (3, 1, 2),
     "18f47c60fccb26020785241f48bb4a7637d6e6c30b2c1c02a498c9f7ecc059e2"),  # rules [2, 5], no=None
    ("mlce", 30, 4, 6, 3, 22, 3, 2, (3, 2, 3, 1),
     "e62dc3987d08aa5a110da3dc2d5e030e816a0b7c443870e7b9b813434a773991"),  # rules [1, 2], no=1
    ("tce", 30, 3, None, 1, 21, 3, 1, (2, 3, 0),
     "9492aeeb20d70368c90b476503d7c54b1bd02a4aeb11140526baf7654fd9a1fa"),  # rules [1, 2], no=1
    ("tce", 20, 4, 6, 1, 23, 2, 1, (2, 2, 1, 2),
     "a6b5220f105c5202d761c0b25548666be06a3588a1b8d1fccbb941f4b9454da3"),  # rules [2, 5], no=None
]


def kernel_record(inst) -> str:
    """The serialized kernel (or "answer no"), the rule log, the id map and
    the trivial-no rule of ``kernelize(inst)``."""
    result = kernelize(inst)
    kernel = "answer no" if result.reduced is None else serialize_instance(result.reduced)
    return "\n".join([kernel, *result.rule_log, repr(sorted(result.id_map.items())),
                      repr(result.trivial_no_rule)])


def test_kernels_are_pinned():
    for mode, n, ell, clusters, noise, seed, k, d, budgets, digest in KERNEL_PINS:
        params = PlantedParams(n, ell, n // 2 + 1 if clusters is None else clusters, 1, noise, seed)
        inst = replace(generate_planted(params, mode), k=k, d=d)
        if budgets is not None:
            inst = replace(inst, budgets=budgets)
        record = kernel_record(inst).encode()
        assert hashlib.sha256(record).hexdigest() == digest, (mode, n, ell, seed)


class TestKernelize:
    def test_clean_instance_reduces_to_gadget(self):
        # rule 5 removes both shared components and no gadget is padded on:
        # the kernel has no vertex left, reads back from its file and is a yes
        g = layer_from_edges(4, [(1, 2), (3, 4)])
        inst = Instance("mlce", 4, (g, g), 1, 0)
        result = kernelize(inst)
        assert not result.is_no
        assert result.reduced.n == 0
        assert all(v is None for v in result.id_map.values())
        assert parse_instance(serialize_instance(result.reduced)) == result.reduced
        assert verify(result.reduced, solve_mlce(result.reduced)).ok

    def test_ref_yes_preserved(self):
        inst = ref_instance("mlce", 1, 2)
        result = kernelize(inst)
        if result.is_no:
            pytest.fail("kernelization rejected a yes-instance")
        assert oracle_mlce(result.reduced) is not None

    def test_ref_no_preserved(self):
        result = kernelize(ref_instance("mlce", 0, 0))
        if not result.is_no:
            assert oracle_mlce(result.reduced) is None

    def test_dirty_vertices_computed_once_per_instance(self, rng, monkeypatch):
        # rule 3 and rules 4-8 share one P3 scan per layer; an edit rescans
        # only the layer it changed, and a removal rescans none: it renames
        # the scanned P3s (here a shared triangle below a P3 goes first)
        calls = []
        monkeypatch.setattr(core, "adj_p3s", lambda adj: calls.append(adj) or adj_p3s(adj))
        edges = list(combinations([1, 2, 3], 2)) + [(4, 5), (5, 6)]
        cases = [sb_from("mlce", [layer_from_edges(6, edges) for _ in range(2)], [2, 2], 0)]
        cases += [random_instance(rng, "mlce", max_n=8, max_ell=3) for _ in range(20)]
        applied = set()
        for sb in cases:
            del calls[:]
            for rule_id in range(3, 9):
                apply_rule(sb, rule_id)
            assert sorted(map(id, calls)) == sorted(id(g.adj) for g in sb.layers)
            for rule_id in (2, 3, 5, 6):
                status, nxt, _, _ = apply_rule(sb, rule_id)
                if status != APPLIED:
                    continue
                del calls[:]
                for g in nxt.layers:
                    assert g.p3s == tuple(adj_p3s(g.adj))
                changed = [g for g, h in zip(nxt.layers, sb.layers) if g is not h]
                assert calls == ([g.adj for g in changed] if rule_id in (2, 3) else [])
                assert len(changed) == (1 if rule_id in (2, 3) else sb.ell)
                applied.add(rule_id)
                break
        assert {2, 5} <= applied

    def test_id_map_injective(self, rng):
        for _ in range(40):
            inst = random_instance(rng, "mlce")
            result = kernelize(inst)
            if result.is_no:
                continue
            survivors = [v for v in result.id_map.values() if v is not None]
            assert len(survivors) == len(set(survivors))

    def test_vertex_bound(self, rng):
        for mode in ("mlce", "tce"):
            for _ in range(60):
                inst = random_instance(rng, mode)
                result = kernelize(inst)
                if result.is_no:
                    continue
                red = result.reduced
                k = max(red.edit_budgets)
                deff = red.d * (red.ell if mode == "tce" else 1)
                bound = red.ell * (k * k + 2 * k + deff * (k + 2 * deff + 2) + 2 * k)
                assert red.n <= bound

    def test_budgets_never_increase(self, rng):
        for _ in range(40):
            inst = random_instance(rng, "mlce")
            sb = inst
            while True:
                for rid in range(1, 9):
                    status, nxt, _, _ = apply_rule(sb, rid)
                    if status == TRIVIAL_NO:
                        nxt = None
                        break
                    if status == APPLIED:
                        assert max(nxt.edit_budgets) <= max(sb.edit_budgets)
                        assert nxt.d == sb.d and nxt.ell == sb.ell
                        break
                else:
                    nxt = None
                if nxt is None:
                    break
                sb = nxt

    def test_idempotent_size(self, rng):
        for _ in range(30):
            inst = random_instance(rng, "mlce")
            first = kernelize(inst)
            if first.is_no:
                continue
            second = kernelize(first.reduced)
            if not second.is_no:
                assert second.reduced.n <= first.reduced.n

    def test_decision_equivalence(self, rng):
        for mode in ("mlce", "tce"):
            oracle = oracle_mlce if mode == "mlce" else oracle_tce
            for _ in range(60):
                inst = random_instance(rng, mode, max_n=5, max_k=1)
                before = oracle(inst) is not None
                result = kernelize(inst)
                after = (not result.is_no) and oracle(result.reduced) is not None
                assert before == after, (inst, result.rule_log)


def clique_core_instance(rng):
    """Random cluster-graph layers sharing one large clique: rule 6 bait."""
    mode = rng.choice(["mlce", "tce"])
    k = rng.randint(0, 1)
    d = rng.randint(0, 1)
    ell = rng.randint(1, 2)
    d_eff = d * ell if mode == "tce" else d
    core = k + d_eff + 3
    extras = rng.randint(1, 2)
    n = core + extras
    layers = []
    for _ in range(ell):
        edges = list(combinations(range(1, core + 1), 2))
        for x in range(core + 1, n + 1):
            style = rng.choice(["core", "alone", "alone"])
            if style == "core":
                edges.extend((v, x) for v in range(1, core + 1))
        layers.append(layer_from_edges(n, edges))
    return sb_from(mode, layers, [k] * ell, d)


def disjoint_p3_instance(rng):
    """A layer holding two vertex-disjoint P3s at k=1: rule 4 bait."""
    ell = rng.randint(1, 2)
    d = rng.randint(0, 1)
    perm = list(range(1, 7))
    rng.shuffle(perm)
    a, b, c, x, y, z = perm
    dirty = layer_from_edges(6, [(a, b), (b, c), (x, y), (y, z)])
    layers = [dirty]
    from conftest import random_cluster_graph
    while len(layers) < ell:
        layers.append(random_cluster_graph(rng, 6))
    rng.shuffle(layers)
    return sb_from(rng.choice(["mlce", "tce"]), layers, [1] * ell, d)


class TestPerRuleSoundness:
    """Each edit/removal rule preserves the answer on instances where it fires."""

    @pytest.mark.parametrize("rule_id", [2, 3, 5])
    def test_applied_rules(self, rule_id, rng):
        fired = 0
        attempts = 0
        while fired < 60 and attempts < 4000:
            attempts += 1
            mode = rng.choice(["mlce", "tce"])
            n = rng.randint(2, 5)
            ell = rng.randint(1, 3)
            k = rng.randint(0, 1)
            d = rng.randint(0, 1)
            layers = random_layers(rng, n, ell, density=rng.choice([0.3, 0.6, 0.9]))
            sb0 = sb_from(mode, layers, [k] * ell, d)
            sb = reduce_up_to(sb0, rule_id)
            if sb is None:
                continue
            status, nxt, _, _ = apply_rule(sb, rule_id)
            if status != APPLIED:
                continue
            fired += 1
            assert oracle_decision(sb) == oracle_decision(nxt)
        assert fired >= 60, f"rule {rule_id} fired only {fired} times"

    def test_rule6_sound_where_it_fires(self, rng):
        fired = 0
        attempts = 0
        while fired < 60 and attempts < 3000:
            attempts += 1
            sb0 = clique_core_instance(rng)
            sb = reduce_up_to(sb0, 6)
            if sb is None:
                continue
            status, nxt, _, _ = apply_rule(sb, 6)
            if status != APPLIED:
                continue
            fired += 1
            assert oracle_decision(sb) == oracle_decision(nxt)
        assert fired >= 60, f"rule 6 fired only {fired} times"

    def test_rule4_sound_where_it_fires(self, rng):
        fired = 0
        attempts = 0
        while fired < 60 and attempts < 3000:
            attempts += 1
            sb0 = disjoint_p3_instance(rng)
            sb = reduce_up_to(sb0, 4)
            if sb is None:
                continue
            status, _, _, _ = apply_rule(sb, 4)
            if status != TRIVIAL_NO:
                continue
            fired += 1
            assert oracle_decision(sb) is False
        assert fired >= 60, f"rule 4 fired only {fired} times"

    @pytest.mark.parametrize("rule_id", [7, 8])
    def test_rejecting_rules(self, rule_id, rng):
        fired = 0
        attempts = 0
        while fired < 60 and attempts < 4000:
            attempts += 1
            mode = rng.choice(["mlce", "tce"])
            n = rng.randint(2, 6)
            ell = rng.randint(1, 3)
            layers = random_layers(rng, n, ell, density=rng.choice([0.3, 0.6]))
            sb0 = sb_from(mode, layers, [0] * ell, 0)
            sb = reduce_up_to(sb0, rule_id)
            if sb is None:
                continue
            status, _, _, _ = apply_rule(sb, rule_id)
            if status != TRIVIAL_NO:
                continue
            fired += 1
            assert oracle_decision(sb) is False
        assert fired >= 60, f"rule {rule_id} fired only {fired} times"

    def test_rule1_rejects_soundly(self, rng):
        for _ in range(60):
            layers = random_layers(rng, 3, 2)
            sb = sb_from("mlce", layers, [rng.randint(-2, -1), 1], 1)
            status, _, _, _ = apply_rule(sb, 1)
            assert status == TRIVIAL_NO
            assert oracle_decision(sb) is False
