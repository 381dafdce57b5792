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
# per-layer budgets or None, sha256 of ``kernel_record``, sha256 of the rule
# log joined by newlines) for planted instances with drift 1.  The kernel
# digests were computed when rules 5 and 6 still removed one component or
# vertex per application, and must not move.  The comments name the rules
# applied and the trivial-no rule.
KERNEL_PINS = [
    ("mlce", 20, 3, None, 3, 1, 2, 0, None,
     "62077691f84d98d2785138d90c409d74fb27b87cdd9dd6ecfe0cd7ceed7c0674",
     "0666a4cbf35dc24c8a226a021a71f246ebe811e2fdb2aba5737e4561f31eb20a"),  # rules [1, 2, 3], no=1
    ("mlce", 20, 3, 6, 3, 0, 3, 1, None,
     "317bc101addbdfefa8e4739e5bcf2edc15c87104b48b50edfe893c22ffef44af",
     "200da949635bc995746a702ce10495333e080586b3b92162624bc47f4f2b047b"),  # rules [2, 3, 5, 6, 8], no=8
    ("mlce", 20, 3, 6, 3, 0, 3, 2, None,
     "2bcb042cdf030a80047093a712bb5a06eee5400ce4cb3a4d23cfa1a26b315c04",
     "509088a8075d7aacf5bf53f409b263346cb2b36c227a40e4c9ef8bfc7009fc34"),  # rules [2, 3, 5, 6], no=None
    ("mlce", 20, 4, 3, 1, 0, 3, 0, None,
     "a8e817ef936435b4f687dab3aa436042971120a51c360dc15411c2dd5fbb4d6c",
     "0df48fd0135e5bad2280c9f2185fd48024bcde07b2c8a01bfe624a53cb0dfdc7"),  # rules [2, 3, 6, 7], no=7
    ("mlce", 20, 4, 6, 3, 0, 3, 2, None,
     "f2075c44110f2ee69248c54b04a856e1325f9c06c7bc5b8b61df4ebd0a648a08",
     "fb20976f4d5eb8b367aa25fb8cae758873e1da969597701f48fe414dc0d731ce"),  # rules [2, 3, 6], no=None
    ("mlce", 40, 3, 6, 1, 0, 1, 1, None,
     "317bc101addbdfefa8e4739e5bcf2edc15c87104b48b50edfe893c22ffef44af",
     "51b27f40b258b1805594ef9aa251c4654785837835843fbb65976aaf627ff251"),  # rules [2, 5, 6, 8], no=8
    ("mlce", 48, 4, None, 1, 5, 3, 3, None,
     "3d1bd54bd525d9fc7961d4070e099ae53e197b251340bfcc1e26ebb3ef54abb4",
     "7710d94a5e91ef013f060e9b7db607ca7b244864bdfc1595d157ef25525daebc"),  # rules [2, 5], no=None
    ("mlce", 60, 4, None, 1, 0, 3, 2, None,
     "f22f30d3e51d93bd54443d704cbcd23f4a62796b9848a69c271fb7e0ffabe423",
     "44bafff939c4b34b014266b3f63c4328301ccc6a9cd1ced1cbbe67822c3fe353"),  # rules [5], no=None
    ("tce", 24, 3, None, 4, 2, 2, 1, None,
     "62077691f84d98d2785138d90c409d74fb27b87cdd9dd6ecfe0cd7ceed7c0674",
     "7dd9d0609a49552eba43436ad87d9641fd83b8f213f77bbcf2ac3ff16d6cfdd8"),  # rules [1, 2], no=1
    ("tce", 20, 3, 6, 3, 0, 3, 0, None,
     "a8e817ef936435b4f687dab3aa436042971120a51c360dc15411c2dd5fbb4d6c",
     "6ea63733816a3049079affea55d2ba3426029f71f93fbd0ea308b74b887f0cdd"),  # rules [2, 3, 5, 6, 7], no=7
    ("tce", 20, 4, 6, 1, 0, 1, 2, None,
     "190091d6f41c53e4e88fb07640696ba6e003781aaf9c33d180019ad558a658d8",
     "8d419af6b92cd54ca4a29a20ae4e8b7c7ee134ead56d11ca504da79b8f191cbb"),  # rules [2, 3, 5], no=None
    ("tce", 20, 3, 3, 1, 1, 3, 1, None,
     "a30c4e4f6f4751caa8d935f320815faf9d5d69ec68482337afb0803630ef41a7",
     "c40f4fa1b710886dce76bcdb082f2ce41458a48ef4101d30d3bc87c829a5cd35"),  # rules [2, 5, 6], no=None
    ("tce", 30, 3, None, 1, 10, 3, 2, None,
     "8dfa33af45c04bff71ef4da4cb6852d1df5049d26485eefe297f17f27c92e1a9",
     "3c9e1bfc0d2fcdbaba8051b8f7dc2233a1f57c439b6151a9cfb56ba5a35fb0c5"),  # rules [2, 5], no=None
    ("tce", 40, 4, 6, 1, 1, 3, 1, None,
     "c5616bd93ddacbd08a85d482834d74e734c3e1f4a9ad145df5173695dfcb0573",
     "a00993f43c02ae6e65a30341370e75eff42b72c5e6318027bfdd973b6653cf67"),  # rules [2, 3, 5, 6], no=None
    ("tce", 54, 3, None, 1, 14, 3, 1, None,
     "bd3deca50df7686cb3a2acedebaab4f8ca7300fd57918b8a56d0911c85f2498f",
     "c1c21e7c17c00c99fde5cc3dec2e74ce4581c859e9671848a2de933eebabad77"),  # rules [2, 5], no=None
    ("tce", 60, 3, None, 1, 0, 3, 1, None,
     "5e279b6c2f22ffa710480301eb5c70c9d6b7d653e25e99a6d7fb8915950171cc",
     "7332c50ea0eecea09b0377e45b0476b89d6c94bba70ac4946f009c4324e57e7d"),  # rules [5], no=None
    ("mlce", 24, 3, None, 1, 20, 3, 1, (3, 1, 2),
     "5ec70487f9d962c3f9c33f59b23b4eecf020a4a79fa078b2484a88888a3994b1",
     "9b430d495a50fe0428642db9ad72dd429e03f2a95b566d0e11fe43c56fd308b2"),  # rules [2, 5], no=None
    ("mlce", 30, 4, 6, 3, 22, 3, 2, (3, 2, 3, 1),
     "62077691f84d98d2785138d90c409d74fb27b87cdd9dd6ecfe0cd7ceed7c0674",
     "ec0481df950f0ec9fbd3ebd4511a8e8f4e0b0c2d6f07f6f3ddaaac5ee39d5f64"),  # rules [1, 2], no=1
    ("tce", 30, 3, None, 1, 21, 3, 1, (2, 3, 0),
     "62077691f84d98d2785138d90c409d74fb27b87cdd9dd6ecfe0cd7ceed7c0674",
     "e9a17dcf317b730585814fdb59d7eaab64c1177fdbc5017a8c0421a37365f79d"),  # rules [1, 2], no=1
    ("tce", 20, 4, 6, 1, 23, 2, 1, (2, 2, 1, 2),
     "f6010033eac3a4f6b95bcbb62d1c82c85de8e1d29b6d467863e59493c777c488",
     "7367adfb400ba87d9857bf27e705665490b9d4e2b570b6c449a13de9eafe3aba"),  # rules [2, 5], no=None
]


def kernel_record(result) -> str:
    """The serialized kernel (or "answer no"), the id map and the trivial-no
    rule of a ``kernelize`` result."""
    kernel = "answer no" if result.reduced is None else serialize_instance(result.reduced)
    return "\n".join([kernel, repr(sorted(result.id_map.items())), repr(result.trivial_no_rule)])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_kernels_are_pinned():
    for mode, n, ell, clusters, noise, seed, k, d, budgets, kernel, log in KERNEL_PINS:
        params = PlantedParams(n, ell, n // 2 + 1 if clusters is None else clusters, 1, noise, seed)
        inst = replace(generate_planted(params, mode), k=k, d=d)
        if budgets is not None:
            inst = replace(inst, budgets=budgets)
        result = kernelize(inst)
        assert sha256(kernel_record(result)) == kernel, (mode, n, ell, seed)
        assert sha256("\n".join(result.rule_log)) == log, (mode, n, ell, seed)


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
        # only the layer it changed, and a removal rescans each surviving
        # layer once (here a shared triangle below a P3 goes first)
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
                assert calls == [g.adj for g in changed]
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


def removed_one_at_a_time(inst, rule_id):
    """Rule 5 removing the first shared P3-free component, or rule 6 the
    least clean vertex of the first large group: (the instance left, the
    kept ids), or None where the rule does not apply."""
    dirty = {v for g in inst.layers for p3 in adj_p3s(g.adj) for v in p3}
    union = layer_from_edges(inst.n, frozenset().union(*(g.edges for g in inst.layers)))
    inter = layer_from_edges(inst.n, frozenset.intersection(*(g.edges for g in inst.layers)))
    if rule_id == 5:
        shared = [c for c in union.components() if c in inter.components() and not c & dirty]
        doomed = shared[0] if shared else None
    else:
        threshold = max(inst.edit_budgets) + kernelize_module._d_effective(inst) + 3
        groups = [c - dirty for c in inter.components() if len(c - dirty) >= threshold]
        doomed = {min(groups[0])} if groups else None
    if doomed is None:
        return None
    keep = [v for v in range(1, inst.n + 1) if v not in doomed]
    renum = {old: new for new, old in enumerate(keep, start=1)}
    layers = tuple(layer_from_edges(len(keep), [(renum[u], renum[v]) for u, v in g.edges
                                                if u in renum and v in renum])
                   for g in inst.layers)
    return replace(inst, n=len(keep), layers=layers), keep


def kernelize_one_at_a_time(inst):
    """``kernelize`` with one removal per application of rule 5 or 6, after
    which the rules start again at rule 5: (the reduced instance or None, the
    id map, the trivial-no rule)."""
    id_map = dict.fromkeys(range(1, inst.n + 1))
    orig_ids = list(id_map)
    first = 1
    while True:
        for rule_id in range(first, 9):
            if rule_id in (5, 6):
                step = removed_one_at_a_time(inst, rule_id)
                if step is None:
                    continue
                inst, keep = step
                orig_ids = [orig_ids[v - 1] for v in keep]
                first = 5
                break
            status, nxt, _, _ = apply_rule(inst, rule_id)
            if status == TRIVIAL_NO:
                return None, {}, rule_id
            if status == APPLIED:
                inst, first = nxt, 1
                break
        else:
            id_map.update((orig, new) for new, orig in enumerate(orig_ids, start=1))
            return inst, id_map, None


def cross_check_instance(rng, i):
    """A planted instance with 1, 2, n/6 or n/2+1 clusters, a
    ``clique_core_instance`` or a ``random_instance``, by ``i`` mod 3."""
    if i % 3 == 0:
        n, ell = rng.randint(4, 24), rng.randint(1, 4)
        clusters = rng.choice([1, 2, max(1, n // 6), n // 2 + 1])
        params = PlantedParams(n, ell, clusters, 1, rng.randint(0, 3), rng.randrange(1000))
        return replace(generate_planted(params, rng.choice(["mlce", "tce"])),
                       k=rng.randint(0, 3), d=rng.randint(0, 2))
    if i % 3 == 1:
        return clique_core_instance(rng)
    return random_instance(rng, rng.choice(["mlce", "tce"]), max_n=8)


class TestOneApplicationPerRemovalRule:
    def test_same_kernel_as_one_removal_at_a_time(self, rng):
        # Rules 5 and 6 remove all they qualify in one application; a
        # removed vertex lies on no P3 and in a clique of every layer, so the
        # one-at-a-time sequence ends at the same instance, and neither rule
        # (nor an earlier one) applies right after either does.
        hits = {5: 0, 6: 0}
        for i in range(300):
            inst = cross_check_instance(rng, i)
            result = kernelize(inst)
            assert (result.reduced, result.id_map, result.trivial_no_rule) == \
                kernelize_one_at_a_time(inst), inst
            sb = reduce_up_to(inst, 5)
            for rule_id in (5, 6):
                if sb is None:
                    break
                status, nxt, _, _ = apply_rule(sb, rule_id)
                if status == APPLIED:
                    hits[rule_id] += 1
                    assert all(apply_rule(nxt, r)[0] == NOT_APPLICABLE
                               for r in range(1, rule_id + 1)), inst
                    sb = nxt
        assert hits[5] >= 100 and hits[6] >= 30, hits

    def test_edgeless_instance_goes_in_one_rule_5_line(self):
        g = layer_from_edges(800, [])
        result = kernelize(Instance("mlce", 800, (g, g), 1, 0))
        assert result.reduced.n == 0
        assert set(result.id_map) == set(range(1, 801))
        assert all(v is None for v in result.id_map.values())
        assert len(result.rule_log) == 1 and result.rule_log[0].startswith("rule 5: ")
