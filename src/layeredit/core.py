"""Data model for multi-layer / temporal graphs and solution checking.

Vertices are dense integers 1..n.  A vertex pair is a tuple (u, v) with
u < v; edge sets and edit sets are frozensets of such pairs.  All values
are immutable after construction and safe to share between workers.

``LayerGraph.adj`` is the package's one adjacency: each vertex's
neighbourhood as an int bitmask, bit v standing for vertex v.  The P3,
component and P3-count routines below, and the callers in ``branching``,
``tcepath`` and ``twolayer``, all read the masks; ``first_p3`` is the one
P3 scan, ``adj_p3s`` the one P3 enumeration (``LayerGraph.p3s`` keeps its
result for the kernel) and ``p3_through_pair`` the one set of P3s through
a vertex pair (its ``bit_count`` their number), on any such mask list and,
for the first two, any vertex mask ``inside``.
``is_cluster_adj`` is the one cluster test and needs no P3: it compares
closed neighbourhoods, O(n) mask operations (each vertex's N[] must equal
that of its smallest member, so adjacent vertices share N[] and every
component is a clique); ``is_cluster_graph`` runs it on a whole layer, as
``find_p3`` runs ``first_p3``, and ``verify`` on each edited layer's masks,
so the cluster tests of ``twolayer``, the oracles and ``verify`` stay
cheap.  ``_toggled_adj`` is the one check-and-toggle of an edit set into a
copy of a layer's masks: ``apply_edits`` builds the edited layer on it, and
``verify`` builds no ``LayerGraph``, frozenset or ``PairIndex`` but
compares the toggled copies row by row.
``PairIndex`` is the one pair encoding: a pair set as an int bitmask over
the positions in ``all_pairs(n)``, with ``cover``, the one vertex-cover
routine on such masks, which the tce sweep's checks and ``branching``'s
route for all-zero budgets share.  Its tables depend on
n alone, so they are built once per n and shared read-only (as tuples)
between solves, for the ``PAIR_TABLE_SIZES`` sizes last used; one size
retains about N^2/16 bytes for its N = n(n-1)/2 pairs, ~1.5 MB at n = 100
and ~25 MB at n = 200, and a size past 1 GiB (n > 512) is refused with a
``CapabilityError`` before anything is built.  ``tcepath``'s enumerator
computes the same bits from each pair's ends, (u-1)(2n-u)/2 + v-u-1, so
it builds no table.
``Instance`` is the one model of edit budgets: every solver, oracle,
``verify`` and the kernel read each layer's own budget from
``Instance.edit_budgets``.  ``Record`` is the base of every record class
of the package, and ``replace`` rebuilds one with some fields changed.
The errors every command maps to an exit code (``InputError``,
``CapabilityError``) and the search counters (``SearchStats``) live here
too, so the CLI reaches them without loading a solver.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

Pair = tuple[int, int]

MLCE = "mlce"
TCE = "tce"
MODES = (MLCE, TCE)


class InputError(ValueError):
    """Raised on malformed user-supplied data (bad pairs, shape mismatch)."""


class CapabilityError(RuntimeError):
    """The instance exceeds the oracle's desk-scale guard."""


class Record:
    """Base of the package's records, the part of ``dataclasses`` they use
    without importing it (that import alone adds ~8 ms to each command).

    A subclass's fields are its base's, then the names annotated in its
    body, in order; a value assigned there is the field's default.  It gets
    an ``__init__`` taking the fields by position or keyword, then calling
    the class's ``__post_init__`` if it has one; equality with records of
    the same class; the dataclass ``repr``; and, unless declared with
    ``mutable=True``, a hash and an ``AttributeError`` on assigning or
    deleting an attribute after ``__init__`` (``object.__setattr__`` still
    writes).
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, mutable: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        params = ", ".join(f"{f}=_cls.{f}" if hasattr(cls, f) else f for f in fields)
        store = "self.{0} = {0}" if mutable else "_set(self, {0!r}, {0})"
        body = [store.format(f) for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        # one generated __init__: a generic *args/**kwargs one would double
        # the cost of building a LayerGraph or a Solution
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        if mutable:
            cls.__hash__ = None
        else:
            cls.__setattr__ = cls.__delattr__ = Record._frozen

    def _frozen(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r} of a frozen "
                             f"{type(self).__qualname__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(obj: Record, **changes):
    """A copy of ``obj`` with the fields in ``changes`` replaced, built by
    its class's ``__init__``, so validation and normalisation run again."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})


class SearchStats(Record, mutable=True):
    """Counters of one search.  ``nodes`` counts the constraints it entered,
    or the calls of ``PairIndex.cover`` where that decides the instance;
    ``pruned_bound`` counts the children it reached and dropped, before
    counting them as nodes, by either of its bounds: the frozen-edit bound
    (which also rejects a layer with more frozen edits than its budget)
    and the disagreement bound.  A child after the one that led to a
    solution is never reached, so it is neither tested nor counted."""

    nodes: int = 0
    max_depth: int = 0
    pruned_bound: int = 0


def pair(u: int, v: int) -> Pair:
    """Canonical unordered vertex pair: smaller endpoint first."""
    if u == v:
        raise InputError(f"degenerate pair ({u}, {v})")
    return (u, v) if u < v else (v, u)


def pairs_of(vertices: Iterable[int]) -> list[Pair]:
    """All canonical pairs within a vertex collection, in lexicographic order."""
    return [pair(u, v) for u, v in combinations(sorted(vertices), 2)]


def all_pairs(n: int) -> tuple[Pair, ...]:
    """All pairs of 1..n in lexicographic order."""
    return tuple(combinations(range(1, n + 1), 2))


class LayerGraph(Record):
    """One layer: a simple graph on vertices 1..n given by its edge set."""

    n: int
    edges: frozenset[Pair]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise InputError(f"edge ({u}, {v}) out of range for n={self.n}")

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Neighbourhoods as vertex bitmasks, indexed 1..n (index 0 unused)."""
        nbrs = [0] * (self.n + 1)
        for u, v in self.edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return tuple(nbrs)

    @cached_property
    def p3s(self) -> tuple[tuple[int, int, int], ...]:
        """``adj_p3s`` of this layer, scanned once."""
        return tuple(adj_p3s(self.adj))

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by smallest contained vertex."""
        adj = self.adj
        comps = []
        left = (1 << (self.n + 1)) - 2  # vertices in no component yet
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                for x in bits(frontier):
                    reach |= adj[x]
                frontier = reach & ~comp
                comp |= frontier
            left &= ~comp
            comps.append(frozenset(bits(comp)))
        return comps


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for each vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bits(mask: int) -> list[int]:
    """Positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


PAIR_TABLE_SIZES = 8  # vertex counts whose pair tables stay cached
PAIR_TABLE_BYTES = 1 << 30  # largest pair tables built for one n: n <= 512


@lru_cache(maxsize=PAIR_TABLE_SIZES)
def _pair_tables(n: int) -> tuple[tuple[Pair, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``PairIndex``'s tables for n vertices: N = n(n-1)/2 distinct pair
    bits of up to N bits each, so about N^2/16 bytes; refused before any
    is built when that passes ``PAIR_TABLE_BYTES``."""
    if (n * (n - 1) // 2) ** 2 // 16 > PAIR_TABLE_BYTES:
        raise CapabilityError(f"n={n} needs pair tables of over 1 GiB; the limit is n=512")
    pairs = all_pairs(n)
    # pair_bit[u][v] == pair_bit[v][u] is the bit of pair (u, v)
    pair_bit = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(pairs):
        pair_bit[u][v] = pair_bit[v][u] = 1 << i
    touching = tuple(sum(row) for row in pair_bit)  # pairs at each vertex (distinct bits)
    return pairs, tuple(map(tuple, pair_bit)), touching


class PairIndex:
    """The package's one pair encoding: a set of vertex pairs of 1..n is an
    int bitmask, a pair's bit being its position in ``all_pairs(n)``, so
    ascending bits are lexicographic pair order.  The tables are tuples
    shared by every index of the same n (``_pair_tables``)."""

    def __init__(self, n: int):
        self.pairs, self.pair_bit, self.touching = _pair_tables(n)

    def pair_mask(self, pairs: Iterable[Pair]) -> int:
        mask = 0
        for p in pairs:
            mask |= self.pair_bit[p[0]][p[1]]
        return mask

    def pair_set(self, mask: int) -> frozenset[Pair]:
        return frozenset(self.pairs[i] for i in bits(mask))

    def touching_mask(self, marked: int) -> int:
        """All pairs with an endpoint among the marked vertices."""
        mask = 0
        for v in bits(marked):
            mask |= self.touching[v]
        return mask

    def matching_exceeds(self, mask: int, room: int) -> bool:
        """Whether a greedy matching of the pairs of ``mask`` (lowest pair
        first, each vertex in at most one pair) holds more than ``room``
        pairs; then no ``room`` vertices touch every pair, as each touches
        at most one matched pair."""
        pairs, touching = self.pairs, self.touching
        matched = 0
        while mask:
            u, v = pairs[(mask & -mask).bit_length() - 1]
            matched += 1
            if matched > room:
                return True
            mask &= ~(touching[u] | touching[v])
        return False

    def cover(self, mask: int, d: int, stats: Optional[SearchStats] = None) -> Optional[int]:
        """A vertex mask of at most d vertices touching every pair of
        ``mask`` (d >= 0), or None if there is none; ``stats.nodes`` counts
        the calls.  The empty cover is the mask 0, so test ``is None``.

        Exact.  The cheap settles come first: at most d pairs are covered
        by their lower ends; every cover holds an end u or v of the lowest
        pair, so at d = 1 two masks settle it; a greedy matching of more
        than d pairs needs more than d vertices; and at d = 2 the cover is
        u or v plus a d = 1 cover of the rest.  Past them, branch and
        reduce (Akiba and Iwata, TCS 2016): the partner of a vertex with
        one pair is in some minimum cover; components have independent
        covers, so of the lowest pair's component and the rest, the side
        with fewer pairs is solved to its minimum and the other within what
        is left; and else a vertex x of maximum degree is in the cover, or
        every partner of x is."""
        if stats is not None:
            stats.nodes += 1
        if mask.bit_count() <= d:  # the lower end of each pair
            found = 0
            while mask:
                found |= 1 << self.pairs[(mask & -mask).bit_length() - 1][0]
                mask &= mask - 1
            return found
        touching = self.touching
        u, v = self.pairs[(mask & -mask).bit_length() - 1]
        if d == 1:
            if not mask & ~touching[u]:
                return 1 << u
            return None if mask & ~touching[v] else 1 << v
        if self.matching_exceeds(mask, d):
            return None
        if d == 2:  # u or v covers the lowest pair, and d = 1 settles the rest
            for w in (u, v):
                found = self.cover(mask & ~touching[w], 1, stats)
                if found is not None:
                    return found | 1 << w
            return None
        degree = [(mask & row).bit_count() for row in touching]
        taken = 0  # the partner of each vertex with one pair not yet covered
        for w, k in enumerate(degree):
            if k == 1 and mask & touching[w]:
                a, b = self.pairs[(mask & touching[w]).bit_length() - 1]
                taken |= 1 << (a + b - w)
                mask &= ~touching[a + b - w]
        if taken:
            return self._take(mask, taken, d, stats)
        part = grown = mask & -mask  # the component of the lowest pair
        while grown:
            grown = mask & self.touching_mask(self._ends(grown)) & ~part
            part |= grown
        if part != mask:  # the side with fewer pairs to its least cover, then the other
            small = min(part, mask ^ part, key=int.bit_count)
            for size in range(1, d + 1):
                least = self.cover(small, size, stats)
                if least is not None:
                    return self._take(mask ^ small, least, d, stats)
            return None
        x = degree.index(max(degree))
        found = self._take(mask, 1 << x, d, stats)
        if found is None:
            found = self._take(mask, self._ends(mask & touching[x]) ^ 1 << x, d, stats)
        return found

    def _take(self, mask: int, taken: int, d: int, stats: Optional[SearchStats]) -> Optional[int]:
        """The vertices of ``taken`` plus a ``cover`` of the pairs of
        ``mask`` they miss, within d in all."""
        size = taken.bit_count()
        if size > d:
            return None
        found = self.cover(mask & ~self.touching_mask(taken), d - size, stats)
        return None if found is None else found | taken

    def _ends(self, mask: int) -> int:
        """Vertex mask of the ends of the pairs of ``mask``."""
        return vertex_mask(w for j in bits(mask) for w in self.pairs[j])


def layer_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> LayerGraph:
    return LayerGraph(n, frozenset(pair(u, v) for u, v in edges))


def apply_edits(g: LayerGraph, m: frozenset[Pair] | set[Pair]) -> LayerGraph:
    """Toggle every pair of ``m`` in ``g`` (symmetric difference); involutive."""
    adj = _toggled_adj(g, m)  # O(n + |m|) from g's, not a rebuild from every edge
    edited = LayerGraph(g.n, g.edges ^ frozenset(m))
    edited.__dict__["adj"] = tuple(adj)
    return edited


def _toggled_adj(g: LayerGraph, m: Iterable[Pair]) -> list[int]:
    """A copy of ``g.adj`` with every pair of ``m`` toggled, after checking
    that each is a canonical pair of 1..n."""
    adj = list(g.adj)
    for u, v in m:
        if not 1 <= u < v <= g.n:
            raise InputError(f"edit pair ({u}, {v}) out of range for n={g.n}")
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return adj


def first_p3(adj: Sequence[int], inside: int) -> Optional[tuple[int, int, int]]:
    """First induced P3 (a, b, c) of the graph with bitmask adjacency ``adj``
    (index 0 unused) restricted to the vertex mask ``inside``: centers b
    ascending, then their neighbours a ascending, then the smallest vertex c
    that b sees and a misses.  None if the restriction is a cluster graph."""
    for b in range(1, len(adj)):
        if not inside >> b & 1:
            continue
        nbrs = adj[b] & inside
        if not nbrs & (nbrs - 1):
            continue  # fewer than two neighbours: b centers no P3
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            # Every c < a that a misses would have come first, missing a.
            missing = nbrs & ~adj[low.bit_length() - 1] & ~low
            if missing:
                return low.bit_length() - 1, b, (missing & -missing).bit_length() - 1
    return None


def find_p3(g: LayerGraph) -> Optional[tuple[int, int, int]]:
    """``first_p3`` on all of g: its first induced P3 (a, b, c), or None if
    g is a cluster graph."""
    return first_p3(g.adj, (1 << (g.n + 1)) - 2)


def is_cluster_graph(g: LayerGraph) -> bool:
    """Whether every connected component of g is a clique
    (``is_cluster_adj`` on all of g)."""
    return is_cluster_adj(g.adj, (1 << (g.n + 1)) - 2)


def is_cluster_adj(adj: Sequence[int], inside: int) -> bool:
    """Whether the graph with bitmask adjacency ``adj`` (index 0 unused),
    restricted to the vertex mask ``inside``, is a cluster graph.

    O(n) mask operations, no P3 scan: with R the restriction and N[v] the
    closed neighbourhood, every v in R must have N[v]&R == N[r]&R for
    r = min(N[v]&R).  That holds in a cluster graph (both are v's
    component).  Conversely, if it holds everywhere and u is in N[v], then
    min(N[u]&R) = min(N[v]&R), as each lies in the other's N[], so
    adjacent vertices share N[] and every component is a clique."""
    rest = inside
    while rest:
        low = rest & -rest
        rest ^= low
        closed = (adj[low.bit_length() - 1] | low) & inside
        first = closed & -closed
        if (adj[first.bit_length() - 1] | first) & inside != closed:
            return False
    return True


def adj_p3s(adj: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """Every induced P3 a - b - c, with a < c, of the graph with bitmask
    adjacency ``adj`` (index 0 unused), lazily: centers b ascending, then a
    ascending, then c > a."""
    for b in range(1, len(adj)):
        nbrs = adj[b]
        if not nbrs & (nbrs - 1):
            continue  # fewer than two neighbours: b centers no P3
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            missing = nbrs & ~adj[a] & -(low << 1)  # c > a that b sees and a misses
            while missing:
                high = missing & -missing
                missing ^= high
                yield a, b, high.bit_length() - 1


def p3_through_pair(adj: Sequence[int], u: int, v: int) -> int:
    """Vertex mask of the w for which {u, v, w} induces a P3 in the graph
    with bitmask adjacency ``adj``: w sees exactly one of u, v if u-v is an
    edge, and both if not."""
    au, av = adj[u], adj[v]
    return (au ^ av if au >> v & 1 else au & av) & ~(1 << u | 1 << v)


class Instance(Record):
    """A multi-layer (mode=mlce) or temporal (mode=tce) editing instance.

    ``budgets`` gives each layer its own edit budget, at most ``k``; a
    negative one makes the instance a no.  ``()``, to which ``k`` in every
    layer is normalised, means ``k`` everywhere, so a uniform instance
    compares equal however it was built and ``replace(inst, k=...)`` keeps
    it uniform.
    """

    mode: str
    n: int
    layers: tuple[LayerGraph, ...]
    k: int
    d: int
    budgets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if not self.layers:
            raise InputError("instance needs at least one layer")
        if any(g.n != self.n for g in self.layers):
            raise InputError("all layers must share the vertex count")
        if self.k < 0 or self.d < 0:
            raise InputError("budgets must be nonnegative")
        budgets = tuple(self.budgets)
        if budgets and (len(budgets) != self.ell or max(budgets) > self.k):
            raise InputError(f"need {self.ell} edit budgets of at most k={self.k}, got {budgets}")
        object.__setattr__(self, "budgets", () if budgets == (self.k,) * self.ell else budgets)

    @property
    def ell(self) -> int:
        return len(self.layers)

    @property
    def edit_budgets(self) -> tuple[int, ...]:
        """The edit budget of each layer."""
        return self.budgets or (self.k,) * self.ell


class Solution(Record):
    """Per-layer edit sets plus marked vertices.

    ``marked`` is the single mark set of an mlce solution; ``marked_per_gap``
    holds one set per consecutive layer pair of a tce solution.  Exactly one
    of the two is present.
    """

    edits: tuple[frozenset[Pair], ...]
    marked: Optional[frozenset[int]] = None
    marked_per_gap: Optional[tuple[frozenset[int], ...]] = None

    def __post_init__(self) -> None:
        if (self.marked is None) == (self.marked_per_gap is None):
            raise InputError("exactly one of marked / marked_per_gap must be set")


class VerifyReport(Record):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(self.violations)


def verify(inst: Instance, sol: Solution) -> VerifyReport:
    """Check a solution against every condition of the problem definition.

    The report lists all violations: edits over the layer's own budget,
    mark-budget overflow, a layer that is not a cluster graph after its
    edits (with ``first_p3``'s witness), and consistency failures (with the
    lowest pair on which two layers differ outside the marks).  An empty
    report means the solution is valid.

    The check applies the edits itself, to a copy of each layer's
    ``LayerGraph.adj``, and reads nothing else a solver built: one
    ``is_cluster_adj`` test per layer, and each pair of layers compared on
    their rows with the marks cleared.  It keeps ell adjacency lists, n^2
    bits per layer.
    """
    if len(sol.edits) != inst.ell:
        raise InputError(f"solution has {len(sol.edits)} edit sets, instance has {inst.ell} layers")
    if inst.mode == MLCE and sol.marked is None:
        raise InputError("mlce solution must carry a single mark set")
    if inst.mode == TCE and sol.marked_per_gap is None:
        raise InputError("tce solution must carry one mark set per layer gap")
    if inst.mode == TCE and len(sol.marked_per_gap) != inst.ell - 1:
        raise InputError(
            f"tce solution has {len(sol.marked_per_gap)} mark sets, expected {inst.ell - 1}")

    violations: list[str] = []
    for i, (m, k_i) in enumerate(zip(sol.edits, inst.edit_budgets), start=1):
        if len(m) > k_i:
            violations.append(f"edit budget exceeded in layer {i}: {len(m)} > k={k_i}")
    mark_sets = [sol.marked] if inst.mode == MLCE else list(sol.marked_per_gap)
    for i, dset in enumerate(mark_sets, start=1):
        if any(not 1 <= v <= inst.n for v in dset):
            raise InputError(f"marked vertex out of range in mark set {i}")
        if len(dset) > inst.d:
            where = "" if inst.mode == MLCE else f" at gap {i}"
            violations.append(f"mark budget exceeded{where}: {len(dset)} > d={inst.d}")

    edited = [_toggled_adj(g, m) for g, m in zip(inst.layers, sol.edits)]
    everything = (1 << (inst.n + 1)) - 2
    for i, adj in enumerate(edited, start=1):
        if not is_cluster_adj(adj, everything):
            a, b, c = first_p3(adj, everything)
            violations.append(
                f"layer {i} is not a cluster graph after edits: induced P3 ({a},{b},{c})")

    if inst.mode == MLCE:
        rows = [_unmarked_rows(adj, sol.marked) for adj in edited]
        for i, j in combinations(range(inst.ell), 2):
            bad = _first_disagreement(rows[i], rows[j])
            if bad is not None:
                violations.append(
                    f"layers {i + 1} and {j + 1} differ outside marks on pair {bad}")
    else:
        for i, marked in enumerate(sol.marked_per_gap):
            bad = _first_disagreement(_unmarked_rows(edited[i], marked),
                                      _unmarked_rows(edited[i + 1], marked))
            if bad is not None:
                violations.append(
                    f"layers {i + 1} and {i + 2} differ outside marks on pair {bad} (gap {i + 1})")
    return VerifyReport(tuple(violations))


def _unmarked_rows(adj: Sequence[int], marked: Iterable[int]) -> list[int]:
    """``adj`` with every marked vertex's row and bit cleared."""
    keep = ~vertex_mask(marked)
    rows = [row & keep for row in adj]
    for v in marked:
        rows[v] = 0
    return rows


def _first_disagreement(rows1: list[int], rows2: list[int]) -> Optional[Pair]:
    """The lowest pair on which two symmetric adjacency lists differ.  Its
    smaller end u is the first differing row: a differing bit v < u would
    make row v differ first."""
    if rows1 == rows2:
        return None
    for u, (r1, r2) in enumerate(zip(rows1, rows2)):
        diff = r1 ^ r2
        if diff:
            return u, (diff & -diff).bit_length() - 1
    return None
