"""Text formats for instances and solutions, plus instance generators.

Instance format (UTF-8, '#' starts a comment, whitespace-separated):

    mlg 1
    mode mlce            # or: tce
    n 5
    ell 3
    k 1
    d 2
    layer 1
    1 2
    ...
    layer 2
    ...
    end

Edges are one per line, 1-based, smaller endpoint first; layers appear in
order 1..ell; the trailing ``end`` is mandatory; n may be 0 (a kernel with
no vertex left).  The first line names the format version, ``mlg 1`` or
``mlg 2`` (``sol 1`` for solutions); any other version is a ``ParseError``.
``mlg 1`` gives every layer the edit budget k; ``mlg 2`` needs one more
header line after ``d``, ``budgets b_1 ... b_ell``, each layer's own budget
(at most k; a negative one makes the instance a no).  ``serialize_instance``
writes ``mlg 2`` only where the budgets differ, so a uniform instance is
always ``mlg 1`` text.  Solution format:

    sol 1
    answer yes           # or: answer no (then nothing else)
    mark 1               # mlce: one 'mark v' line per marked vertex
    markat 1 5           # tce: 'markat i v' means v is marked at gap i
    edit 1 del 4 5
    edit 3 add 4 5
    end
"""

from __future__ import annotations

import random
from typing import Optional

from .core import (
    MLCE,
    MODES,
    TCE,
    InputError,
    Instance,
    LayerGraph,
    Pair,
    Record,
    Solution,
    all_pairs,
    pair,
    pairs_of,
)


class ParseError(InputError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _tokens(text: str):
    """Non-empty, comment-stripped lines as (line number, token list)."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def parse_instance(text: str) -> Instance:
    lines = list(_tokens(text))
    pos = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(len(text.splitlines()) + 1, f"missing {expected!r}")
        line_no, toks = lines[pos]
        pos += 1
        return line_no, toks

    line_no, toks = take("mlg header")
    if toks not in (["mlg", "1"], ["mlg", "2"]):
        raise ParseError(line_no, f"expected 'mlg 1' or 'mlg 2', found {' '.join(toks)!r}")
    # each field is checked as it is read, so an error names the line that holds it
    header: dict[str, str | tuple[int, ...]] = {}
    for field in ("mode", "n", "ell", "k", "d") + (("budgets",) if toks[1] == "2" else ()):
        line_no, toks = take(field)
        if toks[0] != field or (len(toks) != 2 and field != "budgets"):
            raise ParseError(line_no, f"expected '{field} <value>', found {' '.join(toks)!r}")
        if field == "mode" and toks[1] not in MODES:
            raise ParseError(line_no, f"unknown mode {toks[1]!r}")
        try:
            header[field] = toks[1] if field == "mode" else tuple(map(int, toks[1:]))
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer header field: {exc}") from None
        if field in ("n", "ell", "k", "d") and header[field][0] < (1 if field == "ell" else 0):
            raise ParseError(line_no, f"header value out of range: {' '.join(toks)!r}")
    mode, (n,), (ell,), (k,), (d,) = (header[f] for f in ("mode", "n", "ell", "k", "d"))
    budgets = header.get("budgets", ())
    if "budgets" in header and (len(budgets) != ell or max(budgets) > k):
        raise ParseError(line_no, f"expected {ell} budgets of at most k={k}, found {budgets}")

    layers: list[frozenset[Pair]] = []
    current: Optional[set[Pair]] = None
    done = False
    while pos < len(lines):
        line_no, toks = take("layer, edge, or end")
        if toks[0] == "layer":
            if len(toks) != 2:
                raise ParseError(line_no, "expected 'layer <index>'")
            if current is not None:
                layers.append(frozenset(current))
            want = len(layers) + 1
            if toks[1] != str(want):
                raise ParseError(line_no, f"expected 'layer {want}', found 'layer {toks[1]}'")
            if want > ell:
                raise ParseError(line_no, f"layer {want} in a {ell}-layer file")
            current = set()
        elif toks[0] == "end":
            if len(toks) != 1:
                raise ParseError(line_no, f"expected 'end', found {' '.join(toks)!r}")
            if current is not None:
                layers.append(frozenset(current))
            done = True
            break
        else:
            if current is None:
                raise ParseError(line_no, f"unexpected token {toks[0]!r} before first layer")
            if len(toks) != 2:
                raise ParseError(line_no, "expected an edge as two vertex ids")
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError(line_no, f"non-integer edge endpoints {toks!r}") from None
            if not (1 <= u < v <= n):
                raise ParseError(line_no,
                                 f"edge ({u}, {v}) not in range (need 1 <= u < v <= {n})")
            p = (u, v)
            if p in current:
                raise ParseError(line_no, f"duplicate edge ({u}, {v})")
            current.add(p)
    if not done:
        raise ParseError(len(text.splitlines()) + 1, "missing 'end'")
    if pos < len(lines):
        line_no, toks = lines[pos]
        raise ParseError(line_no, f"trailing content after 'end': {' '.join(toks)!r}")
    if len(layers) != ell:
        raise ParseError(line_no, f"found {len(layers)} layers, header says {ell}")
    return Instance(mode, n, tuple(LayerGraph(n, es) for es in layers), k, d, budgets)


def serialize_instance(inst: Instance, comments: tuple[str, ...] = ()) -> str:
    """The ``mlg 1`` text of an instance with one edit budget k in every
    layer, or the ``mlg 2`` text, with its ``budgets`` line, of one whose
    layers' budgets differ."""
    out = [f"# {c}" for c in comments]
    out += [
        f"mlg {2 if inst.budgets else 1}",
        f"mode {inst.mode}",
        f"n {inst.n}",
        f"ell {inst.ell}",
        f"k {inst.k}",
        f"d {inst.d}",
    ]
    if inst.budgets:
        out.append("budgets " + " ".join(map(str, inst.budgets)))
    for i, g in enumerate(inst.layers, start=1):
        out.append(f"layer {i}")
        out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_solution(text: str, inst: Instance) -> Optional[Solution]:
    """Read a solution file; None when it declares 'answer no'."""
    lines = list(_tokens(text))
    if not lines:
        raise ParseError(1, "empty solution file")
    line_no, toks = lines[0]
    if toks != ["sol", "1"]:
        raise ParseError(line_no, f"expected 'sol 1', found {' '.join(toks)!r}")
    if len(lines) < 2 or lines[1][1][0] != "answer" or len(lines[1][1]) != 2:
        raise ParseError(lines[1][0] if len(lines) > 1 else line_no,
                         "expected 'answer yes' or 'answer no'")
    answer = lines[1][1][1]
    if answer == "no":
        if len(lines) != 3 or lines[2][1] != ["end"]:
            raise ParseError(lines[-1][0], "'answer no' must be followed only by 'end'")
        return None
    if answer != "yes":
        raise ParseError(lines[1][0], f"unknown answer {answer!r}")

    edits: list[set[Pair]] = [set() for _ in range(inst.ell)]
    marked: set[int] = set()
    marked_per_gap: list[set[int]] = [set() for _ in range(max(inst.ell - 1, 0))]
    done = False
    for line_no, toks in lines[2:]:
        if done:
            raise ParseError(line_no, "content after 'end'")
        if toks == ["end"]:
            done = True
            continue
        if toks[0] == "mark":
            if inst.mode != MLCE:
                raise ParseError(line_no, "'mark' line in a tce solution (use 'markat')")
            v = _int_at(line_no, toks, 1, count=2)
            if not 1 <= v <= inst.n:
                raise ParseError(line_no, f"marked vertex {v} out of range")
            if v in marked:
                raise ParseError(line_no, f"duplicate mark {v}")
            marked.add(v)
        elif toks[0] == "markat":
            if inst.mode != TCE:
                raise ParseError(line_no, "'markat' line in a mlce solution (use 'mark')")
            if len(toks) != 3:
                raise ParseError(line_no, "expected 'markat <gap> <vertex>'")
            gap, v = _int_at(line_no, toks, 1), _int_at(line_no, toks, 2)
            if not 1 <= gap <= inst.ell - 1:
                raise ParseError(line_no, f"gap {gap} out of range (1..{inst.ell - 1})")
            if not 1 <= v <= inst.n:
                raise ParseError(line_no, f"marked vertex {v} out of range")
            if v in marked_per_gap[gap - 1]:
                raise ParseError(line_no, f"duplicate mark {v} at gap {gap}")
            marked_per_gap[gap - 1].add(v)
        elif toks[0] == "edit":
            if len(toks) != 5 or toks[2] not in ("del", "add"):
                raise ParseError(line_no, "expected 'edit <layer> del|add <u> <v>'")
            layer = _int_at(line_no, toks, 1)
            if not 1 <= layer <= inst.ell:
                raise ParseError(line_no, f"layer {layer} out of range")
            u, v = _int_at(line_no, toks, 3), _int_at(line_no, toks, 4)
            if not (1 <= u <= inst.n and 1 <= v <= inst.n and u != v):
                raise ParseError(line_no, f"edit pair ({u}, {v}) out of range")
            p = pair(u, v)
            present = p in inst.layers[layer - 1].edges
            if toks[2] == "del" and not present:
                raise ParseError(line_no, f"cannot delete absent edge {p} in layer {layer}")
            if toks[2] == "add" and present:
                raise ParseError(line_no, f"cannot add existing edge {p} in layer {layer}")
            if p in edits[layer - 1]:
                raise ParseError(line_no, f"duplicate edit {p} in layer {layer}")
            edits[layer - 1].add(p)
        else:
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")
    if not done:
        raise ParseError(len(text.splitlines()) + 1, "missing 'end'")
    if inst.mode == MLCE:
        return Solution(tuple(frozenset(m) for m in edits), marked=frozenset(marked))
    return Solution(tuple(frozenset(m) for m in edits),
                    marked_per_gap=tuple(frozenset(s) for s in marked_per_gap))


def _int_at(line_no: int, toks: list[str], idx: int, count: Optional[int] = None) -> int:
    if count is not None and len(toks) != count:
        raise ParseError(line_no, f"expected {count} tokens, found {len(toks)}")
    try:
        return int(toks[idx])
    except (ValueError, IndexError):
        raise ParseError(line_no, f"expected an integer at position {idx}") from None


def serialize_solution(sol: Optional[Solution], inst: Instance) -> str:
    out = ["sol 1"]
    if sol is None:
        out += ["answer no", "end"]
        return "\n".join(out) + "\n"
    out.append("answer yes")
    if inst.mode == MLCE:
        out.extend(f"mark {v}" for v in sorted(sol.marked))
    else:
        for gap, dset in enumerate(sol.marked_per_gap, start=1):
            out.extend(f"markat {gap} {v}" for v in sorted(dset))
    for i, m in enumerate(sol.edits, start=1):
        for p in sorted(m):
            action = "del" if p in inst.layers[i - 1].edges else "add"
            out.append(f"edit {i} {action} {p[0]} {p[1]}")
    out.append("end")
    return "\n".join(out) + "\n"


class PlantedParams(Record):
    """Knobs of the planted-clustering generator.

    ``drift_per_layer`` vertices move to another ground-truth cluster
    between consecutive layers; ``noise_edits`` pairs are flipped per layer
    afterwards.  Generation is driven by ``random.Random(seed)`` (Mersenne
    Twister), so output is deterministic per seed within this
    implementation; the emitted comments carry the ground truth.
    """

    n: int
    ell: int
    cluster_count: int
    drift_per_layer: int = 0
    noise_edits: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n, self.ell, self.cluster_count) < 1 or \
                min(self.drift_per_layer, self.noise_edits, self.seed) < 0:
            raise InputError("invalid planted-instance parameters")
        if self.cluster_count > self.n:
            raise InputError("more clusters than vertices")


def generate_planted(params: PlantedParams, mode: str) -> Instance:
    inst, _ = generate_planted_logged(params, mode)
    return inst


def generate_planted_logged(params: PlantedParams, mode: str) -> tuple[Instance, tuple[str, ...]]:
    """Planted instance plus a comment log of the ground truth.

    With zero drift and zero noise every layer is the same cluster graph
    and the instance is a yes at k=0, d=0.  The stored budgets are always
    sufficient: k = noise edits per layer, d = moved vertices (their union
    across all gaps in multi-layer mode).
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    rng = random.Random(params.seed)
    assign = {v: rng.randrange(params.cluster_count) for v in range(1, params.n + 1)}
    log = [f"planted seed={params.seed} clusters={params.cluster_count}"]
    log.append("truth layer 1: " + _assign_str(assign))

    layers = []
    drifted_union: set[int] = set()
    max_gap_drift = 0
    universe = all_pairs(params.n)
    for i in range(params.ell):
        if i > 0 and params.drift_per_layer > 0:
            movers = rng.sample(range(1, params.n + 1),
                                min(params.drift_per_layer, params.n))
            for v in movers:
                assign[v] = rng.randrange(params.cluster_count)
            drifted_union.update(movers)
            max_gap_drift = max(max_gap_drift, len(movers))
            log.append(f"truth layer {i + 1}: moved {sorted(movers)}; " + _assign_str(assign))
        edges = {p for p in universe if assign[p[0]] == assign[p[1]]}
        if params.noise_edits > 0:
            flips = rng.sample(universe, min(params.noise_edits, len(universe)))
            edges ^= set(flips)
            log.append(f"noise layer {i + 1}: flipped {sorted(flips)}")
        layers.append(LayerGraph(params.n, frozenset(edges)))

    d = len(drifted_union) if mode == MLCE else max_gap_drift
    inst = Instance(mode, params.n, tuple(layers), k=params.noise_edits, d=d)
    return inst, tuple(log)


def _assign_str(assign: dict[int, int]) -> str:
    return " ".join(f"{v}:{c}" for v, c in sorted(assign.items()))


class Formula223(Record):
    """A (2,2)-3-SAT formula: clauses of 2-3 literals, every variable
    occurring exactly twice positively and twice negatively."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        pos = {i: 0 for i in range(1, self.n_vars + 1)}
        neg = {i: 0 for i in range(1, self.n_vars + 1)}
        for clause in self.clauses:
            if len(clause) not in (2, 3):
                raise InputError(f"clause {clause} must have 2 or 3 literals")
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.n_vars:
                    raise InputError(f"literal {lit} out of range")
                (pos if lit > 0 else neg)[var] += 1
        for var in range(1, self.n_vars + 1):
            if pos[var] != 2 or neg[var] != 2:
                raise InputError(
                    f"variable {var} occurs {pos[var]}x positive / {neg[var]}x negative, "
                    "need exactly 2 / 2")

    def satisfiable(self) -> bool:
        for bits in range(1 << self.n_vars):
            truth = [bool(bits >> i & 1) for i in range(self.n_vars)]
            if all(any(truth[abs(l) - 1] == (l > 0) for l in clause)
                   for clause in self.clauses):
                return True
        return False


def generate_sat_reduction(formula: Formula223) -> Instance:
    """Three-layer zero-edit instance that is a yes iff the formula is
    satisfiable.

    Per variable there are four vertices (two per occurrence pair); per
    clause one vertex per literal.  Layers one and two pair the variable
    vertices in two crossing perfect matchings (their symmetric difference
    is a disjoint union of 4-cycles) and layer one additionally holds one
    clique per clause; layer three wires each clause vertex to the variable
    vertex of the corresponding literal occurrence.  The mark budget is
    2*n_vars plus, per clause, its size minus one.
    """
    nv = formula.n_vars
    # variable i: x1 = base+1, y1 = base+2, x2 = base+3, y2 = base+4
    def x(i: int, z: int) -> int:
        return 4 * (i - 1) + (1 if z == 1 else 3)

    def y(i: int, z: int) -> int:
        return 4 * (i - 1) + (2 if z == 1 else 4)

    clause_base = []
    nxt = 4 * nv + 1
    for clause in formula.clauses:
        clause_base.append(nxt)
        nxt += len(clause)
    n = nxt - 1

    e1: set[Pair] = set()
    e2: set[Pair] = set()
    e3: set[Pair] = set()
    for i in range(1, nv + 1):
        e1.add(pair(x(i, 1), y(i, 1)))
        e1.add(pair(x(i, 2), y(i, 2)))
        e2.add(pair(x(i, 1), y(i, 2)))
        e2.add(pair(x(i, 2), y(i, 1)))
    for j, clause in enumerate(formula.clauses):
        verts = [clause_base[j] + t for t in range(len(clause))]
        e1.update(pairs_of(verts))
    seen_pos = {i: 0 for i in range(1, nv + 1)}
    seen_neg = {i: 0 for i in range(1, nv + 1)}
    for j, clause in enumerate(formula.clauses):
        for t, lit in enumerate(clause):
            var = abs(lit)
            cv = clause_base[j] + t
            if lit > 0:
                seen_pos[var] += 1
                e3.add(pair(cv, x(var, seen_pos[var])))
            else:
                seen_neg[var] += 1
                e3.add(pair(cv, y(var, seen_neg[var])))

    d = 2 * nv + sum(len(c) - 1 for c in formula.clauses)
    layers = tuple(LayerGraph(n, frozenset(e)) for e in (e1, e2, e3))
    return Instance(MLCE, n, layers, k=0, d=d)


def parse_formula(text: str) -> Formula223:
    """One clause per line, signed integer literals, '#' comments."""
    clauses = []
    max_var = 0
    for line_no, toks in _tokens(text):
        try:
            clause = tuple(int(t) for t in toks)
        except ValueError:
            raise ParseError(line_no, f"non-integer literal in {toks!r}") from None
        if any(l == 0 for l in clause):
            raise ParseError(line_no, "literal 0 is not allowed")
        clauses.append(clause)
        max_var = max(max_var, *(abs(l) for l in clause))
    if not clauses:
        raise ParseError(len(text.splitlines()) + 1, "formula has no clauses")
    return Formula223(max_var, tuple(clauses))
