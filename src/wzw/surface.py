"""Marked surfaces, pants decompositions, and modular-functor dimensions.

Dimensions of the block spaces are computed as state sums over trivalent
graphs: internal edges carry labels from the level-l alphabet, every vertex
contributes a fusion coefficient, and an edge shows one end its label and the
other end the dual.  The sum runs on positions in the alphabet: boundary
labels are translated once, duals come from the alphabet's `dual`
permutation, and each vertex reads a lazily filled fusion row
`alphabet.row(i, j)[k]`.  Base cases (disk, cylinder, sphere, torus) bypass
the graph machinery.

The state sum is contracted in sewing order, the factorization rule
dim V(S) = sum_mu dim V(S'; mu, mu*) applied one cut at a time.  Vertices
are visited in index order; a frontier maps the labels of the open edges
(one end visited) to an integer partial sum, and each vertex multiplies in
its coefficient, opens the edges whose other end comes later and sums out
the edges it closes.  The cost is about sum_v L^(open edges at v + 1) for
an alphabet of L labels.  `canonical_graph` numbers its vertices so that at
most two edges are ever open, so a block dimension costs O(L^3) per vertex,
linear in the genus.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .fusion import FusionAlphabet, alphabet
from .liealg import RootSystem, Weight, casimir_eigenvalue


@dataclass(frozen=True)
class MarkedSurface:
    """A genus-g surface with labeled boundary circles, in a fixed (rs, l)."""

    rs: RootSystem
    level: int
    genus: int
    boundary_labels: tuple[Weight, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise InputError(f"genus {self.genus} is negative")
        alph = alphabet(self.rs, self.level)
        for lam in self.boundary_labels:
            if lam not in alph:
                raise InputError(f"boundary label {lam} is not in the level-{self.level} alphabet")

    @property
    def alphabet(self) -> FusionAlphabet:
        return alphabet(self.rs, self.level)


@dataclass(frozen=True)
class TrivalentGraph:
    """Dual graph of a pants decomposition.

    `edges` are unordered internal edges written as (u, v) vertex pairs
    (u == v for a loop); `legs[i]` is the vertex carrying boundary circle i.
    Every vertex must have total degree 3, loops counting twice.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]

    def __post_init__(self):
        v = self.num_vertices
        if v < 1:
            raise InputError("a trivalent graph needs at least one vertex")
        deg = [0] * v
        adj = [set() for _ in range(v)]
        for a, b in self.edges:
            if not (0 <= a < v and 0 <= b < v):
                raise InputError(f"edge ({a},{b}) leaves the vertex range")
            deg[a] += 1
            deg[b] += 1
            adj[a].add(b)
            adj[b].add(a)
        for a in self.legs:
            if not 0 <= a < v:
                raise InputError(f"leg vertex {a} out of range")
            deg[a] += 1
        bad = [i for i, d in enumerate(deg) if d != 3]
        if bad:
            raise InputError(f"vertices {bad} do not have degree 3")
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(seen) != v:
            raise InputError("graph is not connected")

    @property
    def betti(self) -> int:
        return len(self.edges) - self.num_vertices + 1

    def compatible_with(self, surface: MarkedSurface) -> bool:
        return (self.betti == surface.genus
                and len(self.legs) == len(surface.boundary_labels))


def canonical_graph(genus: int, n_legs: int) -> TrivalentGraph:
    """Caterpillar decomposition: a spine path with legs first, then loops.

    Each loop hangs off the spine by a pendant edge.  The first loop of a
    spine vertex is numbered just before it and any second one just after,
    so in index order at most two edges are open at a time.  Needs
    2g - 2 + n >= 1; the smaller surfaces are all base cases.
    """
    g, n = genus, n_legs
    v = 2 * g - 2 + n
    if v < 1:
        raise InputError(f"(genus {g}, {n} legs) has no trivalent graph; use a base case")
    if v == 1:
        # one vertex: (0,3) bare, or (1,1) with a loop
        edges = tuple((0, 0) for _ in range(g))
        return TrivalentGraph(1, edges, tuple(0 for _ in range(n)))
    if g + n < 3:
        # forced: g=2, n=0 -> dumbbell
        return dumbbell_graph()
    s = g + n - 2  # spine length; s >= 1
    slots = [0, 0, 0] if s == 1 else [0, 0] + list(range(1, s - 1)) + [s - 1, s - 1]
    hanging = [0] * s  # loops per spine vertex
    for slot in slots[n:]:
        hanging[slot] += 1
    order = []  # (spine position, is a loop vertex), in vertex-number order
    for i, h in enumerate(hanging):
        order += [(i, True)] * min(h, 1) + [(i, False)] + [(i, True)] * (h - 1)
    spine = [vtx for vtx, (_, loop) in enumerate(order) if not loop]
    edges = [(spine[i], spine[i + 1]) for i in range(s - 1)]
    for vtx, (i, loop) in enumerate(order):
        if loop:
            edges += [(spine[i], vtx), (vtx, vtx)]  # pendant edge and its loop
    legs = tuple(spine[slot] for slot in slots[:n])
    return TrivalentGraph(len(order), tuple(edges), legs)


def theta_graph() -> TrivalentGraph:
    """Two vertices joined by three parallel edges (genus 2, closed)."""
    return TrivalentGraph(2, ((0, 1), (0, 1), (0, 1)), ())


def dumbbell_graph() -> TrivalentGraph:
    """Two loop vertices joined by a bridge (genus 2, closed)."""
    return TrivalentGraph(2, ((0, 1), (0, 0), (1, 1)), ())


def four_point_graph(channel: str) -> TrivalentGraph:
    """The two pairings of a 4-holed sphere: s = (01)(23), t = (02)(13)."""
    if channel == "s":
        return TrivalentGraph(2, ((0, 1),), (0, 0, 1, 1))
    if channel == "t":
        return TrivalentGraph(2, ((0, 1),), (0, 1, 0, 1))
    raise InputError(f"unknown channel {channel!r}")


def _state_sum(surface: MarkedSurface, graph: TrivalentGraph) -> int:
    """Contract the vertex coefficients over the edge labels, vertex by vertex.

    `frontier` maps the labels of `open_edges`, as their tail ends see them,
    to the partial sum over the labels of the closed edges.  At a vertex a
    state is (leg labels, frontier key, fresh labels) and each end reads one
    position of it: a leg, an open edge it closes, or a fresh edge, which is
    a loop or an edge whose other end comes later.  One such later edge, if
    any, is not enumerated: its label is read off the row N(i, j, .).
    """
    alph = surface.alphabet
    dual, row = alph.dual, alph.row
    labels = range(len(alph.labels))
    ends = [[] for _ in range(graph.num_vertices)]  # (None, leg label) first, then (edge, head?)
    for i, vtx in enumerate(graph.legs):
        ends[vtx].append((None, alph.index(surface.boundary_labels[i])))
    for e, (a, b) in enumerate(graph.edges):
        ends[a].append((e, False))
        ends[b].append((e, True))
    open_edges: list[int] = []
    frontier = {(): 1}
    for vends in ends:
        legs = tuple(x for e, x in vends if e is None)
        slot = {e: len(legs) + p for p, e in enumerate(open_edges)}
        reads, fresh, last = [], [], None
        for e, x in vends:
            if e is None:  # legs come first, so the k-th leg is read at position k
                reads.append((len(reads), False))
            elif e in slot:  # an open edge, or a loop's second end
                reads.append((slot[e], x))
            elif last is None and graph.edges[e][0] != graph.edges[e][1]:
                last, last_head = e, x
            else:  # a loop's first end, or a second edge to a later vertex
                slot[e] = len(legs) + len(open_edges) + len(fresh)
                fresh.append(e)
                reads.append((slot[e], x))
        here = {e for e, _ in vends}
        stay = [e for e in open_edges if e not in here]
        stay += [e for e in fresh if graph.edges[e][0] != graph.edges[e][1]]
        keep = [slot[e] for e in stay]
        (p1, h1), (p2, h2) = reads[:2]
        nxt: dict[tuple, int] = {}
        for key, weight in frontier.items():
            for values in itertools.product(labels, repeat=len(fresh)):
                state = legs + key + values
                coeffs = row(dual[state[p1]] if h1 else state[p1],
                             dual[state[p2]] if h2 else state[p2])
                kept = tuple(state[p] for p in keep)
                if last is None:
                    p3, h3 = reads[2]
                    c = coeffs[dual[state[p3]] if h3 else state[p3]]
                    if c:
                        nxt[kept] = nxt.get(kept, 0) + weight * c
                    continue
                for k, c in enumerate(coeffs):
                    if c:
                        out = kept + (dual[k] if last_head else k,)
                        nxt[out] = nxt.get(out, 0) + weight * c
        frontier = nxt
        open_edges = stay if last is None else stay + [last]
    return sum(frontier.values())


def block_dimension(surface: MarkedSurface, graph: TrivalentGraph | None = None) -> int:
    """dim of the block space, via base cases or a trivalent state sum."""
    g = surface.genus
    labels = surface.boundary_labels
    n = len(labels)
    if graph is not None:
        if not graph.compatible_with(surface):
            raise InputError(f"graph (betti {graph.betti}, {len(graph.legs)} legs) "
                             f"does not match (genus {g}, {n} boundaries)")
        return _state_sum(surface, graph)
    if g == 0 and n == 0:
        return 1
    if g == 0 and n == 1:
        return 1 if labels[0] == (0,) * surface.rs.rank else 0
    if g == 0 and n == 2:
        alph = surface.alphabet
        return int(alph.index(labels[1]) == alph.dual[alph.index(labels[0])])
    if g == 1 and n == 0:
        return len(surface.alphabet.labels)
    return _state_sum(surface, canonical_graph(g, n))


@dataclass(frozen=True)
class TwistEigenvalue:
    """Dehn-twist action exp(-i pi r) on a block summand, r rational in [0,2)."""

    exponent: Fraction

    def __post_init__(self):
        if not 0 <= self.exponent < 2:
            raise InputError(f"exponent {self.exponent} not reduced mod 2")

    def eigenvalue(self) -> complex:
        return cmath.exp(-1j * math.pi * float(self.exponent))

    def eigenvalue_text(self) -> str:
        r = self.exponent
        if r == 0:
            return "1"
        if r == 1:
            return "-1"
        p, q = r.numerator, r.denominator
        return f"exp(-i*pi/{q})" if p == 1 else f"exp(-i*pi*{p}/{q})"


def dehn_twist_eigenvalue(rs: RootSystem, level: int, mu: Weight) -> TwistEigenvalue:
    """Twist along a curve whose cut labels the summand mu: exp(-i pi c_mu/(l+h))."""
    alph = alphabet(rs, level)
    if mu not in alph:
        raise InputError(f"label {mu} is not in the level-{level} alphabet")
    r = Fraction(casimir_eigenvalue(rs, mu), level + rs.dual_coxeter) % 2
    return TwistEigenvalue(r)

