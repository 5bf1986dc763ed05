"""Marked surfaces, pants decompositions, and modular-functor dimensions.

Dimensions of the block spaces are computed as state sums over trivalent
graphs: internal edges carry labels from the level-l alphabet, every vertex
contributes a fusion coefficient, and an edge shows one end its label and the
other end the dual.  The sum runs on positions in the alphabet: boundary
labels are translated once, duals come from the alphabet's `dual`
permutation, and each vertex reads a lazily filled fusion row
`alphabet.row(i, j)[k]`.  Base cases (disk, cylinder, sphere, torus) bypass
the graph machinery.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .fusion import FusionAlphabet, alphabet
from .liealg import RootSystem, Weight, casimir_eigenvalue, dual_weight


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

    Needs 2g - 2 + n >= 1; the smaller surfaces are all base cases.
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
    edges = [(i, i + 1) for i in range(s - 1)]
    legs = tuple(slots[i] for i in range(n))
    nv = s
    for slot in slots[n:]:
        edges.append((slot, nv))   # pendant edge to a loop vertex
        edges.append((nv, nv))
        nv += 1
    return TrivalentGraph(nv, tuple(edges), legs)


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
    alph = surface.alphabet
    dual = alph.dual
    legs = [alph.index(lam) for lam in surface.boundary_labels]
    incid = [[] for _ in range(graph.num_vertices)]  # per-vertex (kind, index)
    for i, vtx in enumerate(graph.legs):
        incid[vtx].append(("leg", i))
    for e, (a, b) in enumerate(graph.edges):
        incid[a].append(("out", e))
        incid[b].append(("in", e))
    total = 0
    for labeling in itertools.product(range(len(alph.labels)), repeat=len(graph.edges)):
        prod = 1
        for ends in incid:
            i, j, k = (legs[idx] if kind == "leg" else
                       labeling[idx] if kind == "out" else dual[labeling[idx]]
                       for kind, idx in ends)
            prod *= alph.row(i, j)[k]
            if prod == 0:
                break
        total += prod
    return total


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
        return 1 if labels[1] == dual_weight(surface.rs, labels[0]) else 0
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

