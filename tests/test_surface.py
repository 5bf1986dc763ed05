"""State-sum block dimensions, pants decompositions, Dehn twist eigenvalues."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from wzw import cli
from wzw.errors import InputError
from wzw.fusion import alphabet, fusion_coeff
from wzw.liealg import build_root_system, dual_weight
from wzw.surface import (MarkedSurface, TrivalentGraph, TwistEigenvalue,
                         block_dimension, canonical_graph, dehn_twist_eigenvalue,
                         dumbbell_graph, four_point_graph, theta_graph)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)


@pytest.mark.parametrize("level", range(5))
def test_torus_dimension_counts_alphabet(level):
    assert block_dimension(MarkedSurface(A1, level, 1, ())) == level + 1


def test_torus_a2():
    assert block_dimension(MarkedSurface(A2, 1, 1, ())) == 3
    assert block_dimension(MarkedSurface(A2, 2, 1, ())) == 6


def test_sphere_base_cases():
    assert block_dimension(MarkedSurface(A1, 2, 0, ())) == 1
    assert block_dimension(MarkedSurface(A1, 2, 0, ((0,),))) == 1
    assert block_dimension(MarkedSurface(A1, 2, 0, ((1,),))) == 0
    assert block_dimension(MarkedSurface(A1, 2, 0, ((1,), (1,)))) == 1
    assert block_dimension(MarkedSurface(A1, 2, 0, ((1,), (2,)))) == 0


def test_three_holed_sphere_is_fusion():
    alph = alphabet(A1, 2)
    for labels in itertools.product(alph.labels, repeat=3):
        want = fusion_coeff(alph, *labels)
        assert block_dimension(MarkedSurface(A1, 2, 0, labels)) == want


def test_genus_two_graph_independence():
    surf = MarkedSurface(A1, 1, 2, ())
    assert block_dimension(surf, theta_graph()) == 4
    assert block_dimension(surf, dumbbell_graph()) == 4
    assert block_dimension(surf) == 4


def test_genus_two_higher_level():
    surf = MarkedSurface(A1, 2, 2, ())
    a = block_dimension(surf, theta_graph())
    b = block_dimension(surf, dumbbell_graph())
    assert a == b == 10


@pytest.mark.parametrize("series,rank,level,want", [
    ("B", 2, 1, 10),   # Ising
    ("G", 2, 1, 5),    # Fibonacci
    ("D", 4, 1, 16),   # Z2 x Z2: |G|^2
    ("B", 2, 2, None),
    ("G", 2, 2, None),
], ids=["B2-l1", "G2-l1", "D4-l1", "B2-l2", "G2-l2"])
def test_genus_two_graph_independence_beyond_a(series, rank, level, want):
    surf = MarkedSurface(build_root_system(series, rank), level, 2, ())
    theta = block_dimension(surf, theta_graph())
    assert block_dimension(surf, dumbbell_graph()) == theta
    if want is not None:
        assert theta == want


@pytest.mark.parametrize("level", range(4))
def test_four_point_channel_agreement(level):
    labels = [(m,) for m in range(level + 1)]
    for assignment in itertools.product(labels, repeat=4):
        surf = MarkedSurface(A1, level, 0, assignment)
        s = block_dimension(surf, four_point_graph("s"))
        t = block_dimension(surf, four_point_graph("t"))
        assert s == t, assignment


def test_factorization_identity():
    for level in range(4):
        for genus in (1, 2):
            whole = block_dimension(MarkedSurface(A1, level, genus, ()))
            glued = sum(
                block_dimension(MarkedSurface(A1, level, genus - 1,
                                              (mu, dual_weight(A1, mu))))
                for mu in alphabet(A1, level).labels)
            assert whole == glued


# closed-surface A1 Verlinde numbers, genus 3 to 6
VERLINDE_A1 = {
    1: (8, 16, 32, 64),
    2: (36, 136, 528, 2080),
    3: (120, 800, 5600, 40000),
    4: (329, 3611, 42065, 499955),
    5: (784, 13328, 241472, 4456256),
    6: (1680, 42048, 1122560, 30475264),
}


@pytest.mark.parametrize("level", sorted(VERLINDE_A1))
def test_verlinde_numbers_higher_genus(level):
    got = tuple(block_dimension(MarkedSurface(A1, level, g, ())) for g in range(3, 7))
    assert got == VERLINDE_A1[level]


def test_verlinde_number_level_twelve_genus_six():
    assert block_dimension(MarkedSurface(A1, 12, 6, ())) == 113077051815


def test_dim_is_linear_in_the_genus(capsys):
    # a brute-force sum over 2^5998 labelings, or a vertex order that lets the
    # frontier grow, would not finish
    assert cli.main(["dim", "--algebra", "A1", "--level", "1", "--genus", "2000"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dimension": 2 ** 2000}


def _relabel(graph, perm):
    """The same graph with vertex v renamed perm[v]."""
    return TrivalentGraph(graph.num_vertices,
                          tuple((perm[a], perm[b]) for a, b in graph.edges),
                          tuple(perm[v] for v in graph.legs))


# A2 labels are not self-dual, so an edge end that misses its dual shows
@pytest.mark.parametrize("rs,level,graph,labels", [
    (A1, 3, canonical_graph(3, 2), ((1,), (3,))),
    (A2, 2, canonical_graph(3, 2), ((1, 0), (0, 1))),
    (A2, 2, canonical_graph(1, 3), ((1, 0), (1, 0), (1, 0))),
    (A1, 3, theta_graph(), ()),
    (A2, 2, theta_graph(), ()),
    (A1, 3, dumbbell_graph(), ()),
    (A2, 2, dumbbell_graph(), ()),
], ids=["canonical-3-2-A1", "canonical-3-2-A2", "canonical-1-3-A2", "theta-A1",
        "theta-A2", "dumbbell-A1", "dumbbell-A2"])
def test_vertex_order_independence(rs, level, graph, labels):
    surf = MarkedSurface(rs, level, graph.betti, labels)
    want = block_dimension(surf, graph)
    assert want > 0
    rng = random.Random(0)
    perms = list(itertools.permutations(range(graph.num_vertices)))
    for perm in rng.sample(perms, min(len(perms), 24)):
        assert block_dimension(surf, _relabel(graph, perm)) == want, perm


def test_canonical_graph_keeps_two_edges_open():
    # in index order, the edges with one end visited and one still to come
    for genus in range(7):
        for n_legs in range(6):
            if 2 * genus - 2 + n_legs < 1:
                continue
            graph = canonical_graph(genus, n_legs)
            open_after = [sum(min(a, b) <= v < max(a, b) for a, b in graph.edges)
                          for v in range(graph.num_vertices)]
            assert max(open_after) <= 2, (genus, n_legs)


def test_remove_trivial_labels():
    # boundary circles labeled 0 can be capped off without changing the dimension
    with_zeros = MarkedSurface(A1, 2, 1, ((1,), (0,), (2,), (0,)))
    assert block_dimension(with_zeros) == block_dimension(MarkedSurface(A1, 2, 1, ((1,), (2,))))


def test_canonical_graph_shapes():
    g = canonical_graph(2, 0)
    assert g.num_vertices == 2
    assert g.betti == 2
    assert g.legs == ()
    g = canonical_graph(1, 2)
    assert g.betti == 1
    assert len(g.legs) == 2
    g = canonical_graph(0, 5)
    assert g.betti == 0
    assert g.num_vertices == 3


def test_graph_validation():
    with pytest.raises(InputError):
        TrivalentGraph(2, ((0, 1),), (0,))  # degrees off
    with pytest.raises(InputError):
        TrivalentGraph(4, ((0, 1), (0, 1), (2, 3), (2, 3), (2, 3)), (0, 1))
    with pytest.raises(InputError):
        canonical_graph(-1, 0)
    with pytest.raises(InputError):
        canonical_graph(0, 2)  # no trivalent graph: 2g-2+n = 0


def test_graph_surface_compatibility():
    surf = MarkedSurface(A1, 1, 2, ())
    with pytest.raises(InputError):
        block_dimension(surf, four_point_graph("s"))


def test_twist_eigenvalue_text_forms():
    assert TwistEigenvalue(Fraction(0)).eigenvalue_text() == "1"
    assert TwistEigenvalue(Fraction(1)).eigenvalue_text() == "-1"
    assert TwistEigenvalue(Fraction(1, 2)).eigenvalue_text() == "exp(-i*pi/2)"
    assert TwistEigenvalue(Fraction(3, 4)).eigenvalue_text() == "exp(-i*pi*3/4)"
    with pytest.raises(InputError):
        TwistEigenvalue(Fraction(5, 2))
    with pytest.raises(InputError):
        TwistEigenvalue(Fraction(-1, 2))


def test_dehn_twist_values():
    tw = dehn_twist_eigenvalue(A1, 1, (1,))
    assert tw.exponent == Fraction(1, 2)
    assert tw.eigenvalue_text() == "exp(-i*pi/2)"
    assert dehn_twist_eigenvalue(A1, 2, (2,)).eigenvalue_text() == "-1"
    assert dehn_twist_eigenvalue(A1, 3, (0,)).eigenvalue_text() == "1"


def test_dehn_twist_duality_invariance():
    for mu in alphabet(A2, 2).labels:
        a = dehn_twist_eigenvalue(A2, 2, mu).exponent
        b = dehn_twist_eigenvalue(A2, 2, dual_weight(A2, mu)).exponent
        assert a == b


def test_dehn_twist_rejects_bad_label():
    with pytest.raises(InputError):
        dehn_twist_eigenvalue(A1, 1, (2,))


def test_surface_validation():
    with pytest.raises(InputError):
        MarkedSurface(A1, 1, -1, ())
    with pytest.raises(InputError):
        MarkedSurface(A1, -1, 1, ())
    with pytest.raises(InputError):
        MarkedSurface(A1, 1, 0, ((5,),))
