"""Induced modules of sl2 and of the Heisenberg algebra (the Fock space), Sugawara action, gluing."""

from fractions import Fraction

import pytest

from wzw.errors import InputError, InternalError
from wzw import fock
from wzw.fock import (HEISENBERG, GradedOperator, check_current_bracket,
                      check_sugawara_bracket, commutator, fock_space, gluing_tensor,
                      gram_blocks, induced_module, integrable_quotient, sugawara_op)

# graded dimensions of the level-1 integrable quotients, frozen from the
# Gram-radical computation and equal to the classical character coefficients
QUOTIENT_DIMS = {
    (1, 0): [1, 3, 4, 7, 13, 19, 29],
    (1, 1): [2, 2, 6, 8, 14, 20, 34],
}
FULL_DIMS_MU1 = [2, 6, 18, 44, 102, 216, 442]


def dense_block(op, n):
    """Degree n's block of a GradedOperator as a dense list of rational rows."""
    rows, cols = op.space.dim(n - op.shift), op.space.dim(n)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for (i, j), v in op.entries(n).items():
        out[i][j] = v
    return out


def test_fock_space_dimensions_are_partition_numbers():
    space = fock_space(8)
    assert [space.dim(n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_oscillator_l0_is_minus_degree():
    l0 = sugawara_op(0, fock_space(8))
    for n in range(9):
        blk = dense_block(l0, n)
        for i in range(len(blk)):
            for j in range(len(blk)):
                assert blk[i][j] == (-n if i == j else 0)


def test_oscillator_bracket():
    d = 10
    for k, l in [(1, -1), (2, -2), (0, 3), (-2, 1)]:
        assert check_sugawara_bracket(k, l, fock_space(d)).max_abs() == 0


def test_oscillator_commutator_raw():
    # [a_1, a_{-1}] = 1 on the oscillator space (before any Virasoro dressing)
    d = 6
    space = fock_space(d)
    res = commutator(space.action(1, 0), space.action(-1, 0))
    for n in range(res.window[0], res.window[1] + 1):
        blk = dense_block(res, n)
        for i in range(len(blk)):
            for j in range(len(blk)):
                assert blk[i][j] == (1 if i == j else 0)


def test_virasoro_window_guard():
    with pytest.raises(InputError):
        check_sugawara_bracket(3, 3, fock_space(4))


def test_heisenberg_module_has_only_the_trivial_label():
    with pytest.raises(InputError):
        induced_module(1, 1, 4, HEISENBERG)


def test_modules_of_different_algebras_differ():
    sl2, fock = induced_module(1, 0, 5), fock_space(5)
    assert sl2 != fock
    assert hash(sl2) != hash(fock)
    assert sugawara_op(0, sl2).space is sl2 and sugawara_op(0, fock).space is fock


def test_induced_module_dimensions():
    m = induced_module(1, 1, 6)
    assert [m.dim(n) for n in range(7)] == FULL_DIMS_MU1
    m0 = induced_module(1, 0, 3)
    assert m0.dim(0) == 1


def test_action_respects_level_one_relations():
    # E t^1 then E t^{-1} maps v0 within degree 0; H t^0 reads the weight
    m = induced_module(1, 1, 4)
    h0 = m.action(0, 1)
    blk = dense_block(h0, 0)
    assert sorted(blk[i][i] for i in range(2)) == [-1, 1]


def test_action_is_built_once_and_left_unchanged_by_arithmetic():
    # the operator is cached on the module, so every caller shares its blocks
    module = induced_module(2, 1, 5)
    op, other = module.action(-1, 0), module.action(1, 2)
    assert module.action(-1, 0) is op and module.action(1, 2) is other
    snapshot = [(a.factor, {n: dict(blk) for n, blk in a.blocks.items()})
                for a in (op, other)]
    commutator(op, other)
    op.add(module.action(-1, 2)).sub(op.scale(Fraction(2, 3)))
    op.scale(0).add(op)
    other.compose(op).scale(-1).compose(sugawara_op(1, module))
    assert [(a.factor, a.blocks) for a in (op, other)] == snapshot
    assert module.action(-1, 0).blocks[2] and module.action(-1, 0) is op


def test_quotient_graded_dimensions():
    for (level, mu), dims in QUOTIENT_DIMS.items():
        quot = integrable_quotient(induced_module(level, mu, 6))
        assert [quot.dim(n) for n in range(7)] == dims


def test_level_zero_quotient_is_trivial():
    quot = integrable_quotient(induced_module(0, 0, 3))
    assert [quot.dim(n) for n in range(4)] == [1, 0, 0, 0]


def reference_gram(module):
    """G_0 .. G_d entry by entry: b(u, u') by a memoized recursion on pairs,
    peeling the leading factor of u by b(X t^{-k} w, u') = -b(w, X t^k u')."""
    memo = {}

    def value(u, uprime):
        if (u, uprime) not in memo:
            (mono, vi), (mono2, vj) = u, uprime
            if not mono:
                val = 0 if mono2 or vi + vj != module.mu else (-1) ** vi
            else:
                (k, g), rest = mono[0], mono[1:]
                val = -sum(c * value((rest, vi), melt)
                           for melt, c in module.apply_gen(k, g, uprime).items())
            memo[u, uprime] = val
        return memo[u, uprime]

    return [[[value(u, up) for up in module.basis(n)] for u in module.basis(n)]
            for n in range(module.degree_bound + 1)]


GRAM_LABELS = [(level, mu) for level in range(4) for mu in range(level + 1)]


@pytest.mark.parametrize("level,mu", GRAM_LABELS,
                         ids=[f"l{level}-mu{mu}" for level, mu in GRAM_LABELS])
def test_gram_blocks_match_the_pair_recursion(level, mu):
    module = induced_module(level, mu, 5)
    want = reference_gram(module)
    assert len(want) == 6
    for n, block in enumerate(gram_blocks(module)):
        assert block == want[n], n


def test_gram_blocks_are_sign_symmetric():
    # G_n^T = (-1)^mu G_n, which lets one quotient serve both slots of b
    for level, mu in GRAM_LABELS:
        for g in gram_blocks(induced_module(level, mu, 5)):
            assert all(g[j][i] == (-1) ** mu * g[i][j]
                       for i in range(len(g)) for j in range(len(g)))


def test_quotient_rejects_an_asymmetric_gram_block(monkeypatch):
    real_gram_blocks = fock.gram_blocks

    def skewed(module):
        blocks = real_gram_blocks(module)
        blocks[1][0][1] += 1
        return blocks

    monkeypatch.setattr(fock, "gram_blocks", skewed)
    with pytest.raises(InternalError, match="symmetric"):
        integrable_quotient(induced_module(1, 0, 2))


def _apply_to_vector(module, m, g, vec):
    out = {}
    for key, val in vec.items():
        for key2, val2 in module.apply_gen(m, g, key).items():
            out[key2] = out.get(key2, 0) + val * val2
    return {k: v for k, v in out.items() if v}


def test_null_vector_lies_in_radical():
    # (E t^{-1})^{l-mu+1} v_hw pairs to zero with the whole opposite degree
    for level, mu in [(1, 1), (2, 1)]:
        deg = level - mu + 1
        module = induced_module(level, mu, deg)
        vec = {((), 0): Fraction(1)}
        for _ in range(deg):
            vec = _apply_to_vector(module, -1, 0, vec)
        assert vec, "null vector collapsed to zero before pairing"
        gram = gram_blocks(module)[deg]
        coords = [Fraction(0)] * module.dim(deg)
        for key, val in vec.items():
            coords[module.positions(deg)[key]] = val
        for j in range(module.dim(deg)):
            assert sum(coords[i] * gram[i][j] for i in range(len(coords))) == 0


def test_sugawara_bracket_and_current():
    module = induced_module(1, 0, 6)
    assert check_sugawara_bracket(1, -1, module).max_abs() == 0
    assert check_sugawara_bracket(2, -2, module).max_abs() == 0
    for gen in range(3):
        assert check_current_bracket(1, -1, gen, module).max_abs() == 0
        assert check_current_bracket(-1, 0, gen, module).max_abs() == 0


def _block_values(op):
    return [v for blk in op.blocks.values() for v in blk.values()]


def test_sugawara_blocks_are_integers():
    # the 1/2 of the Casimir and the -1/(l+h) live in the operator's factor
    for module in (induced_module(1, 1, 6), induced_module(2, 2, 6), fock_space(8)):
        for k in range(-2, 3):
            values = _block_values(sugawara_op(k, module))
            assert values and all(type(v) is int for v in values), (module, k)
        for k, l in [(1, -1), (2, -2), (1, 2), (0, -2)]:
            values = _block_values(check_sugawara_bracket(k, l, module))
            assert all(type(v) is int for v in values), (module, k, l)
    assert sugawara_op(0, induced_module(2, 2, 6)).factor == Fraction(-1, 16)


def test_scaled_composition_scales_max_abs():
    module = induced_module(2, 1, 5)
    a, b = sugawara_op(1, module), module.action(-2, 0)
    base = a.compose(b).max_abs()
    assert base != 0
    for c, d in [(Fraction(1, 2), 3), (-2, Fraction(-5, 7)), (Fraction(3, 4), Fraction(4, 3))]:
        assert a.scale(c).compose(b.scale(d)).max_abs() == abs(c * d) * base


def reference_sugawara(k, module):
    """T(D_k) = -C(D_k)/(l + h) operator by operator: each normal-ordered pair
    as two actions, a composition, a scale and a sum, with i = j halved."""
    d = module.degree_bound
    algebra = module.algebra

    def factor_pair(i, j):
        term = None
        for ga, gb, c in algebra.dual_pairs:
            piece = module.action(i, ga).compose(module.action(j, gb)).scale(c)
            term = piece if term is None else term.add(piece)
        return term

    total = GradedOperator(module, k, min(d, d + k), {})
    for j in range(k // 2 + 1, d + 1):
        if abs(k - j) <= d:
            total = total.add(factor_pair(k - j, j))
    if k % 2 == 0 and abs(k // 2) <= d:
        total = total.add(factor_pair(k // 2, k // 2).scale(Fraction(1, 2)))
    return total.scale(Fraction(-1, module.level + algebra.dual_coxeter))


SL2_LABELS = [(level, mu) for level in range(3) for mu in range(level + 1)]


@pytest.mark.parametrize("module", [induced_module(level, mu, 6) for level, mu in SL2_LABELS]
                         + [fock_space(8)],
                         ids=[f"sl2-l{level}-mu{mu}" for level, mu in SL2_LABELS] + ["fock"])
def test_sugawara_matches_the_operator_by_operator_construction(module):
    for k in range(-3, 4):
        got, want = sugawara_op(k, module), reference_sugawara(k, module)
        assert (got.shift, got.hi) == (want.shift, want.hi)
        for n in range(want.hi + 1):
            assert got.entries(n) == want.entries(n), (k, n)


def test_sugawara_l0_eigenvalue():
    module = induced_module(2, 1, 4)
    t0 = sugawara_op(0, module)
    c_mu = Fraction(3, 2)
    for n in range(5):
        blk = dense_block(t0, n)
        want = -(n + c_mu / 8)
        for i in range(len(blk)):
            for j in range(len(blk)):
                assert blk[i][j] == (want if i == j else 0)


def test_current_bracket_window_guard():
    module = induced_module(1, 0, 1)
    with pytest.raises(InputError):
        check_current_bracket(-1, -1, 0, module)


def test_gluing_tensor_shape_and_recursion():
    series = gluing_tensor(1, 1, 4)
    assert len(series.terms) == 5
    assert len(series.terms[0]) == 2  # eps_0 on V_mu, a 2x2 block
    # 3 generators x (5 degrees for n = 0, 4 for each n = +-1, 3 for each n = +-2)
    assert len(series.residuals) == 57
    for n, gen, dp, worst in series.residuals:
        assert worst == 0, (n, gen, dp)


def test_gluing_eps0_inverts_pairing():
    series = gluing_tensor(1, 0, 2)
    gram0 = series.quotient.gram[0]
    eps0 = series.terms[0]
    assert len(eps0) == 1
    assert Fraction(gram0[0][0]) * eps0[0][0] == 1


def test_induced_module_rejects_bad_input():
    with pytest.raises(InputError):
        induced_module(1, 2, 4)
    with pytest.raises(InputError):
        induced_module(-1, 0, 4)
    with pytest.raises(InputError):
        induced_module(1, 0, -2)
