"""Truncated graded induced modules of current algebras, with exact window tracking.

Every operator here is a GradedOperator: a band of integer matrices between
graded pieces, one rational factor, and the degree window [0, hi] on which
the truncation agrees with the true operator (degrees below 0 are empty).
`InducedModule.action` fills each current column by column from the
straightening; a Sugawara block holds 4C(D_k), summed from current products.
Compositions take the smaller top edge, so identity checks on a window are
honest statements about the untruncated algebra.  A bracket residual is one
sum: `commutator` composes a b on the residual's window only and adds -b a
and the identity's linear terms into its fresh blocks, over one common
factor; `_mm` is the one sparse product, indexing the smaller factor of each.

One construction serves every current algebra g with an invariant form: the
module induced from a g-irrep at level l, and the Sugawara operators on it.
Sign conventions, pinned once:

* X t^k for k >= 1 annihilates the irrep and moves past creation factors by
  [X t^k, Y t^m] = [X, Y] t^{k+m} + k delta_{k+m,0} c(X, Y) l; X t^0 acts
  through the irrep;
* T(D_k) := -C(D_k)/(l + h) with h the dual Coxeter number, where
  C(D_k) = (1/2) sum_{i+j=k} sum_a :X_a t^i X^a t^j: over dual bases of c and
  normal ordering applies the higher exponent first; then
  [T(D_k), X t^m] = m X t^{m+k}, and T(D_k) satisfies the Virasoro relations
  with central charge c = l dim(g)/(l + h);
* for sl2 (h = 2), T(D_0) acts on degree d as -(d + c_mu/(2(l+2)));
* the c = 1 oscillator Virasoro L_k is the Heisenberg case (dim g = 1, h = 0)
  at level 1 on the Fock space `fock_space(d)`: for k > 0, t^k removes a
  part k with coefficient k times its multiplicity, t^{-k} adds one, t^0
  acts as zero, L_0 = -n on degree n and
  [L_k, L_l] = (l-k) L_{k+l} + delta_{k+l,0} (k^3-k)/12.

The induced module uses the PBW basis of monomials X t^{-k_r} ... X t^{-k_1} v
with factors sorted descending; straightening (`InducedModule.apply_gen`) is
exact integer arithmetic.  The currents are filled from it, and the Gram
blocks of the contravariant pairing (`gram_blocks`, one degree at a time) are
read through the cached currents.  The gluing recursion is checked on integer
pairings; eps_n = H_n^-T is the only rational matrix the gluing tensor holds.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .errors import InputError, InternalError
from .linalg import IntSpan, identity, invert, mat_mul, sl2_irrep_matrices, transpose


# ---------------------------------------------------------------------------
# current algebras and their induced modules

class CurrentAlgebra(namedtuple("CurrentAlgebra", "gen_names bracket form dual_pairs "
                                                   "dual_coxeter irrep")):
    """A Lie algebra with an invariant form, as the Sugawara construction reads it.

    Generators are indexed by position in `gen_names`.  `bracket[(a, b)]`
    lists the (c, coefficient) terms of [X_a, X_b], `form[(a, b)]` is the
    invariant form c(X_a, X_b), `dual_pairs` lists the (a, b, coefficient)
    terms of the Casimir sum over dual bases, `dual_coxeter` is h, and
    `irrep(mu)` returns the generator matrices on the (mu+1)-dim irrep
    labelled mu, whose basis vector v_i has weight mu - 2i.  Read-only, and
    equal only to itself, so it keys the `induced_module` cache by identity.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other


def _sl2_irrep(mu: int) -> tuple:
    rep = sl2_irrep_matrices(mu)
    return (rep.E, rep.H, rep.F)


def _heisenberg_irrep(mu: int) -> tuple:
    if mu != 0:
        raise InputError(f"the Heisenberg algebra has only the label 0, got {mu}")
    return (((0,),),)


# sl2 generators are indexed E, H, F; brackets and the normalized invariant
# form fixed by [E,F] = H, [H,E] = 2E, c(E,F) = 1, c(H,H) = 2; the Casimir
# is E(x)F + F(x)E + H(x)H/2
SL2 = CurrentAlgebra(
    gen_names=("E", "H", "F"),
    bracket={(0, 1): ((0, -2),), (1, 0): ((0, 2),),
             (0, 2): ((1, 1),), (2, 0): ((1, -1),),
             (1, 2): ((2, -2),), (2, 1): ((2, 2),)},
    form={(0, 2): 1, (2, 0): 1, (1, 1): 2},
    dual_pairs=((0, 2, 1), (2, 0, 1), (1, 1, Fraction(1, 2))),
    dual_coxeter=2, irrep=_sl2_irrep)

# one abelian generator t with c(t, t) = 1; its level-1 induced module is the
# oscillator Fock space
HEISENBERG = CurrentAlgebra(
    gen_names=("t",), bracket={}, form={(0, 0): 1},
    dual_pairs=((0, 0, 1),), dual_coxeter=0, irrep=_heisenberg_irrep)


@lru_cache(maxsize=None)
def _colored_partitions(n: int, colors: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Multisets of factors (k, gen), k >= 1, gen < colors, summing to n, sorted descending."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, bound, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for k in range(min(remaining, bound[0]), 0, -1):
            gens = range(bound[1], -1, -1) if k == bound[0] else range(colors - 1, -1, -1)
            for g in gens:
                rec(remaining - k, (k, g), acc + [(k, g)])

    rec(n, (n, colors - 1), [])
    return tuple(sorted(out))


# the one read-only result of every X t^m that kills its element
_NO_TERMS = MappingProxyType({})


class InducedModule:
    """Level-l module induced from the (mu+1)-dim irrep of a current algebra, truncated at d.

    Basis elements are pairs (mono, i): the monomial of creation factors
    (k, gen) applied to the weight vector v_i.  The central element acts as
    the level; X t^k for k >= 1 kills V_mu; X t^0 acts through the irrep.
    Build modules with `induced_module`, which keeps one per argument tuple:
    a module is equal only to itself.
    """

    def __init__(self, level: int, mu: int, degree_bound: int,
                 algebra: CurrentAlgebra = SL2):
        if not isinstance(level, int) or level < 0:
            raise InputError(f"level must be a nonnegative integer, got {level!r}")
        if not isinstance(mu, int) or mu < 0 or mu > level:
            raise InputError(f"label {mu} is not in the level-{level} alphabet")
        if degree_bound < 0:
            raise InputError("degree bound must be nonnegative")
        self.level = level
        self.mu = mu
        self.degree_bound = degree_bound
        self.algebra = algebra
        self._mats = algebra.irrep(mu)
        self._colors = len(algebra.gen_names)
        self._memo: dict = {}
        self._index: dict = {}
        self._actions: dict = {}

    def basis(self, n: int):
        if n < 0:
            return ()
        return tuple((mono, i) for mono in _colored_partitions(n, self._colors)
                     for i in range(self.mu + 1))

    def dim(self, n: int) -> int:
        return 0 if n < 0 else len(_colored_partitions(n, self._colors)) * (self.mu + 1)

    def positions(self, n: int) -> dict:
        """Basis element -> its position in basis(n)."""
        if n not in self._index:
            self._index[n] = {e: i for i, e in enumerate(self.basis(n))}
        return self._index[n]

    def apply_gen(self, m: int, g: int, elt) -> Mapping:
        """X_g t^m applied to a basis element; integer coefficients.

        The result is memoized and shared; every empty one is `_NO_TERMS`.
        """
        key = (m, g, elt)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        mono, vi = elt
        out: dict = {}
        if not mono:
            if m < 0:
                out[((-m, g),), vi] = 1
            elif m == 0:
                mat = self._mats[g]
                for r in range(self.mu + 1):
                    if mat[r][vi]:
                        out[(), r] = mat[r][vi]
            # m >= 1 kills V_mu
        else:
            head, rest = mono[0], mono[1:]
            if m < 0 and (-m, g) >= head:
                out[((-m, g),) + mono, vi] = 1
            else:
                hk, hg = head
                for melt, c in self.apply_gen(m, g, (rest, vi)).items():
                    for melt2, c2 in self.apply_gen(-hk, hg, melt).items():
                        out[melt2] = out.get(melt2, 0) + c * c2
                for g2, coef in self.algebra.bracket.get((g, hg), ()):
                    for melt, c in self.apply_gen(m - hk, g2, (rest, vi)).items():
                        out[melt] = out.get(melt, 0) + coef * c
                if m == hk:
                    kappa = self.algebra.form.get((g, hg), 0)
                    if kappa:
                        tgt = (rest, vi)
                        out[tgt] = out.get(tgt, 0) + m * kappa * self.level
        out = {k: v for k, v in out.items() if v} or _NO_TERMS
        self._memo[key] = out
        return out

    def action(self, m: int, g: int) -> "GradedOperator":
        """X_g t^m as a GradedOperator (shift m) on the truncation, built once per (m, g).

        Column col of block n holds X_g t^m of basis(n)[col].  Callers share
        the returned operator: `GradedOperator` arithmetic builds new blocks
        and leaves the blocks of its operands as they are.
        """
        op = self._actions.get((m, g))
        if op is None:
            d = self.degree_bound
            hi = min(d, d + m)
            blocks = {}
            for n in range(hi + 1):
                rows = self.positions(n - m)
                blocks[n] = {(rows[melt], col): c
                             for col, elt in enumerate(self.positions(n))
                             for melt, c in self.apply_gen(m, g, elt).items()}
            op = self._actions[m, g] = GradedOperator(self, m, hi, blocks)
        return op


@lru_cache(maxsize=None)
def induced_module(level: int, mu: int, degree_bound: int,
                   algebra: CurrentAlgebra = SL2) -> InducedModule:
    return InducedModule(level, mu, degree_bound, algebra)


def fock_space(degree_bound: int) -> InducedModule:
    """The oscillator Fock space: the level-1 Heisenberg module, basis = partitions."""
    return induced_module(1, 0, degree_bound, HEISENBERG)


# ---------------------------------------------------------------------------
# graded operators

def _mm(out: dict, w: int, a: dict, b: dict) -> dict:
    """Add the entries of w * a b into out and return it; zeros are left for the caller.

    The smaller factor is indexed, b by row or a by column, and the other streamed.
    """
    if not a or not b:
        return out
    if len(b) <= len(a):
        rows: dict = {}
        for (k, j), v in b.items():
            rows.setdefault(k, []).append((j, w * v))
        for (i, k), u in a.items():
            for j, v in rows.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, 0) + u * v
    else:
        cols: dict = {}
        for (i, k), u in a.items():
            cols.setdefault(k, []).append((i, w * u))
        for (k, j), v in b.items():
            for i, u in cols.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, 0) + u * v
    return out


def _nonzero(blk: dict) -> dict:
    return {k: v for k, v in blk.items() if v}


class GradedOperator(namedtuple("GradedOperator", "space shift hi blocks factor")):
    """Band matrix between graded pieces, valid on input degrees [0, hi].

    Maps degree n to degree n - shift; blocks[n] is the sparse integer matrix
    {(row, col): value} from basis(n) to basis(n - shift), held for
    0 <= n <= hi only.  The operator is `factor` times its blocks; the factor
    is its one rational number, applied once where entries are read out
    (`entries`, `max_abs`).  Read-only: the cached operators are shared by every caller.
    """

    __slots__ = ()

    def __new__(cls, space, shift: int, hi: int, blocks: dict,
                factor: Fraction = Fraction(1)):
        if hi < 0:
            raise InputError(f"a shift-{shift} operator has an empty valid window "
                             f"at degree bound {space.degree_bound}")
        return super().__new__(cls, space, shift, hi, blocks, factor)

    def block(self, n: int) -> dict:
        if n > self.hi:
            raise InputError(f"degree {n} outside valid window {(0, self.hi)}")
        return self.blocks.get(n, {})

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """self applied after other."""
        if self.space != other.space:
            raise InternalError("composing operators on different spaces")
        hi = min(other.hi, self.hi + other.shift)
        blocks = {}
        for n in range(hi + 1):
            blocks[n] = _nonzero(_mm({}, 1, self.blocks.get(n - other.shift, {}),
                                     other.blocks.get(n, {})))
        return GradedOperator(self.space, self.shift + other.shift, hi, blocks,
                              self.factor * other.factor)

    def max_abs(self) -> Fraction:
        top = max((abs(v) for blk in self.blocks.values() for v in blk.values()), default=0)
        return abs(self.factor) * top

    def entries(self, n: int) -> dict:
        """The nonzero rational entries {(row, col): value} of degree n's block."""
        return {key: self.factor * v for key, v in self.block(n).items()}


def commutator(a: GradedOperator, b: GradedOperator, *terms) -> GradedOperator:
    """[a, b] minus the sum of c * op over the (c, op) in terms, in one pass.

    The window is the least of those of a b, b a and every term, one of
    coefficient 0 included, and a b is composed on that window only.  Its
    fresh blocks take -b a and the terms in place, over one common factor
    with the sign of a b's, so they are rescaled only where a term's factor
    is not an integer multiple of a b's.
    """
    hi = min(b.hi, a.hi + b.shift, a.hi, b.hi + a.shift, *(op.hi for _, op in terms))
    # b's blocks seen through the window [0, hi]
    ab = a.compose(GradedOperator(b.space, b.shift, hi, b.blocks, b.factor))
    if any(op.space != ab.space or op.shift != ab.shift for _, op in terms):
        raise InternalError("adding incompatible graded operators")
    terms = [(c * op.factor, op.blocks) for c, op in terms if c]
    factors = [ab.factor] + [f for f, _ in terms]
    # gcd(numerators)/lcm(denominators) divides each factor to an integer
    common = Fraction(gcd(*(f.numerator for f in factors)), lcm(*(f.denominator for f in factors)))
    if ab.factor < 0:
        common = -common
    w = int(ab.factor / common)
    weights = [(-int(f / common), op_blocks) for f, op_blocks in terms]
    blocks = {}
    for n in range(hi + 1):
        blk = ab.blocks[n]
        if w != 1:
            for key in blk:
                blk[key] *= w
        _mm(blk, -w, b.blocks.get(n - a.shift, {}), a.blocks.get(n, {}))
        for c, op_blocks in weights:
            for key, v in op_blocks.get(n, {}).items():
                blk[key] = blk.get(key, 0) + c * v
        blocks[n] = _nonzero(blk)
    return GradedOperator(a.space, ab.shift, hi, blocks, common)


# ---------------------------------------------------------------------------
# Sugawara operators

@lru_cache(maxsize=None)
def sugawara_op(k: int, module: InducedModule) -> GradedOperator:
    """T(D_k) = -C(D_k)/(level + h) on the induced-module truncation.

    Each block holds the integer 4 C(D_k), summed from the cached currents:
    X_a t^i after X^a t^j, for i + j = k and i <= j, weighs 2c, doubled if
    i < j.  No product is truncated: its middle degree never exceeds d.
    """
    d = module.degree_bound
    hi = min(d, d + k)
    terms = [((2 if k - j < j else 1) * int(2 * c), j,
              module.action(k - j, ga).blocks, module.action(j, gb).blocks)
             for j in range(-(-k // 2), d + 1) if abs(k - j) <= d
             for ga, gb, c in module.algebra.dual_pairs]
    blocks = {}
    for n in range(hi + 1):
        blk: dict = {}
        for w, j, a, b in terms:
            _mm(blk, w, a.get(n - j, {}), b.get(n, {}))
        blocks[n] = _nonzero(blk)
    return GradedOperator(module, k, hi, blocks,
                          Fraction(-1, 4 * (module.level + module.algebra.dual_coxeter)))


def check_sugawara_bracket(k: int, l: int, module: InducedModule) -> GradedOperator:
    """Residual of [T(D_k), T(D_l)] = (l-k) T(D_{k+l}) + central; contract: zero.

    The central scalar is delta_{k+l,0} (k^3-k)/12 * c with the central charge
    c = level * dim(g)/(level + h): 3l/(l+2) for sl2, 1 for the Fock space.
    """
    d = module.degree_bound
    big = max(abs(k), abs(l))
    if d < 2 * big + 2:
        raise InputError(f"degree bound {d} < {2 * big + 2} leaves no usable window")
    terms = [(l - k, sugawara_op(k + l, module))]
    if k + l == 0:
        algebra = module.algebra
        charge = Fraction(module.level * len(algebra.gen_names),
                          module.level + algebra.dual_coxeter)
        central = Fraction(k ** 3 - k, 12) * charge
        if central:
            unit = {n: {(i, i): 1 for i in range(module.dim(n))} for n in range(d + 1)}
            terms.append((central, GradedOperator(module, 0, d, unit)))
    return commutator(sugawara_op(k, module), sugawara_op(l, module), *terms)


def check_current_bracket(k: int, m: int, g: int, module: InducedModule) -> GradedOperator:
    """Residual of [T(D_k), X t^m] = m X t^{m+k}; contract: zero.

    D_k acts on Laurent polynomials as t^{k+1} d/dt, so D_k t^m = m t^{m+k}.
    """
    d = module.degree_bound
    if d - max(0, -k) - max(0, -m) < 0:
        raise InputError(f"degree bound {d} leaves no usable window for k={k}, m={m}")
    terms = [(m, module.action(m + k, g))] if m else []
    return commutator(sugawara_op(k, module), module.action(m, g), *terms)


# ---------------------------------------------------------------------------
# contravariant pairing, integrable quotient, gluing tensor

def gram_blocks(module: InducedModule) -> list:
    """The integer Gram blocks G_0 .. G_d of the pairing b of an sl2 induced module.

    sl2 labels are self-dual, so b pairs the module with itself.  Degree 0
    pairs the weight bases by b(v_i, v_j) = (-1)^i delta_{i+j, mu}.  A deeper
    basis element u = X t^{-k} w, peeled at its leading creation factor, has
    the row G_n[u] = -G_{n-k}[w] A, with A the degree-n block of the cached
    current X t^{k}: the adjunction b(X t^{-k} w, u') = -b(w, X t^{k} u').
    """
    mu = module.mu
    blocks = [[[(-1) ** i if i + j == mu else 0 for j in range(mu + 1)]
               for i in range(mu + 1)]]
    for n in range(1, module.degree_bound + 1):
        block = []
        for mono, vi in module.basis(n):
            (k, g), rest = mono[0], mono[1:]
            row = blocks[n - k][module.positions(n - k)[rest, vi]]
            out = [0] * module.dim(n)
            for (r, col), c in module.action(k, g).blocks[n].items():
                out[col] -= c * row[r]
            block.append(out)
        blocks.append(block)
    return blocks


class IntegrableQuotient(namedtuple("IntegrableQuotient", "gram kept")):
    """Degreewise quotient of an induced module by the radical of b.

    `gram[n]` is the integer Gram block G_n of `gram_blocks`.  Every one
    satisfies G_n^T = (-1)^mu G_n, so the left and right radicals of b
    coincide and one quotient serves both slots.  `kept[n]` holds the
    indices of the basis elements representing the degree-n quotient; the
    kept Gram block H_n = G_n[kept, kept] is the quotient pairing.
    """

    __slots__ = ()

    def pairing(self, op: GradedOperator, n: int) -> list:
        """G_m[kept, :] op[:, kept] at input degree n, m = n - shift, on integers.

        It pairs the operator's integer blocks; its factor is left to the caller.
        """
        m = n - op.shift
        if m not in self.kept or n not in self.kept:
            raise InputError(f"degrees ({n},{m}) outside quotient bound")
        blk = op.block(n)
        gram = self.gram[m]
        return mat_mul([gram[i] for i in self.kept[m]],
                       [[blk.get((r, c), 0) for c in self.kept[n]] for r in range(len(gram))])


def integrable_quotient(module: InducedModule) -> IntegrableQuotient:
    """Quotient by the radical of b, computed degree by degree."""
    gram = gram_blocks(module)
    sign = (-1) ** module.mu
    kept = {}
    for n, g in enumerate(gram):
        if transpose(g) != [[sign * v for v in row] for row in g]:
            raise InternalError(f"degree-{n} Gram matrix is not (-1)^mu-symmetric")
        span = IntSpan()
        for row in g:
            span.add({j: v for j, v in enumerate(row) if v})
        kept[n] = sorted(span.pivots)
    if len(kept[0]) != module.mu + 1:
        raise InternalError("degree-0 pairing is singular; b_mu must be perfect")
    return IntegrableQuotient(gram=gram, kept=kept)


class GluingTensorSeries(namedtuple("GluingTensorSeries", "terms residuals")):
    """epsilon_d = transpose inverse of the quotient Gram blocks of b_mu.

    terms[d] is the matrix of epsilon_d over the kept bases, checked to invert
    the degree-d pairing; residuals holds (n, generator name, dp) for every
    checked instance of the recursion, each one zero: gluing_tensor raises on
    the first identity that fails.
    """

    __slots__ = ()


def gluing_tensor(level: int, mu: int, d: int) -> GluingTensorSeries:
    """The glueing element of degree <= d, with its defining recursion verified.

    epsilon_n = H_n^-T lives in H+_n (x) H-_n (quotient bases), checked by
    eps_n H_n^T = I.  Given that and H^T = (-1)^mu H, the recursion
    (X t+^n (x) 1) eps_{dp+n} + (1 (x) X t-^{-n}) eps_dp = 0 is the integer
    identity P(n, dp+n) = -(-1)^mu P(-n, dp)^T between the pairings of X t^n
    and X t^-n, checked on construction for every generator, |n| <= 2 and
    every dp within the degree bound, the n = 0 case being g-invariance.
    """
    module = induced_module(level, mu, d)
    quot = integrable_quotient(module)
    terms = []
    for n in range(d + 1):
        block = [[quot.gram[n][i][j] for j in quot.kept[n]] for i in quot.kept[n]]
        try:
            eps = transpose(invert(block))
        except ValueError:
            raise InternalError(f"degree-{n} quotient pairing is not perfect") from None
        if mat_mul(eps, transpose(block)) != identity(len(block)):
            raise InternalError(f"eps_{n} does not invert the degree-{n} quotient pairing")
        terms.append(eps)
    top, names, sign = min(2, d), module.algebra.gen_names, (-1) ** mu
    # X_g t^n at input degree k, paired once for every instance
    pairing_of = {(n, g, k): quot.pairing(module.action(n, g), k)
                  for n in range(-top, top + 1) for g in range(len(names))
                  for k in range(max(0, n), min(d, d + n) + 1)}
    residuals = []
    for n in range(-top, top + 1):
        for g, gen in enumerate(names):
            for dp in range(max(0, -n), min(d, d - n) + 1):
                rhs = transpose(pairing_of[-n, g, dp])
                if pairing_of[n, g, dp + n] != [[-sign * x for x in row] for row in rhs]:
                    raise InternalError(
                        f"gluing recursion fails at n={n}, gen={gen}, degree {dp}")
                residuals.append((n, gen, dp))
    return GluingTensorSeries(terms=terms, residuals=residuals)
