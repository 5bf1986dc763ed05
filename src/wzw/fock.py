"""Truncated graded induced modules of current algebras, with exact window tracking.

Every operator here is a GradedOperator: a band of integer matrices between
graded pieces, one rational factor, and the degree window [0, hi] on which
the truncation agrees with the true operator (degrees below 0 are empty).
`InducedModule.operator` fills the currents, the identity and the Sugawara
operators alike, column by column; a Sugawara block holds 4C(D_k).
Compositions and sums take the smaller top edge, so identity checks on a
window are honest statements about the untruncated algebra.

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
exact integer arithmetic.  The currents, the Sugawara operators and the Gram
blocks of the contravariant pairing (`gram_blocks`, one degree at a time) are
all read through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InputError, InternalError
from .liealg import sl2_irrep_matrices
from .linalg import IntSpan, invert, mat_mul, transpose


# ---------------------------------------------------------------------------
# current algebras and their induced modules

class CurrentAlgebra:
    """A Lie algebra with an invariant form, as the Sugawara construction reads it.

    Generators are indexed by position in `gen_names`.  `bracket[(a, b)]`
    lists the (c, coefficient) terms of [X_a, X_b], `form[(a, b)]` is the
    invariant form c(X_a, X_b), `dual_pairs` lists the (a, b, coefficient)
    terms of the Casimir sum over dual bases, `dual_coxeter` is h, and
    `irrep(mu)` returns the generator matrices on the (mu+1)-dim irrep
    labelled mu, whose basis vector v_i has weight mu - 2i.  Read-only, and
    equal only to itself, so it keys the `induced_module` cache by identity.
    """

    __slots__ = ("gen_names", "bracket", "form", "dual_pairs", "dual_coxeter", "irrep")

    def __init__(self, gen_names: tuple, bracket: dict, form: dict,
                 dual_pairs: tuple, dual_coxeter: int, irrep):
        values = (gen_names, bracket, form, dual_pairs, dual_coxeter, irrep)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class InducedModule:
    """Level-l module induced from the (mu+1)-dim irrep of a current algebra, truncated at d.

    Basis elements are pairs (mono, i): the monomial of creation factors
    (k, gen) applied to the weight vector v_i.  The central element acts as
    the level; X t^k for k >= 1 kills V_mu; X t^0 acts through the irrep.
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
        self._bracket = algebra.bracket
        self._form = algebra.form
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

    def apply_gen(self, m: int, g: int, elt) -> dict:
        """X_g t^m applied to a basis element; integer coefficients."""
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
                for g2, coef in self._bracket.get((g, hg), ()):
                    for melt, c in self.apply_gen(m - hk, g2, (rest, vi)).items():
                        out[melt] = out.get(melt, 0) + coef * c
                if m == hk:
                    kappa = self._form.get((g, hg), 0)
                    if kappa:
                        tgt = (rest, vi)
                        out[tgt] = out.get(tgt, 0) + m * kappa * self.level
        out = {k: v for k, v in out.items() if v}
        self._memo[key] = out
        return out

    def operator(self, shift: int, column: Callable) -> "GradedOperator":
        """The shift-`shift` operator summing the (element, coefficient) pairs of column(elt)."""
        d = self.degree_bound
        hi = min(d, d + shift)
        if hi < 0:
            raise InputError(f"a shift-{shift} operator has an empty valid window "
                             f"at degree bound {d}")
        blocks = {}
        for n in range(0, hi + 1):
            blk: dict = {}
            rows = self.positions(n - shift)
            for col, elt in enumerate(self.basis(n)):
                for melt, c in column(elt):
                    key = rows[melt], col
                    blk[key] = blk.get(key, 0) + c
            blocks[n] = {k: v for k, v in blk.items() if v}
        return GradedOperator(space=self, shift=shift, hi=hi, blocks=blocks)

    def action(self, m: int, g: int) -> "GradedOperator":
        """X_g t^m as a GradedOperator (shift m) on the truncation, built once per (m, g).

        Callers share the returned operator: `GradedOperator` arithmetic builds
        new blocks and leaves the blocks of its operands as they are.
        """
        op = self._actions.get((m, g))
        if op is None:
            op = self._actions[m, g] = self.operator(
                m, lambda elt: self.apply_gen(m, g, elt).items())
        return op

    def __eq__(self, other):
        return (isinstance(other, InducedModule)
                and (other.algebra, other.level, other.mu, other.degree_bound)
                == (self.algebra, self.level, self.mu, self.degree_bound))

    def __hash__(self):
        return hash(("induced", self.algebra, self.level, self.mu, self.degree_bound))


@lru_cache(maxsize=None)
def induced_module(level: int, mu: int, degree_bound: int,
                   algebra: CurrentAlgebra = SL2) -> InducedModule:
    return InducedModule(level, mu, degree_bound, algebra)


def fock_space(degree_bound: int) -> InducedModule:
    """The oscillator Fock space: the level-1 Heisenberg module, basis = partitions."""
    return induced_module(1, 0, degree_bound, HEISENBERG)


# ---------------------------------------------------------------------------
# graded operators

def _mm(a: dict, b: dict) -> dict:
    by_k: dict = {}
    for (k, j), v in b.items():
        by_k.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), u in a.items():
        for j, v in by_k.get(k, ()):
            key = (i, j)
            w = out.get(key, 0) + u * v
            out[key] = w
    return {k: v for k, v in out.items() if v}


class GradedOperator:
    """Band matrix between graded pieces, valid on input degrees [0, hi].

    Maps degree n to degree n - shift; blocks[n] is the sparse integer matrix
    {(row, col): value} from basis(n) to basis(n - shift), held for
    0 <= n <= hi only.  The operator is `factor` times its blocks; the factor
    is its one rational number, applied once where entries are read out
    (`entries`, `max_abs`, `IntegrableQuotient.descend`).
    """

    def __init__(self, space, shift: int, hi: int, blocks: dict,
                 factor: Fraction = Fraction(1)):
        self.space = space
        self.shift = shift
        self.hi = hi
        self.blocks = blocks
        self.factor = factor

    @property
    def window(self) -> tuple[int, int]:
        return (0, self.hi)

    def block(self, n: int) -> dict:
        if n > self.hi:
            raise InputError(f"degree {n} outside valid window {self.window}")
        return self.blocks.get(n, {})

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """self applied after other."""
        if self.space != other.space:
            raise InternalError("composing operators on different spaces")
        hi = min(other.hi, self.hi + other.shift)
        if hi < 0:
            raise InputError("composition has an empty valid window")
        blocks = {}
        for n in range(hi + 1):
            blocks[n] = _mm(self.blocks.get(n - other.shift, {}),
                            other.blocks.get(n, {}))
        return GradedOperator(self.space, self.shift + other.shift, hi, blocks,
                              self.factor * other.factor)

    def add(self, other: "GradedOperator") -> "GradedOperator":
        """The sum, over the common factor gcd(f, g) = gcd(numerators)/lcm(denominators)."""
        if self.space != other.space or self.shift != other.shift:
            raise InternalError("adding incompatible graded operators")
        hi = min(self.hi, other.hi)
        if hi < 0:
            raise InputError("sum has an empty valid window")
        f, g = self.factor, other.factor
        common = Fraction(gcd(f.numerator, g.numerator),
                          f.denominator // gcd(f.denominator, g.denominator) * g.denominator)
        a, b = int(f / common), int(g / common)
        blocks = {}
        for n in range(hi + 1):
            blk = {k: a * v for k, v in self.blocks.get(n, {}).items()}
            for k, v in other.blocks.get(n, {}).items():
                blk[k] = blk.get(k, 0) + b * v
            blocks[n] = {k: v for k, v in blk.items() if v}
        return GradedOperator(self.space, self.shift, hi, blocks, common)

    def sub(self, other: "GradedOperator") -> "GradedOperator":
        return self.add(other.scale(-1))

    def scale(self, c) -> "GradedOperator":
        if not c:
            return GradedOperator(self.space, self.shift, self.hi,
                                  {n: {} for n in self.blocks})
        return GradedOperator(self.space, self.shift, self.hi, self.blocks, self.factor * c)

    def max_abs(self) -> Fraction:
        top = max((abs(v) for blk in self.blocks.values() for v in blk.values()), default=0)
        return abs(self.factor) * top

    def entries(self, n: int) -> dict:
        """The nonzero rational entries {(row, col): value} of degree n's block."""
        return {key: self.factor * v for key, v in self.block(n).items()}


def commutator(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    return a.compose(b).sub(b.compose(a))


# ---------------------------------------------------------------------------
# Sugawara operators

@lru_cache(maxsize=None)
def sugawara_op(k: int, module: InducedModule) -> GradedOperator:
    """T(D_k) = -C(D_k)/(level + h) on the induced-module truncation.

    The blocks hold the integer 4 C(D_k): each pair i + j = k, i <= j, applies
    t^j first and weighs 2 if i < j, 1 if i = j; each dual-basis term weighs 2c.
    """
    d = module.degree_bound
    apply_gen = module.apply_gen
    terms = [(k - j, j, (2 if k - j < j else 1) * int(2 * c), ga, gb)
             for j in range(-(-k // 2), d + 1) if abs(k - j) <= d
             for ga, gb, c in module.algebra.dual_pairs]

    def column(elt):
        for i, j, w, ga, gb in terms:
            for melt, c1 in apply_gen(j, gb, elt).items():
                for melt2, c2 in apply_gen(i, ga, melt).items():
                    yield melt2, w * c1 * c2

    return module.operator(k, column).scale(
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
    res = commutator(sugawara_op(k, module), sugawara_op(l, module))
    res = res.sub(sugawara_op(k + l, module).scale(l - k))
    if k + l == 0:
        algebra = module.algebra
        charge = Fraction(module.level * len(algebra.gen_names),
                          module.level + algebra.dual_coxeter)
        central = Fraction(k ** 3 - k, 12) * charge
        if central:
            res = res.sub(module.operator(0, lambda elt: ((elt, 1),)).scale(central))
    return res


def check_current_bracket(k: int, m: int, g: int, module: InducedModule) -> GradedOperator:
    """Residual of [T(D_k), X t^m] = m X t^{m+k}; contract: zero.

    D_k acts on Laurent polynomials as t^{k+1} d/dt, so D_k t^m = m t^{m+k}.
    """
    d = module.degree_bound
    if d - max(0, -k) - max(0, -m) < 0:
        raise InputError(f"degree bound {d} leaves no usable window for k={k}, m={m}")
    res = commutator(sugawara_op(k, module), module.action(m, g))
    if m:
        res = res.sub(module.action(m + k, g).scale(m))
    return res


# ---------------------------------------------------------------------------
# contravariant pairing, integrable quotient, gluing tensor

def gram_blocks(module: InducedModule) -> list:
    """The integer Gram blocks G_0 .. G_d of the pairing b of an sl2 induced module.

    sl2 labels are self-dual, so b pairs the module with itself.  Degree 0
    pairs the weight bases by b(v_i, v_j) = (-1)^i delta_{i+j, mu}.  A deeper
    basis element u = X t^{-k} w, peeled at its leading creation factor, has
    the row G_n[u] = -G_{n-k}[w] read through X t^{k}: the adjunction
    b(X t^{-k} w, u') = -b(w, X t^{k} u').
    """
    mu = module.mu
    blocks = [[[(-1) ** i if i + j == mu else 0 for j in range(mu + 1)]
               for i in range(mu + 1)]]
    for n in range(1, module.degree_bound + 1):
        basis = module.basis(n)
        block = []
        for mono, vi in basis:
            (k, g), rest = mono[0], mono[1:]
            pos = module.positions(n - k)
            row = blocks[n - k][pos[rest, vi]]
            block.append([-sum(c * row[pos[melt]]
                               for melt, c in module.apply_gen(k, g, up).items())
                          for up in basis])
        blocks.append(block)
    return blocks


def _pivot_columns(rows) -> list[int]:
    span = IntSpan()
    for row in rows:
        span.add({j: v for j, v in enumerate(row) if v})
    return sorted(span.pivots)


class IntegrableQuotient:
    """Degreewise quotient of an induced module by the radical of b.

    `gram[n]` is the integer Gram block G_n of `gram_blocks`.  Every one
    satisfies G_n^T = (-1)^mu G_n, so the left and right radicals of b
    coincide and one quotient serves both slots.  `kept[n]` holds the
    indices of the basis elements representing the degree-n quotient;
    `proj[n]` is the rational (q x dim) matrix sending a degree-n coordinate
    vector to its quotient coordinates over the kept basis; `gram_inverse[n]`
    is the inverse of the degree-n Gram block between the kept bases.
    """

    def __init__(self, module: InducedModule, gram: list, kept: dict,
                 proj: dict, gram_inverse: dict):
        self.module = module
        self.gram = gram
        self.kept = kept
        self.proj = proj
        self.gram_inverse = gram_inverse

    def dim(self, n: int) -> int:
        return len(self.kept.get(n, ()))

    def descend(self, op: GradedOperator, n: int) -> list:
        """Quotient matrix of an operator in either slot of b, input degree n."""
        m = n - op.shift
        if m not in self.kept or n not in self.kept:
            raise InputError(f"degrees ({n},{m}) outside quotient bound")
        blk = op.block(n)
        by_col: dict = {}
        for (r, c), v in blk.items():
            by_col.setdefault(c, []).append((r, v))
        q_out = len(self.kept[m])
        prc = self.proj[m]
        out = [[Fraction(0)] * len(self.kept[n]) for _ in range(q_out)]
        for b, col in enumerate(self.kept[n]):
            for r, v in by_col.get(col, ()):
                for a in range(q_out):
                    if prc[a][r]:
                        out[a][b] += prc[a][r] * v
        if op.factor != 1:
            out = [[op.factor * x for x in row] for row in out]
        return out


def integrable_quotient(module: InducedModule) -> IntegrableQuotient:
    """Quotient by the radical of b, computed degree by degree."""
    gram = gram_blocks(module)
    sign = (-1) ** module.mu
    kept, proj, gram_inverse = {}, {}, {}
    for n, g in enumerate(gram):
        if transpose(g) != [[sign * v for v in row] for row in g]:
            raise InternalError(f"degree-{n} Gram matrix is not (-1)^mu-symmetric")
        k = kept[n] = _pivot_columns(g)
        if not k:
            proj[n], gram_inverse[n] = [], []
            continue
        try:
            inv = gram_inverse[n] = invert([[g[i][j] for j in k] for i in k])
        except ValueError:
            raise InternalError(f"degree-{n} quotient pairing is not perfect") from None
        proj[n] = mat_mul(inv, [g[i] for i in k])
    if len(kept[0]) != module.mu + 1:
        raise InternalError("degree-0 pairing is singular; b_mu must be perfect")
    return IntegrableQuotient(module=module, gram=gram, kept=kept, proj=proj,
                              gram_inverse=gram_inverse)


class GluingTensorSeries:
    """epsilon_d = transpose inverse of the quotient Gram blocks of b_mu.

    terms[d] is the matrix of epsilon_d over the kept bases; residuals holds
    (n, generator name, dp, max-abs entry) for every checked instance of the
    recursion; gluing_tensor raises unless each one is zero.
    """

    def __init__(self, quotient: IntegrableQuotient, terms: list, residuals: list):
        self.quotient = quotient
        self.terms = terms
        self.residuals = residuals


def gluing_tensor(level: int, mu: int, d: int) -> GluingTensorSeries:
    """The glueing element of degree <= d, with its defining recursion verified.

    epsilon_n lives in H+_n (x) H-_n (quotient bases); the recursion
    (X t+^n (x) 1) eps_{dp+n} + (1 (x) X t-^{-n}) eps_dp = 0 is checked on
    construction for every generator, |n| <= 2 and every dp within the degree
    bound, the n = 0 case being plain g-invariance.
    """
    quot = integrable_quotient(induced_module(level, mu, d))
    module = quot.module
    terms = [transpose(quot.gram_inverse[n]) for n in range(d + 1)]
    residuals = []
    for n in range(-min(2, d), min(2, d) + 1):
        for g, gen in enumerate(module.algebra.gen_names):
            plus_op = module.action(n, g)
            minus_op = module.action(-n, g)
            for dp in range(max(0, -n), min(d, d - n) + 1):
                # (X t+^n (x) 1) eps_{dp+n} = A . M_{dp+n};
                # (1 (x) X t-^{-n}) eps_dp = M_dp . B^T
                lhs = mat_mul(quot.descend(plus_op, dp + n), terms[dp + n])
                rhs = mat_mul(terms[dp], transpose(quot.descend(minus_op, dp)))
                worst = Fraction(0)
                for i in range(quot.dim(dp)):
                    for j in range(quot.dim(dp + n)):
                        left = lhs[i][j] if lhs else Fraction(0)
                        right = rhs[i][j] if rhs else Fraction(0)
                        worst = max(worst, abs(left + right))
                if worst:
                    raise InternalError(
                        f"gluing recursion fails at n={n}, gen={gen}, degree {dp}")
                residuals.append((n, gen, dp, worst))
    return GluingTensorSeries(quotient=quot, terms=terms, residuals=residuals)
