"""Reconstruction of commuting series from their Jacobian at zero.

Given a stable u (linear part neither zero nor of finite multiplicative
order) and k Jacobian blocks B_1, ..., B_k, each commuting with J0(u), the
d-component series h in k blocks of d variables with linear part
sum_b B_b X_b and

    u(h(X_1, ..., X_k))  =  h(u(X_1), ..., u(X_k))

is determined degree by degree: the homogeneous correction D of degree m+1
solves the linear equation

    D(Lambda_in X) - J0(u) D(X)  =  (u o h_m - h_m o (u, ..., u))_(m+1),

where Lambda_in is k copies of J0(u) down the diagonal.  One block is the
commutant h o u = u o h (``commutant_reconstruct``); two blocks rebuild a
group law from one stable endomorphism (``group_from_jacobian``).

For diagonal J0(u) the operator is diagonal with per-monomial factors
lambda^I - lambda_i (the scalar case reduces to lambda^(m+1) - lambda); for
general linear parts the homogeneous-degree operator is assembled and
inverted explicitly.  A singular operator at some degree is exactly the
failure mode of the root-of-unity counterexample and raises SingularStep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    MixedContext,
    NonCommutingTarget,
    NotInvertible,
    PrecisionExhausted,
    SingularStep,
    VerificationFailure,
)
from .padic import INFINITE, PadicScalar
from .series import (
    MultiSeries,
    TupleSeries,
    apply_matrix,
    lift_by_degree,
    jacobian,
    mat_det,
    mat_inverse,
    mat_mul,
    tuple_compose,
)


@dataclass(frozen=True)
class StabilityVerdict:
    """Stable, or a diagnosis of why the reconstruction must fail."""

    stable: bool
    reason: str | None = None          # zero-jacobian | root-of-unity | singular-difference
    order: int | None = None           # for root-of-unity
    degree: int | None = None          # first singular degree m+1

    def __bool__(self):
        return self.stable


@dataclass
class ReconstructionTrace:
    """Per-degree solve record plus the reconstructed series."""

    series: TupleSeries
    steps: list = field(default_factory=list)   # (degree, det valuation, terms)


def _is_diagonal(mat) -> bool:
    d = len(mat)
    return all(mat[i][j].is_zero for i in range(d) for j in range(d) if i != j)


def _matrix_is_zero(mat) -> bool:
    return all(x.is_zero for row in mat for x in row)


def _matrix_is_identity(mat) -> bool:
    return all((x - int(i == j)).is_zero
               for i, row in enumerate(mat) for j, x in enumerate(row))


def _monomials_of_degree(m_vars: int, degree: int):
    """Exponent tuples of the given total degree, lexicographic."""
    if m_vars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree(m_vars - 1, degree - first):
            yield (first,) + rest


class _Operator:
    """The general operator at one degree, built once: its (component,
    monomial) basis, the basis ``index``, its matrix, and its inverse (None
    when singular), computed on first use."""

    def __init__(self, basis, index, matrix):
        self.basis = basis
        self.index = index
        self.matrix = matrix

    @cached_property
    def inverse(self):
        try:
            return mat_inverse(self.matrix)
        except NotInvertible:
            return None


class _DegreeSolver:
    """Solves D(Lambda_in X) - lam D(X) = r on homogeneous space.

    ``lam`` = J0(u) is d x d and acts on the d output components; the input
    variables form ``blocks`` blocks of d, and Lambda_in is ``blocks``
    copies of ``lam`` down the diagonal, so the solver reads ``lam`` alone.
    """

    def __init__(self, ctx, lam, blocks):
        self.ctx = ctx
        self.lam = lam
        self.blocks = blocks
        self.dim = d = len(lam)
        self.num_vars = blocks * d
        self.diagonal = _is_diagonal(lam)
        if self.diagonal:
            # input variables whose lambda_j are identical form one group:
            # lambda^I depends only on the exponent sum over each group
            groups = {}               # stored (v, unit, prec) -> (lambda, vars)
            for j in range(self.num_vars):
                lam_j = lam[j % d][j % d]
                key = (lam_j.v, lam_j.unit, lam_j.prec)
                groups.setdefault(key, (lam_j, []))[1].append(j)
            self._groups = list(groups.values())
            self.lams_out = [lam[i][i] for i in range(d)]
            self._factors = {}        # (i, exponent sum per group) -> factor
        self._operators = {}          # degree -> _Operator

    def _factor_valuations(self, degree: int):
        """(valuation, multiplicity) of each distinct diagonal factor at one
        degree; None if one of them is zero.

        A factor depends on a monomial only through its exponent sum t_g
        over each group g of identical lambda_j, and C(t_g + s_g - 1,
        s_g - 1) monomials of a group of size s_g share that sum.
        """
        sizes = [len(members) for _, members in self._groups]
        vals = []
        for sums in _monomials_of_degree(len(sizes), degree):
            mult = math.prod(math.comb(t + s - 1, s - 1)
                             for t, s in zip(sums, sizes))
            for i in range(self.dim):
                f = self._factor(i, sums)
                if f.is_zero:
                    return None
                vals.append((f.valuation(), mult))
        return vals

    def det_valuation(self, degree: int):
        """Valuation of the operator determinant; INFINITE when singular."""
        if self.diagonal:
            vals = self._factor_valuations(degree)
            return INFINITE if vals is None else sum(v * m for v, m in vals)
        det = mat_det(self._operator(degree).matrix)
        if det.is_zero:
            return INFINITE
        return det.valuation()

    def solve_loss(self, degree: int):
        """Worst precision loss of one degree solve; INFINITE when singular.

        Diagonal case: the largest per-monomial factor valuation.  General
        case: the most negative entry valuation of the inverse operator.
        """
        if self.diagonal:
            vals = self._factor_valuations(degree)
            return INFINITE if vals is None else max(
                [0, *(v for v, _ in vals)])
        inv = self._operator(degree).inverse
        if inv is None:
            return INFINITE
        worst = 0
        for row in inv:
            for x in row:
                if not x.is_zero:
                    worst = max(worst, -min(0, x.valuation()))
        return worst

    def _factor(self, i, sums):
        """prod_g lambda_g^(t_g) - lambda_out_i, computed once per key."""
        f = self._factors.get((i, sums))
        if f is None:
            prod = PadicScalar.exact(self.ctx, 1)
            for (lam, _), e in zip(self._groups, sums):
                if e:
                    prod = prod * lam ** e
            f = self._factors[(i, sums)] = prod - self.lams_out[i]
        return f

    def _operator(self, degree: int) -> _Operator:
        """The explicit operator on the monomial basis, built once per
        degree."""
        op = self._operators.get(degree)
        if op is not None:
            return op
        monos = list(_monomials_of_degree(self.num_vars, degree))
        basis = [(i, m) for i in range(self.dim) for m in monos]
        index = {key: k for k, key in enumerate(basis)}
        ctx = self.ctx
        zero = PadicScalar.zero(ctx)
        matrix = [[zero] * len(basis) for _ in basis]
        lam_tuple = _side_by_side(
            apply_matrix(self.lam, TupleSeries.identity(ctx, self.dim)),
            self.blocks)
        for k, (i, mono) in enumerate(basis):
            b = TupleSeries(
                [MultiSeries.from_terms(ctx, self.num_vars,
                                        {mono: 1}) if t == i else
                 MultiSeries.zero(ctx, self.num_vars)
                 for t in range(self.dim)])
            # column k: the image D(Lambda_in X) - lam D of basis element k
            img = tuple_compose(b, lam_tuple, cap=degree) \
                - apply_matrix(self.lam, b)
            for t in range(self.dim):
                for exps, c in img.components[t].terms():
                    matrix[index[(t, exps)]][k] = c
        op = self._operators[degree] = _Operator(basis, index, matrix)
        return op

    def _column(self, degree: int, t: int, exps):
        """The inverse operator's column at (component t, monomial exps),
        as ((component, monomial), entry) pairs; SingularStep when the
        operator has no inverse.  A diagonal operator's column is the one
        entry 1/(lambda^I - lambda_t)."""
        if self.diagonal:
            # lambda^I depends on I only through its sum over each group
            f = self._factor(t, tuple(sum(exps[j] for j in members)
                                      for _, members in self._groups))
            if f.is_zero:
                raise SingularStep(degree)
            return [((t, exps), f.inverse())]
        op = self._operator(degree)
        if op.inverse is None:
            raise SingularStep(degree)
        k = op.index[(t, exps)]
        return [(key, row[k]) for key, row in zip(op.basis, op.inverse)
                if not row[k].is_exact_zero]

    def solve(self, degree: int, rhs: TupleSeries) -> TupleSeries:
        """Solve for the homogeneous degree-``degree`` correction: each
        stored residual term c adds c times the inverse operator's column
        at its (component, monomial)."""
        zero = PadicScalar.zero(self.ctx)
        sol = [{} for _ in range(self.dim)]
        for t, comp in enumerate(rhs.components):
            for exps, c in comp.terms():
                for (i, mono), x in self._column(degree, t, exps):
                    sol[i][mono] = sol[i].get(mono, zero) + x * c
        return TupleSeries([MultiSeries.from_terms(self.ctx, self.num_vars,
                                                   terms) for terms in sol])


def _side_by_side(t: TupleSeries, copies: int) -> TupleSeries:
    """``copies`` copies of the d-in-d tuple t, copy b in the variables
    b*d .. b*d+d-1 of copies*d; t itself for one copy."""
    if copies == 1:
        return t
    d = t.num_vars
    return TupleSeries([c for b in range(copies) for c in t.map_variables(
        copies * d, range(b * d, (b + 1) * d))])


def _linear_part(u: TupleSeries):
    """J0(u) of a d-in-d series u with u(0) = 0."""
    if not u.constant_is_zero():
        raise MixedContext("u(0) must be 0")
    if u.num_vars != u.dim:
        raise MixedContext("u must be d-in-d")
    return jacobian(u)


def _finite_order(lam, bound):
    """The order of J0 = lam, a matrix with unit determinant, if lam^order
    is the identity at working precision; None when it has no finite order.

    For entries integral and known mod q = p (q = 4 when p = 2) the search
    runs on plain integers: the first m with lam^m = I mod q divides any
    finite order of lam, and lam^m lies in 1 + q M_d(Z_p), which has no
    torsion; so lam has finite order exactly when lam^m = I, tested once.
    Other entries are multiplied up to ``bound`` powers.
    """
    p = lam[0][0].ctx.p
    k = 2 if p == 2 else 1
    q = p ** k
    if all(x.prec >= k and (x.v is None or x.v >= 0)
           for row in lam for x in row):
        ints = [[0 if x.v is None else x.unit * p ** x.v % q for x in row]
                for row in lam]
        one = [[int(i == j) for j in range(len(lam))]
               for i in range(len(lam))]
        power, m = ints, 1
        while power != one:       # ints is invertible mod q: this ends
            power = [[sum(a * b for a, b in zip(row, col)) % q
                      for col in zip(*ints)] for row in power]
            m += 1
        return m if _matrix_is_identity(_mat_power(lam, m)) else None
    power = lam
    for k in range(1, bound + 1):
        if _matrix_is_identity(power):
            return k
        power = mat_mul(power, lam)
    return None


def _mat_power(a, e: int):
    """a^e, e >= 1, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else mat_mul(out, a)
        e >>= 1
        if not e:
            return out
        a = mat_mul(a, a)


def stability_classify(u: TupleSeries) -> StabilityVerdict:
    """Operational stability test for the reconstruction recursion.

    Stable means: J0(u) is nonzero and the per-degree difference operator
    is invertible at every degree up to the cap -- exactly what the
    recursion needs.  Root-of-unity linear parts are reported as such.
    """
    lam = _linear_part(u)
    ctx = u.ctx
    D = ctx.degree_cap
    if _matrix_is_zero(lam):
        return StabilityVerdict(False, reason="zero-jacobian")
    order = None
    det = mat_det(lam)
    # a J0 of finite order has a root of unity, a unit, for determinant
    if not det.is_zero and det.valuation() == 0:
        order = _finite_order(lam, max(D, ctx.p ** min(4, u.dim * 2)))
    solver = _DegreeSolver(ctx, lam, 1)
    for m in range(1, D):
        if solver.det_valuation(m + 1) == INFINITE:
            if order is not None:
                return StabilityVerdict(False, reason="root-of-unity",
                                        order=order, degree=m + 1)
            return StabilityVerdict(False, reason="singular-difference",
                                    degree=m + 1)
    if order is not None:
        # linear part of finite order whose resonances sit past the cap
        return StabilityVerdict(False, reason="root-of-unity", order=order)
    return StabilityVerdict(True)


def _normalize_matrix(ctx, mat, d):
    rows = []
    for row in mat:
        rows.append([PadicScalar.exact(ctx, x) for x in row])
    if len(rows) != d or any(len(r) != d for r in rows):
        raise MixedContext(f"expected a {d}x{d} matrix")
    return rows


def _matrices_commute(a, b) -> bool:
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return all((x - y).is_zero for ra, rb in zip(ab, ba)
               for x, y in zip(ra, rb))


def _lift_commuting(u: TupleSeries, start: TupleSeries, right: TupleSeries,
                    solver: _DegreeSolver):
    """Lift the linear ``start`` degree by degree until u o h = h o right.

    First the per-degree solve losses must fit inside the precision; last
    the commutation is checked at the degree cap, both sides composed
    afresh by tuple_compose, independently of how the lift reached h.
    Returns h and the (degree, correction) pairs of the lift.

    Each step changes h only by a correction delta_k that is exactly
    homogeneous of degree k, since the solve writes only degree-k
    monomials.  The residual at degree k is [u o h - h o right]_k, both
    sides kept across the steps instead of recomposed:
    - u o h by ``lift_by_degree``, whose relaxed evaluator
      (``series._RelaxedCompose``) keeps the homogeneous parts of the
      powers of h's components that u's monomials need; at step k every
      part below degree k is final, so [u o h]_k costs only the products
      that land in degree k, each certified with that part's own profile.
    - h o right as a running sum, subtracted inside the correction: start
      o right once, plus delta_k o right after each step, all at the full
      cap.  Since right has no constant term, delta_k o right starts at
      degree k, and the sum holds exactly the terms of the current h o
      right.
    """
    ctx = u.ctx
    total = 0
    for k in range(2, ctx.degree_cap + 1):
        loss = solver.solve_loss(k)
        if loss == INFINITE:
            raise SingularStep(k)
        total += loss
    if total >= ctx.abs_precision - 1:
        raise PrecisionExhausted(
            f"difference-operator solves consume {total} digits; "
            f"abs_precision {ctx.abs_precision} cannot absorb that")
    corrections = []
    h_right = tuple_compose(start, right)

    def correct(k, u_h):
        nonlocal h_right
        delta = solver.solve(k, u_h - TupleSeries(
            [c.homogeneous_part(k) for c in h_right]))
        corrections.append((k, delta))
        h_right = h_right + tuple_compose(delta, right)
        return delta

    h = lift_by_degree(u, start, correct)
    if not tuple_compose(u, h).same_at_working_precision(
            tuple_compose(h, right)):
        raise VerificationFailure(
            "reconstructed series fails the commutation check; "
            "this signals precision exhaustion")
    return h, corrections


def _reconstruct(u: TupleSeries, blocks):
    """The d-component series h in len(blocks) blocks of d variables with
    linear part sum_b B_b X_b and u(h(X_1, ...)) = h(u(X_1), ...).

    Raises NonCommutingTarget before any lift unless every block B_b
    commutes with J0(u).  Returns h, the degree solver and the lift's
    (degree, correction) pairs.
    """
    lam = _linear_part(u)
    ctx, d, k = u.ctx, u.dim, len(blocks)
    blocks = [_normalize_matrix(ctx, b, d) for b in blocks]
    if not all(_matrices_commute(lam, b) for b in blocks):
        raise NonCommutingTarget(
            "every Jacobian block must commute with J0(u)")
    solver = _DegreeSolver(ctx, lam, k)
    # sum_b B_b X_b is the d x kd matrix [B_1 ... B_k] applied to X
    start = apply_matrix([sum(rows, []) for rows in zip(*blocks)],
                         TupleSeries.identity(ctx, k * d))
    h, corrections = _lift_commuting(u, start, _side_by_side(u, k), solver)
    return h, solver, corrections


def commutant_reconstruct(u: TupleSeries, j0_target) -> ReconstructionTrace:
    """The unique h with h(0)=0, J0(h) = target, and u o h = h o u.

    Built degree-by-degree; raises SingularStep at the first degree where
    the difference operator degenerates (the root-of-unity counterexample
    mechanism), NonCommutingTarget when the target does not commute with
    J0(u), so that the degree-1 equation is already unsolvable, and
    VerificationFailure if the post-hoc commutation check fails.
    """
    h, solver, corrections = _reconstruct(u, [j0_target])
    steps = [(k, solver.det_valuation(k),
              min((c.vmin for c in delta.components if not c.is_zero),
                  default=None))
             for k, delta in corrections]
    return ReconstructionTrace(series=h, steps=steps)


def group_from_jacobian(u: TupleSeries, block_x, block_y) -> TupleSeries:
    """The two-block series H with given partial Jacobians commuting with u.

    H has d components in 2d variables and satisfies
    u(H(X1, X2)) = H(u(X1), u(X2)) mod deg D+1; with identity blocks this
    reconstructs the group law F from its stable endomorphism u alone.
    Both blocks must commute with J0(u) (NonCommutingTarget otherwise).
    """
    return _reconstruct(u, [block_x, block_y])[0]
