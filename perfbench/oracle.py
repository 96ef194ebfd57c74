"""Independent arithmetic for the benchmark's correctness checks.

Nothing here calls into fglab: series are read straight from their stored
representation (packed exponent keys, scaled integers, a precision
profile), documents are read from their text, and extension elements are
exact integer polynomials reduced modulo a monic e(t).  The checks built on
these helpers therefore share no code with the measured path.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


# ---------------------------------------------------------------------------
# p-adic valuations of exact rationals
# ---------------------------------------------------------------------------

def vp_int(n: int, p: int):
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(q, p: int):
    q = Fraction(q)
    if q == 0:
        return INF
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


# ---------------------------------------------------------------------------
# stored series representation
# ---------------------------------------------------------------------------

def profile_at(p0: int, slope: Fraction, flat: int, d: int) -> int:
    return max(flat, p0 + math.floor(slope * d))


def series_terms(ms) -> dict:
    """{exponent tuple: Fraction} read from a MultiSeries' stored fields."""
    k = ms.ctx.degree_cap.bit_length()
    m = ms.num_vars
    mask = (1 << k) - 1
    scale = Fraction(1, ms.ctx.p ** ms.shift)
    out = {}
    for key, c in ms.coeffs.items():
        exps = []
        for _ in range(m):
            exps.append(key & mask)
            key >>= k
        out[tuple(reversed(exps))] = c * scale
    return out


def series_floor(ms):
    """Certified absolute precision at the degree cap (INF when exact)."""
    pr = ms.profile
    if pr is None:
        return INF
    return profile_at(pr.p0, Fraction(pr.slope), pr.flat, ms.ctx.degree_cap)


def tuple_floor(t) -> float:
    return min(series_floor(c) for c in t.components)


def agree_mod(a: dict, b: dict, p: int, k) -> bool:
    """Every coefficient of a - b has valuation >= k."""
    for e in set(a) | set(b):
        if vp(a.get(e, 0) - b.get(e, 0), p) < k:
            return False
    return True


def identity_terms(d: int) -> list:
    return [{tuple(1 if j == i else 0 for j in range(d)): Fraction(1)}
            for i in range(d)]


# ---------------------------------------------------------------------------
# Fraction-dict polynomial arithmetic
# ---------------------------------------------------------------------------

def _pack(exps) -> int:
    key = 0
    for e in exps:
        key = (key << 4) | e
    return key


def _unpack(key: int, nvars: int) -> tuple:
    return tuple((key >> (4 * (nvars - 1 - i))) & 15 for i in range(nvars))


def _graded(terms: dict, cap: int) -> list:
    """Terms of total degree <= cap, grouped by degree, exponents packed
    four bits each (so cap must stay below 16)."""
    out = [{} for _ in range(cap + 1)]
    for e, c in terms.items():
        if sum(e) <= cap and c:
            out[sum(e)][_pack(e)] = c
    return out


def _graded_mul(a: list, b: list, cap: int, mod) -> list:
    out = [{} for _ in range(cap + 1)]
    for da, ta in enumerate(a):
        for db in range(cap - da + 1):
            tb = b[db]
            if not ta or not tb:
                continue
            o = out[da + db]
            for ka, ca in ta.items():
                for kb, cb in tb.items():
                    k = ka + kb
                    o[k] = o.get(k, 0) + ca * cb
    if mod is not None:
        out = [{k: c % mod for k, c in o.items()} for o in out]
    return [{k: c for k, c in o.items() if c} for o in out]


def poly_compose(outer: list, inners: list, cap: int, mod=None) -> list:
    """Substitute inners[i] for variable i in each polynomial of outer,
    truncated at total degree cap.

    With ``mod`` every coefficient must be an integer and the arithmetic is
    done modulo ``mod``.
    """
    assert cap < 16
    nvars = len(next(iter(inners[0]))) if inners[0] else 0
    one = _graded({(0,) * nvars: 1}, cap)
    powers = [[one, _graded(g, cap)] for g in inners]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(_graded_mul(cache[-1], cache[1], cap, mod))
        return cache[e]

    result = []
    for f in outer:
        acc = {}
        for exps, c in f.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    term = power(i, e) if term is None else \
                        _graded_mul(term, power(i, e), cap, mod)
            for layer in term if term is not None else one:
                for k, v in layer.items():
                    acc[k] = acc.get(k, 0) + c * v
        if mod is not None:
            acc = {k: v % mod for k, v in acc.items()}
        result.append({_unpack(k, nvars): v for k, v in acc.items() if v})
    return result


def to_residues(terms: dict, p: int, k: int) -> dict:
    """p-integral rational coefficients as integers modulo p^k."""
    mod = p ** k
    return {e: c.numerator * pow(c.denominator, -1, mod) % mod
            for e, c in terms.items()}


def binomial_series(a, cap: int) -> dict:
    """(1 + x)^a - 1 truncated at degree cap, for a rational exponent a."""
    a = Fraction(a)
    out = {}
    coeff = Fraction(1)
    for k in range(1, cap + 1):
        coeff = coeff * (a - k + 1) / k
        if coeff:
            out[(k,)] = coeff
    return out


# ---------------------------------------------------------------------------
# exact arithmetic in Z[t]/(e(t)) with e monic
# ---------------------------------------------------------------------------

class Ring:
    """Z_p[t]/(e(t)) for an Eisenstein e(t) or the base field (e = t - 1)."""

    def __init__(self, p: int, modulus: list, eisenstein: bool):
        self.p = p
        self.mod = [int(c) for c in modulus]
        self.deg = len(self.mod) - 1
        self.eisenstein = eisenstein
        self.e = self.deg if eisenstein else 1

    def reduce(self, a: list) -> list:
        a = list(a)
        d = self.deg
        while len(a) > d:
            top = a.pop()
            if top:
                shift = len(a) - d
                for i in range(d):
                    a[shift + i] -= top * self.mod[i]
        return a + [0] * (d - len(a))

    def mul(self, a: list, b: list) -> list:
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return self.reduce(conv)

    def add(self, a: list, b: list) -> list:
        return [x + y for x, y in zip(a, b)]

    def sub(self, a: list, b: list) -> list:
        return [x - y for x, y in zip(a, b)]

    def const(self, c: int) -> list:
        return self.reduce([c])

    def power(self, a: list, n: int) -> list:
        out = self.const(1)
        while n:
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return out

    def uniformizer(self) -> list:
        return self.reduce([0, 1]) if self.eisenstein else self.const(self.p)

    def valuation(self, a: list):
        """Exact valuation: the terms a_i t^i have distinct valuations."""
        best = INF
        for i, c in enumerate(a):
            v = vp_int(c, self.p)
            if v is not INF:
                best = min(best, v + Fraction(i, self.e))
        return best

    def eval_poly(self, terms: dict, point: list) -> list:
        """A multivariate integer polynomial at a point of the ring."""
        acc = self.const(0)
        cache = [[self.const(1), x] for x in point]
        for exps, c in terms.items():
            term = self.const(int(c))
            for i, e in enumerate(exps):
                while len(cache[i]) <= e:
                    cache[i].append(self.mul(cache[i][-1], cache[i][1]))
                if e:
                    term = self.mul(term, cache[i][e])
            acc = self.add(acc, term)
        return acc


def cyclotomic_modulus(p: int, level: int) -> list:
    """Coefficients of Phi_(p^level)(1 + t), Eisenstein of degree p^(level-1)(p-1)."""
    pk1 = p ** (level - 1)
    coeffs = [0] * (pk1 * (p - 1) + 1)
    for i in range(p):
        e = i * pk1
        for j in range(e + 1):
            coeffs[j] += math.comb(e, j)
    return coeffs


def ext_to_ints(x) -> list:
    """Integer representative of an fglab extension element's stored digits."""
    out = []
    for c in x.coeffs:
        if c.v is None:
            out.append(0)
        elif c.v < 0:
            raise ValueError("extension element is not integral")
        else:
            out.append(c.ctx.p ** c.v * c.unit)
    return out


# ---------------------------------------------------------------------------
# canonical documents, read from their text
# ---------------------------------------------------------------------------

def read_document(text: str) -> dict:
    """Header fields plus per-component (profile, {exps: Fraction})."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = {}
    comps = []
    i = 1
    while lines[i].split()[0] != "component":
        key, _, val = lines[i].partition(":")
        header[key] = val.strip()
        i += 1
    p = int(header["p"])
    while lines[i] != "end":
        parts = lines[i].split()
        prof = None if parts[3] == "exact" else \
            (int(parts[3]), Fraction(parts[4]), int(parts[5]))
        terms = {}
        i += 1
        while lines[i] != "end component":
            exps, v, digits = lines[i].split("|")
            unit = 0
            for d in reversed(digits.split()):
                unit = unit * p + int(d)
            terms[tuple(int(t) for t in exps.split())] = \
                Fraction(unit) * Fraction(p) ** int(v)
            i += 1
        comps.append((prof, terms))
        i += 1
    header["components"] = comps
    return header


def document_floor(doc: dict):
    cap = int(doc["degree-cap"])
    floors = [INF if prof is None else profile_at(*prof, cap)
              for prof, _ in doc["components"]]
    return min(floors)
