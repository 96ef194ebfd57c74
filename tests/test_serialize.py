"""Canonical document round trips and parse diagnostics."""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglab.errors import (
    AxiomViolation,
    BadArgument,
    FglabError,
    ParseError,
    VersionMismatch,
)
from fglab.padic import ExtensionModulus, PrecisionContext
from fglab.series import MultiSeries
from fglab.formal_group import (
    LubinTate2Params,
    fg_multiplication_map,
    lt2_build,
    lt2_min_precision,
    multiplicative_law,
)
from fglab.serialize import parse, parse_extension, serialize, serialize_extension

from conftest import cyclotomic_modulus


def test_round_trip_multiplicative(ctx5):
    M = multiplicative_law(ctx5)
    doc = serialize(M)
    back = parse(doc)
    assert back.law.same_at_working_precision(M.law)
    assert back.dimension == 1
    assert back.certificate.degree == M.certificate.degree
    assert serialize(back) == doc


def test_round_trip_series_with_denominators(ctx5):
    f = MultiSeries.from_terms(
        ctx5, 2, {(1, 0): 1, (0, 2): Fraction(1, 5), (2, 1): Fraction(3, 25)})
    doc = serialize(f)
    back = parse(doc)
    assert back.same_at_working_precision(f)
    assert serialize(back) == doc


def test_round_trip_lt2_group():
    p, h1, h2 = 2, 1, 1
    D = p ** (h1 + h2)
    ctx = PrecisionContext(p, lt2_min_precision(h1, h2, p, D), D)
    res = lt2_build(LubinTate2Params(h1, h2, ctx))
    for obj, kind in ((res.group, None), (res.log, "tuple"),
                      (res.mul_p.series, "endo")):
        doc = serialize(obj, kind=kind) if kind else serialize(obj)
        back = parse(doc)
        redoc = serialize(back, kind=kind) if kind else serialize(back)
        assert redoc == doc


def test_equal_series_serialize_identically(ctx5):
    M = multiplicative_law(ctx5)
    two_a = fg_multiplication_map(M, 2).series
    two_b = fg_multiplication_map(M, 2).series
    assert serialize(two_a, kind="endo") == serialize(two_b, kind="endo")


def test_canonical_ordering(ctx5):
    # same terms presented in different dict orders serialize identically
    a = MultiSeries.from_terms(ctx5, 2, {(1, 0): 1, (0, 1): 2, (1, 1): 3})
    b = MultiSeries.from_terms(ctx5, 2, {(1, 1): 3, (0, 1): 2, (1, 0): 1})
    assert serialize(a) == serialize(b)


def test_parse_rejects_bad_version(ctx5):
    doc = serialize(multiplicative_law(ctx5)).replace("v1", "v9", 1)
    with pytest.raises(VersionMismatch):
        parse(doc)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("not a document\n")


def test_parse_reports_line_numbers(ctx5):
    doc = serialize(multiplicative_law(ctx5))
    broken = doc.replace("0 1 | 0 | 1", "0 1 | 0 | banana", 1)
    with pytest.raises(ParseError) as err:
        parse(broken)
    assert err.value.line > 0


def test_parse_rejects_truncated_document(ctx5):
    doc = serialize(multiplicative_law(ctx5))
    truncated = "\n".join(doc.splitlines()[:-2])
    with pytest.raises(ParseError):
        parse(truncated)


def test_parse_rejects_non_unit_digits(ctx5):
    doc = serialize(multiplicative_law(ctx5))
    # replace a unit digit string with one divisible by p
    broken = doc.replace("| 0 | 1", "| 0 | 0", 1)
    with pytest.raises(ParseError):
        parse(broken)


@pytest.mark.parametrize("old,new", [
    ("p: 5", "p: five"),
    ("abs-precision: 12", "abs-precision: twelve"),
    ("degree-cap: 8", "degree-cap: 8.0"),
    ("num-vars: 2", "num-vars: two"),
    ("components: 1", "components: one"),
    ("components: 1", "components: 0"),
    ("dimension: 1", "dimension: 1x"),
    ("certified-degree: 8", "certified-degree: eight"),
    ("component 0 profile", "component x profile"),
    ("component 0 profile 12 0 12", "component 0 profile twelve 0 12"),
    ("component 0 profile 12 0 12", "component 0 profile 12 0 1.5"),
])
def test_parse_rejects_non_integer_fields(ctx5, old, new):
    doc = serialize(multiplicative_law(ctx5))
    assert old in doc
    with pytest.raises(ParseError) as err:
        parse(doc.replace(old, new, 1))
    assert err.value.line > 0


def test_extension_round_trip(ctx5):
    mod = cyclotomic_modulus(ctx5, 1)
    doc = serialize_extension(mod)
    back = parse_extension(doc, ctx5)
    assert back.same_as(mod)
    assert serialize_extension(back) == doc


def test_extension_base_round_trip(ctx5):
    mod = ExtensionModulus.base(ctx5)
    back = parse_extension(serialize_extension(mod), ctx5)
    assert back.same_as(mod)


def test_parse_rejects_digit_count_other_than_the_profile_gives(ctx5):
    doc = serialize(multiplicative_law(ctx5))
    lines = doc.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.count("|") == 2)
    head, _, digits = lines[i].rpartition("| ")
    for bad in (digits.split()[:-1], digits.split() + ["1"]):
        broken = lines[:i] + [head + "| " + " ".join(bad)] + lines[i + 1:]
        with pytest.raises(ParseError) as err:
            parse("\n".join(broken) + "\n")
        assert err.value.line == i + 1


def test_parse_rejects_positive_profile_slope():
    # a slope of 1/2 would certify 16 digits at degree 8 with N = 12
    ctx = PrecisionContext(5, 12, 8)
    doc = serialize(MultiSeries.from_terms(ctx, 1, {(1,): 1}))
    assert "profile 12 0 12" in doc
    with pytest.raises(ParseError, match="slope"):
        parse(doc.replace("profile 12 0 12", "profile 12 1/2 12"))


def test_exact_profile_document_scales():
    ctx = PrecisionContext(5, 12, 8)
    terms = {(1, 0): 1, (0, 1): 3, (1, 1): 7, (2, 3): 124}
    doc = serialize(MultiSeries.from_terms(ctx, 2, terms))
    exact = parse(doc.replace("profile 12 0 12", "profile exact"))
    assert exact.profile is None and exact.coeffs
    for s in (3, Fraction(2, 5), 25):
        out = exact.scale(s)
        for exps, c in terms.items():
            assert out.coefficient(exps).same_at_working_precision(c * s)
    assert serialize(parse(serialize(exact.scale(3)))) == \
        serialize(exact.scale(3))


@pytest.mark.parametrize("c", [17, -1])
def test_serialize_refuses_an_exact_unit_with_no_n_digit_form(c):
    """An exact entry is written as its unit's N digits, so at p=2, N=4 the
    coefficient 17 was written as 1 and read back as 1, and -1 read back
    as 15.  Both are refused; 15, whose unit fits in four digits, still
    reads back as itself."""
    ctx = PrecisionContext(2, 4, 3)
    with pytest.raises(BadArgument):
        serialize(MultiSeries.from_exact_terms(ctx, 1, {(1,): c}))
    fits = MultiSeries.from_exact_terms(ctx, 1, {(1,): 15, (2,): 12})
    assert parse(serialize(fits)).identical(fits)


def test_parse_refuses_a_false_law_that_states_a_certificate():
    """X + 2Y + XY is no group law: its document, carrying the
    multiplicative law's certificate, is refused by parse itself, not only
    by the CLI readers that validate it again."""
    doc = serialize(multiplicative_law(PrecisionContext(5, 12, 8)))
    false_law = doc.replace("0 1 | 0 | 1 ", "0 1 | 0 | 2 ", 1)
    assert false_law != doc and "axioms: linear-part" in false_law
    with pytest.raises(AxiomViolation):
        parse(false_law)


def test_parse_refuses_a_certificate_the_law_does_not_earn():
    """A true law whose document states another certified degree is a
    ParseError from parse."""
    doc = serialize(multiplicative_law(PrecisionContext(5, 12, 8)))
    with pytest.raises(ParseError, match="certified-degree"):
        parse(doc.replace("certified-degree: 8", "certified-degree: 7"))


GOLDEN = Path(__file__).parent / "golden"
SERIES_GOLDENS = {path.name: path.read_text()
                  for path in sorted(GOLDEN.glob("*.doc"))}
EXTENSION_GOLDEN = (GOLDEN / "cyclotomic_p5_level1.ext").read_text()

fields = st.one_of(
    st.text(alphabet="0123456789-/|:abc xyz", max_size=6),
    st.integers(2 ** 64, 10 ** 40).map(str),
    st.integers(-10 ** 40, -1).map(str))


@st.composite
def mutated_documents(draw):
    """A golden document with one line deleted, duplicated or swapped with
    another, the text truncated, or one whitespace-separated field of a
    line replaced by garbage, a huge integer or a negative integer."""
    name = draw(st.sampled_from(sorted(SERIES_GOLDENS) + ["extension"]))
    text = EXTENSION_GOLDEN if name == "extension" else SERIES_GOLDENS[name]
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(
        ["delete", "duplicate", "swap", "truncate", "field"]))
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "truncate":
        return name, text[:draw(st.integers(0, len(text) - 1))]
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(fields)
        lines[i] = " ".join(tokens)
    return name, "\n".join(lines) + "\n"


@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_parse_gives_an_object_or_a_typed_error(doc):
    """A damaged document parses to an object or raises an FglabError;
    no other exception escapes parse or parse_extension."""
    name, text = doc
    try:
        if name == "extension":
            parse_extension(text, PrecisionContext(5, 12, 8))
        else:
            parse(text)
    except FglabError:
        pass


def test_parse_refuses_a_valuation_with_no_certified_digit():
    """An entry at valuation -N or below certifies no digit at all, even
    with N digits; as a shift it would also scale every other entry."""
    doc = (GOLDEN / "lt2_p2_h11_group.doc").read_text()
    assert "\n1 0 0 0 | 0 | " in doc
    with pytest.raises(ParseError, match="no certified digit"):
        parse(doc.replace("\n1 0 0 0 | 0 | ", "\n1 0 0 0 | -11 | ", 1))


@pytest.mark.parametrize("profile", ["exact", "200 0 200"])
def test_parse_refuses_a_valuation_beyond_the_header_bound(profile):
    """An entry is stored as unit * p^v, so a huge v is a huge integer:
    `| 10000000 |` took 10 s on a p=5 document.  A valuation above
    abs-precision times degree-cap (12 * 8 = 96 here) is refused, under an
    exact profile and under a certified one whose p0 would allow it; 96
    itself still parses."""
    ctx = PrecisionContext(5, 12, 8)
    doc = serialize(MultiSeries.from_terms(ctx, 1, {(1,): 1}))
    assert "profile 12 0 12" in doc and "\n1 | 0 | " in doc
    doc = doc.replace("profile 12 0 12", f"profile {profile}")
    with pytest.raises(ParseError, match="exceeds abs-precision"):
        parse(doc.replace("\n1 | 0 | ", "\n1 | 97 | "))
    edge = parse(doc.replace("\n1 | 0 | ", "\n1 | 96 | "))
    assert edge.coefficient((1,)).valuation() == 96


def test_parse_refuses_a_header_precision_beyond_the_context_limits():
    """abs-precision: 1000000 with a matching profile used to admit a
    valuation of 4000000, a 9.3-million-bit entry; N and D above the
    context's limits are now a parse error before any entry is read, and
    the limits themselves still parse."""
    ctx = PrecisionContext(5, 12, 8)
    doc = serialize(MultiSeries.from_terms(ctx, 1, {(1,): 1}))
    assert "abs-precision: 12\n" in doc and "degree-cap: 8\n" in doc
    huge = doc.replace("abs-precision: 12\n", "abs-precision: 1000000\n")
    huge = huge.replace("profile 12 0 12", "profile 4000001 0 4000001")
    with pytest.raises(ParseError, match="abs_precision"):
        parse(huge.replace("\n1 | 0 | ", "\n1 | 4000000 | "))
    with pytest.raises(ParseError, match="degree_cap"):
        parse(doc.replace("degree-cap: 8\n", "degree-cap: 100000\n"))
    edge = doc.replace("abs-precision: 12\n", "abs-precision: 256\n")
    edge = edge.replace("degree-cap: 8\n", "degree-cap: 512\n")
    assert parse(edge).ctx == PrecisionContext(5, 256, 512)


def test_context_refuses_a_huge_prime():
    """2^61 - 1 is prime, but deciding that by trial division takes about
    10^9 steps: the context refuses p at or above 2^32 at once."""
    with pytest.raises(BadArgument):
        PrecisionContext(2 ** 61 - 1, 4, 4)
    assert PrecisionContext(4294967291, 4, 4).p == 2 ** 32 - 5


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.doc")))
def test_golden_documents_are_parse_serialize_fixpoints(name):
    """serialize(parse(text)) gives back every golden document byte for
    byte: each header is the envelope of the precision it parses to."""
    text = (GOLDEN / name).read_text()
    kind = text.splitlines()[1].partition(":")[2].strip()
    assert serialize(parse(text), kind=kind if kind in ("tuple", "endo")
                     else None) == text


def _canonical_header(p0, slope, flat, D):
    """The envelope of the header's vector, by brute force over every
    slope n/q, q <= D, in Fractions: (p0, slope, flat, vector)."""
    vec = [max(flat, p0 + math.floor(slope * d)) for d in range(D + 1)]
    top, low = vec[0], min(vec)
    fits = [Fraction(n, q) for q in range(1, D + 1)
            for n in range(-q * (top - low + 2), 1)
            if all(top + math.floor(Fraction(n, q) * d) <= x
                   for d, x in enumerate(vec))]
    return top, max(fits, default=Fraction(0)), low, vec


def _series_document(p, N, D, m, header, entries):
    lines = ["fglab-series v1", "kind: series", f"p: {p}",
             f"abs-precision: {N}", f"degree-cap: {D}", f"num-vars: {m}",
             "components: 1", f"component 0 profile {header}"]
    for exps in sorted(entries, key=lambda e: (sum(e), e)):
        v, digits = entries[exps]
        lines.append(f"{' '.join(map(str, exps))} | {v} | "
                     f"{' '.join(map(str, digits))}")
    return "\n".join(lines + ["end component", "end"]) + "\n"


@given(st.data())
@settings(max_examples=150)
def test_drawn_headers_are_parse_serialize_fixpoints(data):
    """A header p0 slope flat with slope denominator at most D, and entries
    at the digit counts it gives: serialize(parse(text)) is the text when
    the header is its vector's envelope, which a brute-force Fraction fit
    recomputes; any other header parses to the same vector and comes back
    as that envelope."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    N, D, m = (data.draw(st.integers(2, 9)), data.draw(st.integers(2, 6)),
               data.draw(st.integers(1, 2)))
    p0 = data.draw(st.integers(1, N + 3))
    slope = Fraction(-data.draw(st.integers(0, 3 * D)),
                     data.draw(st.integers(1, D)))
    flat = data.draw(st.integers(1, p0))
    c0, cs, cf, vec = _canonical_header(p0, slope, flat, D)
    entries = {}
    for _ in range(data.draw(st.integers(0, 5))):
        exps = tuple(data.draw(st.lists(st.integers(0, D), min_size=m,
                                        max_size=m)))
        if sum(exps) > D:
            continue
        v = data.draw(st.integers(1 - N, vec[sum(exps)] - 1))
        rel = min(vec[sum(exps)] - v, N)
        entries[exps] = (v, [data.draw(st.integers(1, p - 1))] + [
            data.draw(st.integers(0, p - 1)) for _ in range(rel - 1)])
    drawn = _series_document(p, N, D, m,
                             f"{p0} {_fmt(slope)} {flat}", entries)
    canonical = _series_document(p, N, D, m, f"{c0} {_fmt(cs)} {cf}",
                                 entries)
    assert serialize(parse(canonical)) == canonical
    assert serialize(parse(drawn)) == canonical


def _fmt(q):
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"
