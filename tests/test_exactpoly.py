import math
import random
from fractions import Fraction as F
from itertools import accumulate, permutations

import pytest
from hypothesis import given, settings, strategies as st

from knotforge import exactpoly
from knotforge.errors import SingularSystem, ZeroPolynomial
from knotforge.exactpoly import (
    DEEP_WIDTH,
    IsolatingInterval,
    LocatedRoots,
    Poly,
    _bernstein,
    _horner,
    _moved,
    _variations,
    count_roots,
    descartes_bound,
    exact_quotient,
    locate_roots,
    _remainder_sequence,
    rat_str,
    signs_at_roots,
    solve_linear,
    squarefree,
    _primitive_ints,
)
from series_reference import gauss_reference
from sturm_reference import (
    SturmChain,
    cell_intervals,
    count_roots as sturm_count,
    isolate_roots,
    refine,
    sign_at,
)

T = Poly([0, 1])
ints = _primitive_ints


def poly_from_roots(roots):
    p = Poly([1])
    for r in roots:
        p = p * Poly([-F(r), 1])
    return p


class TestArithmetic:
    def test_mul_distributes(self):
        assert Poly([-2, 0, 1]) * T == Poly([0, -2, 0, 1])

    def test_additive_inverse(self):
        p = Poly([F(1, 3), -2, 5])
        assert (p + (-p)).is_zero

    def test_scale(self):
        assert Poly([0, 0, 0, 1]).scale(F(1, 3)) == Poly([0, 0, 0, F(1, 3)])

    def test_zero_poly_degree(self):
        assert Poly().degree == -1
        assert Poly([0, 0]).is_zero

    def test_pow(self):
        assert (T + Poly([1])) ** 2 == Poly([1, 2, 1])

    def test_str_roundtrippable_forms(self):
        assert str(Poly([0, F(-1, 64), 0, 1])) == "t^3 - 1/64*t"
        assert str(Poly()) == "0"

    def test_rat_str(self):
        assert rat_str(F(3)) == "3"
        assert rat_str(F(-8, 27)) == "-8/27"


class TestCompose:
    def test_square_of_cubic(self):
        # (x^2) o (t^3 - 3t) = t^6 - 6t^4 + 9t^2
        assert Poly([0, 0, 1]).compose(Poly([0, -3, 0, 1])) == Poly([0, 0, 9, 0, -6, 0, 1])

    def test_identity(self):
        p = Poly([F(1, 2), 3, 0, -7])
        assert p.compose(T) == p

    def test_substitution_collapses_variable_change(self):
        # x (x-3)^2 / 4 evaluated at x = t^2 equals t^2 (t^2-3)^2 / 4
        quartic = (Poly([0, 1]) * Poly([-3, 1]) * Poly([-3, 1])).scale(F(1, 4))
        tsq = T * T
        direct = (tsq * Poly([-3, 0, 1]) * Poly([-3, 0, 1])).scale(F(1, 4))
        assert quartic.compose(tsq) == direct


class TestEval:
    def test_cubic_values(self):
        p = Poly([0, -3, 0, 1])
        assert p(2) == 2
        assert p(0) == 0

    def test_fraction_point(self):
        assert Poly([-2, 0, 1])(F(1, 2)) == F(-7, 4)

    def test_eval_float(self):
        assert Poly([0, -3, 0, 1]).eval_float([2.0]) == pytest.approx([2.0])


class TestSquarefree:
    """`squarefree` against the first element of the reference Sturm chain."""

    def test_strips_multiplicity(self):
        p = Poly([0, 0, 0, 0, 0, 1]) * Poly([-6, 0, 1])
        sf, g = squarefree(ints(p))
        assert sf == (0, -6, 0, 1) == ints(SturmChain(p).chain[0])
        assert g == (0, 0, 0, 0, 1)
        assert count_roots(sf, -3, 3) == count_roots(ints(p), -3, 3) == 3

    def test_cube(self):
        assert squarefree((0, 0, 0, 1)) == ((0, 1), (0, 0, 1))
        assert SturmChain(Poly([0, 0, 0, 1])).chain[0] == T

    def test_squarefree_fixed(self):
        p = Poly([-2, 0, 1])
        assert squarefree((-2, 0, 1)) == ((-2, 0, 1), (1,))
        assert SturmChain(p).chain[0] == p

    def test_primitive_and_constant(self):
        # the squarefree part is primitive: a positive multiple of p / g
        assert squarefree((-6, 0, 3)) == ((-2, 0, 1), (1,))
        assert squarefree((-5,)) == ((-1,), (1,))

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            squarefree(())
        with pytest.raises(ZeroPolynomial):
            SturmChain(Poly())

    def test_gcd_holds_the_repeated_roots(self):
        # g is primitive with a positive leading coefficient, whatever p's sign
        p = Poly([0, 0, 0, 0, 0, 1]) * Poly([-6, 0, 1]) * poly_from_roots([F(1, 2)] * 2)
        g = Poly([0, 0, 0, 0, 1]) * Poly([F(-1, 2), 1])
        assert squarefree(ints(p))[1] == squarefree(ints(-p))[1] == (0, 0, 0, 0, -1, 2)
        assert SturmChain(p).gcd == g * 2
        assert SturmChain(Poly([-2, 0, 1])).gcd.degree == 0

    def test_gcd(self):
        # the last element of the remainder sequence is the gcd, up to a constant
        a = poly_from_roots([1, 2]) * 3
        b = poly_from_roots([2, 5])
        assert _remainder_sequence(ints(a), ints(b))[-1] in {(-2, 1), (2, -1)}


class TestCountRoots:
    def test_three_small_roots(self):
        assert count_roots((0, -1, 0, 64), -2, 2) == 3

    def test_no_real_roots(self):
        assert count_roots((1, 0, 1), -2, 2) == 0

    def test_roots_beyond_interval(self):
        assert count_roots((-6, 0, 1), -2, 2) == 0  # roots +-sqrt(6)

    def test_open_interval_excludes_endpoints(self):
        p = ints(poly_from_roots([0, 1, 2]))
        assert count_roots(p, 0, 2) == 1
        assert count_roots(p, F(-1, 2), 2) == 2
        assert count_roots(p, F(-1), F(5, 2)) == 3

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomial):
            count_roots((), -1, 1)

    def test_multiplicities_do_not_double_count(self):
        p = ints(poly_from_roots([F(1, 3), F(1, 3), -1]))
        assert count_roots(p, -2, 2) == 2

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError, match="lo < hi"):
            count_roots((0, 1), 1, 1)


class TestIsolation:
    def test_isolates_three(self):
        p = Poly([0, F(-1, 64), 0, 1])  # roots -1/8, 0, 1/8
        ivs = isolate_roots(p, -2, 2)
        assert len(ivs) == 3
        for iv, root in zip(ivs, [F(-1, 8), F(0), F(1, 8)]):
            assert iv.lo < root <= iv.hi

    def test_refine_width(self):
        p = Poly([0, F(-1, 64), 0, 1])
        iv = isolate_roots(p, 0, 2)[-1]
        tight = refine(p, iv, F(1, 2**10))
        assert tight.width <= F(1, 1024)
        assert tight.lo < F(1, 8) <= tight.hi

    def test_irrational_root(self):
        p = Poly([-2, 0, 1])
        ivs = isolate_roots(p, 0, 2)
        assert len(ivs) == 1
        tight = refine(p, ivs[0], F(1, 2**30))
        mid = float((tight.lo + tight.hi) / 2)
        assert abs(mid - 2**0.5) < 1e-8

    def test_refine_keeps_root_at_exact_midpoint_hit(self):
        # the bisection midpoint of (-2, 2) is the root 0 itself
        p = T
        ivs = isolate_roots(p, -2, 2)
        tight = refine(p, ivs[0], F(1, 2**20))
        assert tight.lo < 0 <= tight.hi
        assert tight.width <= F(1, 2**20)

    def test_sturm_chain_shape(self):
        p = Poly([0, F(-1, 64), 0, 1])
        chain = SturmChain(p).chain
        assert chain[0] == p
        assert chain[1] == p.derivative()
        assert chain[-1].degree == 0

    def test_root_exactly_at_hi_does_not_contaminate_last_interval(self):
        # regression: with a root exactly at the window ceiling, the top
        # isolating interval must not contain that excluded root as well
        p = poly_from_roots([F(-29, 16), F(-3, 2), F(9, 16), F(3, 2), F(2)])
        ivs = isolate_roots(p, -2, 2)
        assert len(ivs) == 4
        assert ivs[-1].hi < 2
        tight = refine(p, ivs[-1], F(1, 2**25))
        assert tight.lo < F(3, 2) <= tight.hi

    def test_isolation_fuzz_with_endpoint_roots(self):
        rng = random.Random(7)
        for _ in range(120):
            k = rng.randint(1, 5)
            roots = sorted(rng.sample([F(n, 16) for n in range(-32, 33)], k))
            p = Poly([1])
            for r in roots:
                for _ in range(rng.randint(1, 2)):
                    p = p * Poly([-r, 1])
            lo = rng.choice(roots) if rng.random() < 0.4 else F(-2)
            hi = lo + F(rng.randint(1, 24), 8)
            inside = [r for r in roots if lo < r < hi]
            ivs = isolate_roots(p, lo, hi)
            assert len(ivs) == len(inside)
            assert count_roots(ints(p), lo, hi) == len(inside)
            for iv, r in zip(ivs, inside):
                tight = refine(p, iv, F(1, 2**22))
                assert tight.lo < r <= tight.hi
                assert tight.width <= F(1, 2**22)


small_rat = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=16)


class TestProperties:
    @given(st.lists(small_rat, min_size=1, max_size=5, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_count_exact_on_known_factors(self, roots):
        p = ints(poly_from_roots(roots))
        inside = [r for r in roots if F(-2) < r < F(2)]
        assert count_roots(p, -2, 2) == len(inside)

    @given(st.lists(small_rat, min_size=1, max_size=5, unique=True), small_rat)
    @settings(max_examples=60, deadline=None)
    def test_count_additivity(self, roots, mid):
        p = poly_from_roots(roots)
        if p(mid) == 0 or not F(-2) < mid < F(2):
            return
        p = ints(p)
        assert count_roots(p, -2, mid) + count_roots(p, mid, 2) == count_roots(p, -2, 2)

    @given(st.lists(small_rat, min_size=1, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_square_has_same_squarefree_counts(self, roots):
        p = poly_from_roots(roots)
        assert count_roots(ints(SturmChain(p * p).chain[0]), -2, 2) == count_roots(
            ints(SturmChain(p).chain[0]), -2, 2
        )

    @given(
        st.lists(small_rat, min_size=1, max_size=4),
        st.lists(small_rat, min_size=1, max_size=4),
        small_rat,
    )
    @settings(max_examples=60, deadline=None)
    def test_compose_eval_consistency(self, pc, qc, a):
        p, q = Poly(pc), Poly(qc)
        assert p.compose(q)(a) == p(q(a))


def sign(x):
    return (x > 0) - (x < 0)


def reference_primitive(p):
    """Coprime integer coefficients of a positive multiple of p."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return tuple(v // g for v in ints)


def reference_gcd(a, b):
    """Monic gcd by Euclid's algorithm in rational arithmetic."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def reference_squarefree(p):
    """p / gcd(p, p') in rational arithmetic."""
    g = reference_gcd(p, p.derivative())
    return p if g.degree <= 0 else p // g


def reference_sturm_chain(p):
    """Signed remainder sequence p, p', -(p mod p'), ... in rational arithmetic."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = divmod(chain[-2], chain[-1])[1]
        if r.is_zero:
            break
        chain.append(-r)
    return chain


any_rat = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=10**12)
points = st.one_of(st.just(F(0)), small_rat, any_rat, st.fractions(max_denominator=3**20))
rational_polys = st.lists(
    st.fractions(min_value=F(-50), max_value=F(50), max_denominator=10**6),
    min_size=1, max_size=9,
).map(Poly).filter(lambda p: not p.is_zero)


def factored(scale, roots, squares):
    """scale * prod (t - r) * prod (t^2 - c).

    Repeated factors make it non-squarefree; c < 0 gives complex roots,
    which let chain elements have negative leading coefficients.
    """
    p = poly_from_roots(roots).scale(scale)
    for c in squares:
        p = p * Poly([-c, 0, 1])
    return p


factored_polys = st.builds(
    factored,
    st.sampled_from([1, F(-3, 2)]),
    st.lists(small_rat, min_size=0, max_size=6),
    st.lists(st.integers(-7, 7).filter(bool), min_size=0, max_size=3),
)
# odd and even polynomials, like A and R: every other coefficient is zero,
# so pseudo-division skips steps
parity_polys = st.builds(
    lambda p, odd: p.compose(Poly([0, 0, 1])) * (T if odd else Poly([1])),
    rational_polys,
    st.booleans(),
)


class TestIntegerKernel:
    @given(rational_polys, points, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_rational_horner(self, p, x, make_root):
        if make_root:
            p = p * Poly([-x, 1])
        assert sign_at(_primitive_ints(p), x.numerator, x.denominator) == sign(p(x))

    @given(st.one_of(rational_polys, factored_polys, parity_polys))
    @settings(max_examples=150, deadline=None)
    def test_chain_matches_rational_reference(self, p):
        if p.degree < 1:
            return
        sf = reference_squarefree(p)
        ref = reference_sturm_chain(sf)
        chain = SturmChain(p)
        assert len(chain.chain) == len(ref)
        assert [reference_primitive(q) for q in chain.chain] == [
            reference_primitive(q) for q in ref
        ]
        # past p and p' each element is exactly the primitive form of the
        # rational remainder; a positive multiple, so every sign agrees
        assert list(chain.chain[2:]) == [Poly(reference_primitive(q)) for q in ref[2:]]
        if sf == p:
            assert chain.chain[:2] == (p, p.derivative())
        else:
            # the squarefree part is p / gcd(p, p') up to a positive factor
            ratio = chain.chain[0].leading / sf.leading
            assert ratio > 0 and chain.chain[0] == sf.scale(ratio)

    @given(
        st.lists(small_rat, min_size=1, max_size=5),
        st.lists(st.integers(1, 3), min_size=5, max_size=5),
        st.booleans(),
        small_rat,
    )
    @settings(max_examples=120, deadline=None)
    def test_repeated_roots_and_root_at_hi(self, roots, mults, root_at_hi, lo):
        p = Poly([1])
        for r, m in zip(roots, mults):
            p = p * poly_from_roots([r] * m)
        hi = max(roots) if root_at_hi else F(2)
        if not lo < hi:
            lo = hi - 1
        distinct = sorted(set(roots))
        inside = [r for r in distinct if lo < r < hi]
        assert count_roots(ints(p), lo, hi) == len(inside)
        chain = SturmChain(p)
        assert chain.count(lo, hi) == len([r for r in distinct if lo < r <= hi])
        ivs = isolate_roots(chain, lo, hi)
        assert ivs == isolate_roots(p, lo, hi)
        assert len(ivs) == len(inside)
        for iv, r in zip(ivs, inside):
            assert [s for s in distinct if iv.lo < s <= iv.hi] == [r]
            tight = refine(chain, iv, F(1, 2**20))
            assert tight == refine(p, iv, F(1, 2**20))
            assert tight.lo < r <= tight.hi
            assert tight.width <= F(1, 2**20)

    @given(
        st.one_of(st.just(Poly()), rational_polys),
        st.one_of(st.just(0), st.integers(-10**6, 10**6), points),
    )
    @settings(max_examples=150, deadline=None)
    def test_call_matches_fraction_horner(self, p, x):
        expected = F(0)
        for c in reversed(p.coeffs):
            expected = expected * x + c
        value = p(x)
        assert type(value) is F and value == expected

    @given(st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30)), max_size=12),
           st.integers(-2**90, 2**90), st.one_of(st.integers(0, 90).map(lambda k: 2**k),
                                                   st.integers(1, 10**9)))
    @settings(max_examples=300, deadline=None)
    def test_horner_matches_fraction_evaluation(self, cs, num, den):
        # den = 2^k (k = 0 included) takes the shift path, any other den the product one
        x = F(num, den)
        expected = sum((c * x**i for i, c in enumerate(cs)), F(0))
        assert _horner(cs, num, den) == expected * den ** (len(cs) - 1)

    @pytest.mark.parametrize("nodes", [
        pytest.param((F(1, 4), F(1, 2)), id="n5"),
        pytest.param((F(1, 8), F(1, 4), F(1, 2)), id="n7"),
    ])
    def test_planted_roots_on_bisection_midpoints(self, nodes):
        # dyadic planted roots are themselves midpoints of the bisection of
        # (-2, 2), where the chain's sign and count read exactly 0 / the root;
        # cells at width hi - lo are the isolating intervals themselves
        roots = sorted([-d for d in nodes] + [F(0)] + list(nodes))
        p = poly_from_roots(roots) * Poly([3, 0, 1])
        chain = SturmChain(p)
        planted = LocatedRoots(roots, F(-2), F(2))
        ivs = isolate_roots(chain, -2, 2)
        assert cell_intervals(planted, F(4)) == ivs
        assert [iv.hi for iv in ivs] == roots
        width = F(1, 2**48)
        assert cell_intervals(planted, width) == [refine(chain, iv, width) for iv in ivs]

    def test_planted_roots_with_a_root_at_two(self):
        # R(2) = 0: the chain deflates the endpoint root, so its top interval
        # stops below 2.  Planted roots assume no root at the ends and would
        # keep (0, 2], which is why `knots.certify` isolates such an R by
        # Descartes bisection: there the cofactor over the planted roots
        # vanishes at 2.
        roots = [F(-1, 4), F(0), F(1, 4)]
        p = poly_from_roots(roots + [F(2), F(-3)])
        chain = SturmChain(p)
        assert chain.sign(F(2)) == 0
        ivs = isolate_roots(chain, -2, 2)
        assert len(ivs) == 3 and ivs[-1].hi < 2
        assert (p // poly_from_roots(roots))(F(2)) == 0
        cells = cell_intervals(LocatedRoots(roots, F(-2), F(2)), F(4))
        assert cells[:2] == ivs[:2]
        assert cells[-1].hi == 2


# a root of a bisection cell's boundary: 0, k/2^m, or a node next to one
DYADIC = st.builds(lambda k, m: F(k, 2**m), st.integers(-63, 63), st.integers(0, 5))
SPREAD = st.fractions(F(-39, 20), F(39, 20), max_denominator=60)
# sorted distinct roots in (-2, 2), with pairs r, r + c 2^-e closer than the
# 2^-48 cells, where the isolation depth exceeds the refinement depth
ROOT_SETS = st.builds(
    lambda roots, pairs, with_zero: sorted(set(
        r for r in roots + [r + F(c, 2**e) for r, e, c in pairs] + [r for r, _, _ in pairs]
        + [F(0)] * with_zero if F(-2) < r < F(2))),
    st.lists(st.one_of(SPREAD, DYADIC), max_size=6),
    st.lists(st.tuples(st.one_of(SPREAD, DYADIC), st.integers(40, 70), st.integers(1, 3)),
             max_size=2),
    st.booleans(),
)


class TestPlantedCells:
    """`LocatedRoots.cells` against Sturm bisection of the polynomial with those roots."""

    @given(ROOT_SETS)
    @settings(max_examples=150, deadline=None)
    def test_cells_match_chain_bisection(self, roots):
        chain = SturmChain(poly_from_roots(roots))
        width = F(1, 2**48)
        expected = [refine(chain, iv, width) for iv in isolate_roots(chain, -2, 2)]
        planted = LocatedRoots(roots, F(-2), F(2))
        assert cell_intervals(planted, width) == expected

    @given(ROOT_SETS)
    @settings(max_examples=100, deadline=None)
    def test_halve_matches_chain_refinement(self, roots):
        # twelve levels below every 2^-48 cell, one at a time as the ordering
        # proof takes them, against one bisection step each on the chain
        chain = SturmChain(poly_from_roots(roots))
        planted = LocatedRoots(roots, F(-2), F(2))
        for i, k in enumerate(planted.cells(F(1, 2**48))):
            iv = planted.interval(i, k)
            for step in range(1, 13):
                iv = refine(chain, iv, iv.width / 2)
                assert planted.interval(i, k + step) == iv

    def test_cells_on_another_interval(self):
        roots = [F(-1, 3), F(1, 4), F(1, 4) + F(1, 2**60)]
        chain = SturmChain(poly_from_roots(roots))
        width = F(3, 2**20)  # (hi - lo) / 2^20
        planted = LocatedRoots(roots, F(-1), F(2))
        assert cell_intervals(planted, width) == [refine(chain, iv, width)
                                                  for iv in isolate_roots(chain, -1, 2)]

    def test_ends_are_integers_over_c_2k(self):
        # lo = -1/2 and hi - lo = 3: a = -1, b = 6, c = 2; the root 1/3 is in
        # the cell j = 1 of x at depth 2, (-1 * 4 + 6, -1 * 4 + 12] / (2 * 4)
        planted = LocatedRoots([F(1, 3)], F(-1, 2), F(5, 2))
        assert planted.ends(0, 2) == (2, 8, 8)
        assert planted.interval(0, 2) == IsolatingInterval(F(1, 4), F(1))

    def test_width_must_halve_the_interval(self):
        planted = LocatedRoots([F(0)], F(-2), F(2))
        with pytest.raises(ValueError, match="2\\^depth"):
            planted.cells(F(1, 3))

    @pytest.mark.parametrize("roots", [
        pytest.param([F(1, 2), F(-1, 2)], id="unsorted"),
        pytest.param([F(0), F(0)], id="repeated"),
        pytest.param([F(-2), F(0)], id="at-lo"),
        pytest.param([F(0), F(2)], id="at-hi"),
        pytest.param([F(3)], id="outside"),
    ])
    def test_contract_is_checked(self, roots):
        with pytest.raises(ValueError, match="sorted, distinct and strictly inside"):
            LocatedRoots(roots, F(-2), F(2))


class TestLocateRoots:
    """Descartes isolation (`locate_roots`) against Sturm bisection and counting."""

    @given(ROOT_SETS, st.sets(st.sampled_from([F(-2), F(2)])),
           st.sampled_from([F(-3), F(9, 4), F(5, 2)]), st.lists(st.integers(1, 7), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_sturm_bisection(self, roots, ends, double, squares):
        # roots on bisection midpoints (DYADIC) and 2^-40..2^-70 apart
        # (ROOT_SETS), at +-2, a double root outside (-2, 2), complex pairs
        p = poly_from_roots(roots + sorted(ends) + [double, double])
        for c in squares:
            p = p * Poly([c, 0, 1])
        chain = SturmChain(p)
        located = locate_roots(ints(p), -2, 2)
        assert located is not None
        assert len(located) == len(roots) == sturm_count(chain, -2, 2)
        ivs = isolate_roots(chain, -2, 2)
        assert cell_intervals(located, F(4)) == ivs
        width = F(1, 2**48)
        assert cell_intervals(located, width) == [refine(chain, iv, width) for iv in ivs]
        for i, k in enumerate(located.cells(width)):
            iv = located.interval(i, k)
            assert located.interval(i, k + 5) == refine(chain, iv, iv.width / 32)
            for step in range(1, 7):
                iv = refine(chain, iv, iv.width / 2)
                assert located.interval(i, k + step) == iv

    @given(ROOT_SETS.filter(bool), st.data())
    @settings(max_examples=40, deadline=None)
    def test_double_root_inside_does_not_finish(self, roots, data):
        p = poly_from_roots(roots + [data.draw(st.sampled_from(roots))])
        assert locate_roots(ints(p), -2, 2) is None
        assert SturmChain(p).gcd.degree > 0

    def test_roots_closer_than_deep_width_need_no_depth_limit(self):
        roots = [F(1, 3), F(1, 3) + F(1, 2**210)]
        p = poly_from_roots(roots)
        assert locate_roots(ints(p), -2, 2) is None
        located = locate_roots(ints(p), -2, 2, None)
        chain = SturmChain(p)
        width = F(1, 2**48)
        cells = cell_intervals(located, width)
        assert cells == [refine(chain, iv, width) for iv in isolate_roots(chain, -2, 2)]
        assert cells[0].width < DEEP_WIDTH

    @given(ROOT_SETS, st.lists(st.integers(1, 7), max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_roots_come_out_in_order(self, roots, squares):
        # the raw roots, exact or open cells of x, ascend as isolation emits them
        p = poly_from_roots(roots)
        for c in squares:
            p = p * Poly([c, 0, 1])
        located = locate_roots(ints(p), -2, 2)
        spans = [(F(*x), F(*x)) if isinstance(x, tuple) else (F(x[0], 2**x[1]), F(x[0] + 1, 2**x[1]))
                 for x in located._x]
        assert len(spans) == len(roots)
        assert all(a[1] <= b[0] and a != b for a, b in zip(spans, spans[1:]))
        assert all(lo < (r + 2) / 4 < hi or lo == hi == (r + 2) / 4
                   for (lo, hi), r in zip(spans, roots))
        # an open cell carries q's sign just right of its left end and 2^(e d) q at its ends
        for j, e, s, fa, fb, _ in (x for x in located._x if isinstance(x, list)):
            assert (fa, fb) == (_horner(located._moved, j, 2**e), _horner(located._moved, j + 1, 2**e))
            assert s == sign(fa) if fa else not fb or s == -sign(fb)

    def test_on_another_interval(self):
        p = poly_from_roots([F(-1, 3), F(1, 4), F(1, 4) + F(1, 2**60), F(2)])
        chain = SturmChain(p)
        width = F(3, 2**20)  # (hi - lo) / 2^20
        assert cell_intervals(locate_roots(ints(p), -1, 2), width) == [
            refine(chain, iv, width) for iv in isolate_roots(chain, -1, 2)]

    @given(st.lists(small_rat, max_size=5), st.lists(st.integers(1, 3), min_size=5, max_size=5),
           st.sampled_from([(F(-2), F(2)), (F(0), F(4)), (F(-1, 3), F(1, 2))]))
    @settings(max_examples=100, deadline=None)
    def test_descartes_bound(self, roots, mults, interval):
        # the bound, capped at 2, is at least the count with multiplicity, and exact below 2
        lo, hi = interval
        p = Poly([1])
        for r, m in zip(roots, mults):
            p = p * poly_from_roots([r] * m)
        inside = sum(m for r, m in zip(roots, mults) if lo < r < hi)
        bound = descartes_bound(ints(p), lo, hi)
        assert bound >= min(inside, 2)
        assert bound >= 2 or bound == inside


def prefix_sum_descartes(cs):
    """Sign variations of (1 + x)^d c(1/(1 + x)), capped at 2: the Descartes test
    on (0, 1) by the Taylor shift by 1 of c reversed, one prefix-sum pass per
    coefficient, stopping at 2; the reference for `_variations`."""
    r = list(cs)
    count = last = 0
    for m in range(len(r), 0, -1):
        r[:m] = accumulate(r[:m])
        if r[m - 1]:
            if last and (r[m - 1] < 0) != (last < 0):
                count += 1
                if count == 2:
                    return 2
            last = r[m - 1]
    return count


INTERVALS = st.sampled_from([(F(-2), F(2)), (F(-2), F(0)), (F(0), F(4)), (F(-1, 3), F(1, 2)),
                             (F(1, 4), F(1, 4) + F(1, 2**60))])
integer_polys = st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(any)


class TestBernstein:
    """`_bernstein` and `_variations` against the monomial form and the prefix-sum Descartes test."""

    @given(st.one_of(ROOT_SETS.map(lambda roots: ints(poly_from_roots(roots))), integer_polys),
           INTERVALS)
    @settings(max_examples=200, deadline=None)
    def test_variations_match_prefix_sum_descartes(self, p, interval):
        q = _moved(p, *interval)
        assert _variations(_bernstein(q)[0]) == prefix_sum_descartes(q)
        assert descartes_bound(p, *interval) == prefix_sum_descartes(q)

    @given(integer_polys, st.fractions(F(0), F(1), max_denominator=50))
    @settings(max_examples=100, deadline=None)
    def test_coefficients_expand_to_q(self, q, x):
        b, scale = _bernstein(q)
        d = len(q) - 1
        value = sum(F(v, scale) * math.comb(d, i) * x**i * (1 - x)**(d - i) for i, v in enumerate(b))
        assert value == sum(c * x**i for i, c in enumerate(q))
        assert (b[0], b[-1]) == (q[0] * scale, sum(q) * scale)

    def test_variations_skip_zeros_and_cap_at_two(self):
        assert _variations([]) == _variations([0, 0]) == _variations([3, 0, 5]) == 0
        assert _variations([3, 0, -5]) == _variations([0, -1, 0, 7, 0]) == 1
        assert _variations([1, -1, 1]) == _variations([1, -1, 1, -1, 1]) == 2


def squarefree_isolation_only(mp):
    """Fail if `locate_roots` with no depth limit is given a polynomial with a
    multiple root, on which it could bisect forever."""
    real = exactpoly.locate_roots

    def checked(p, lo, hi, deep=DEEP_WIDTH):
        assert deep is not None or squarefree(p)[1] == (1,)
        return real(p, lo, hi, deep)

    mp.setattr(exactpoly, "locate_roots", checked)


@st.composite
def counted_cases(draw):
    """(p, lo, hi): rational roots, on bisection midpoints or not, and
    irrational +-sqrt(c) ones, each up to threefold, and complex pairs; the
    ends are arbitrary rationals, roots of p, or +-2."""
    p = Poly([1])
    roots = draw(st.lists(st.one_of(small_rat, DYADIC), max_size=4))
    for r in roots:
        p = p * poly_from_roots([r] * draw(st.integers(1, 3)))
    for c in draw(st.lists(st.sampled_from([2, 3, 5, F(1, 2), F(7, 9)]), max_size=2)):
        p = p * Poly([-c, 0, 1]) ** draw(st.integers(1, 3))
    for a, b in draw(st.lists(st.tuples(small_rat, st.fractions(F(1, 10**6), 4)), max_size=2)):
        p = p * Poly([a * a + b, -2 * a, 1]) ** draw(st.integers(1, 2))  # roots a +- i sqrt(b)
    ends = st.one_of(any_rat, DYADIC, st.sampled_from([F(-2), F(2)]),
                     *([st.sampled_from(roots)] if roots else []))
    lo, hi = sorted([draw(ends), draw(ends)])
    if lo == hi:
        hi += draw(st.sampled_from([F(1, 2**60), F(1, 3), F(4)]))
    return p, lo, hi


class TestCountRootsDifferential:
    """`count_roots` against the Sturm reference count, on multiple roots."""

    @given(counted_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_sturm_count(self, case):
        p, lo, hi = case
        with pytest.MonkeyPatch.context() as mp:
            squarefree_isolation_only(mp)
            assert count_roots(ints(p), lo, hi) == sturm_count(p, lo, hi)

    @pytest.mark.parametrize("p,lo,hi,expected", [
        pytest.param(Poly([-2, 0, 1]) ** 2, -2, 2, 2, id="sqrt2-squared"),
        pytest.param(Poly([-3, 0, 1]) ** 3, F(-7, 4), F(7, 4), 2, id="sqrt3-cubed"),
        pytest.param(Poly([-3, 0, 1]) ** 3, F(7, 4), 2, 0, id="sqrt3-cubed-outside"),
        pytest.param(T * Poly([-2, 0, 1]) ** 3, F(-1, 2), 2, 2, id="zero-and-sqrt2-cubed"),
        pytest.param(poly_from_roots([F(1, 2)] * 3) * Poly([1, 0, 1]) ** 2, 0, F(1, 2), 0,
                     id="triple-at-hi"),
        pytest.param(poly_from_roots([0, 0, F(3, 8), F(3, 8)]), -2, 2, 2, id="double-midpoints"),
    ])
    def test_known_counts(self, p, lo, hi, expected):
        with pytest.MonkeyPatch.context() as mp:
            squarefree_isolation_only(mp)
            assert count_roots(ints(p), lo, hi) == sturm_count(p, lo, hi) == expected


class TestExactQuotient:
    def test_divides(self):
        b = (-1, 0, 4)  # 4t^2 - 1, primitive
        a = _primitive_ints(Poly(b) * Poly([3, -2, 0, 5]))
        assert exact_quotient(a, b) == (3, -2, 0, 5)

    @pytest.mark.parametrize("a", [
        pytest.param((1, 0, 4, 0, 4), id="inexact-step"),  # 4t^4 + 4t^2 + 1: then 5t^2 / 4t^2
        # 5t^2 - 1: the floor quotient 1 clears the low terms, and only the
        # inexact step shows that t^2 is left over
        pytest.param((-1, 0, 5), id="inexact-lead"),
        pytest.param((2, 1, 4), id="remainder"),           # every step exact, remainder t + 3
        pytest.param((1, 2), id="lower-degree"),
    ])
    def test_refuses_a_non_divisor(self, a):
        b = (-1, 0, 4)
        assert divmod(Poly(a), Poly(b))[1] != Poly()
        assert exact_quotient(a, b) is None


class TestSignsAtRoots:
    """The exact sign of q at each root of p, from p's isolating intervals."""

    @given(
        st.lists(st.fractions(F(-19, 10), F(19, 10), max_denominator=40),
                 min_size=1, max_size=4, unique=True),
        st.lists(st.fractions(F(-19, 10), F(19, 10), max_denominator=40), max_size=3),
        st.booleans(),
        st.sampled_from([1, -3, F(1, 7)]),
        st.sampled_from([F(4), F(1, 2**48)]),  # the isolating cells, and certify's ROOT_WIDTH
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_sign_at_rational_roots(self, roots, q_roots, share, lead, width):
        if share:
            q_roots = q_roots + roots[:1]  # q vanishes at a root of p
        q = poly_from_roots(q_roots).scale(lead)
        located = locate_roots(ints(poly_from_roots(roots)), -2, 2)
        expected = [sign(q(r)) for r in sorted(roots)]
        assert signs_at_roots(located, ints(q), located.cells(width)) == expected

    @given(
        st.lists(DYADIC.filter(lambda r: -2 < r < 2), min_size=1, max_size=5, unique=True),
        st.lists(DYADIC, max_size=3),
        st.booleans(),
        st.sampled_from([1, -3, F(1, 7)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_roots_match_the_cell_path(self, roots, q_roots, share, lead):
        # planted in (-2, 2) every root is held exact and decided by one
        # evaluation; in (-2, hi) a root k / 2^m (|k| < 64, m <= 5) sits at
        # x = 243 (k + 2^(m+1)) / (973 2^m), never dyadic, so it is an open
        # cell there, decided by the slope bound
        if share:
            q_roots = q_roots + roots[:1]  # q vanishes at a root of p
        q = poly_from_roots(q_roots).scale(lead)
        roots = sorted(roots)
        exact = LocatedRoots(roots, -2, 2)
        hi = 2 + F(1, 3**5)
        cells = locate_roots(ints(poly_from_roots(roots)), -2, hi)
        assert not any(isinstance(x, tuple) for x in cells._x)
        expected = [sign(q(r)) for r in roots]
        assert signs_at_roots(exact, ints(q), exact.cells(F(4))) == expected
        assert signs_at_roots(cells, ints(q), cells.cells(hi + 2)) == expected

    @pytest.mark.parametrize("offset,expected", [
        (F(-1, 2**150), -1),   # decided above the gcd depth
        (F(1, 2**250), 1),     # decided below it, after the gcd finds no common root
        (F(0), 0),
    ])
    def test_root_of_q_next_to_a_root_of_p(self, offset, expected):
        located = locate_roots(ints(poly_from_roots([F(-1), F(1, 3)])), -2, 2)
        q = Poly([-F(1, 3) + offset, 1])  # q(1/3) = offset
        assert signs_at_roots(located, ints(q), located.cells(F(4))) == [-1, expected]

    def test_irrational_roots(self):
        p = Poly([-2, 0, 1])                 # roots -sqrt(2), sqrt(2)
        q = T * p - Poly([F(1, 10**30)])     # -10^-30 at both roots
        located = locate_roots(ints(p), -2, 2)
        assert signs_at_roots(located, ints(q), located.cells(F(4))) == [-1, -1]

    def test_constant_and_zero(self):
        located = locate_roots(ints(poly_from_roots([F(-1, 2), F(1, 2)])), -2, 2)
        depths = located.cells(F(4))
        assert signs_at_roots(located, (-2,), depths) == [-1, -1]
        assert signs_at_roots(located, (), depths) == [0, 0]


@st.composite
def linear_systems(draw):
    """Square systems with many zeros, and sometimes a column that depends on earlier ones."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(F(0)), st.fractions(F(-9), F(9), max_denominator=7),
                      st.integers(-2**70, 2**70).map(F))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))  # j = 0 makes a zero column
        weights = [draw(entry) for _ in range(j)]
        for row in m:
            row[j] = sum((w * row[i] for i, w in enumerate(weights)), F(0))
    return m, [draw(entry) for _ in range(n)]


class TestLinearAlgebra:
    @given(linear_systems())
    @settings(max_examples=150, deadline=None)
    def test_solve_matches_fraction_gauss(self, system):
        matrix, rhs = system
        try:
            expected, _ = gauss_reference(matrix, rhs)
        except SingularSystem as exc:
            with pytest.raises(SingularSystem) as got:
                solve_linear(matrix, rhs)
            assert str(got.value) == str(exc)
        else:
            assert solve_linear(matrix, rhs) == expected

    @given(linear_systems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_scale_and_order_change_nothing(self, system, data):
        # rows cleared to int or left Fraction, scaled by positive integers
        # and permuted: the same solution, or the same singular column
        matrix, rhs = system
        rows = [[*row, b] for row, b in zip(matrix, rhs)]
        if data.draw(st.booleans(), label="int rows"):
            rows = [[int(v * math.lcm(*(w.denominator for w in row))) for v in row] for row in rows]
        scales = data.draw(st.lists(st.integers(1, 2**40), min_size=len(rows), max_size=len(rows)))
        order = data.draw(st.permutations(range(len(rows))))
        rows = [[s * v for v in rows[i]] for s, i in zip(scales, order)]
        moved = [row[:-1] for row in rows], [row[-1] for row in rows]
        try:
            expected, _ = gauss_reference(matrix, rhs)
        except SingularSystem as exc:
            with pytest.raises(SingularSystem) as got:
                solve_linear(*moved)
            assert str(got.value) == str(exc)
        else:
            assert solve_linear(*moved) == expected

    @pytest.mark.parametrize("matrix,column", [
        pytest.param([[1, 2, 3], [0, 0, 0], [4, 5, 7]], 2, id="zero-row"),
        pytest.param([[0, 1, 2], [0, 3, 4], [0, 5, 7]], 0, id="dependent-first-column"),
        pytest.param([[1, 2, 5], [2, 4, 1], [3, 6, 2]], 1, id="dependent-second-column"),
    ])
    def test_singular_column_under_row_scale_and_order(self, matrix, column):
        for order in permutations(range(3)):
            for scales in ([1, 1, 1], [6, 1, 10**30], [F(1, 3), 7, F(5, 2)]):
                rows = [[s * v for v in matrix[i]] for s, i in zip(scales, order)]
                with pytest.raises(SingularSystem, match=f"^singular at column {column}$"):
                    solve_linear(rows, [1, 2, 3])

    def test_solve(self):
        sol = solve_linear([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
        assert sol == [F(1), F(3)]

    def test_singular_raises(self):
        with pytest.raises(SingularSystem):
            solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])
