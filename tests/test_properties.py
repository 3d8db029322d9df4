"""Property tests at random coprime (p, q), p <= 200, and odd r <= 45,
of the reduction modulo Phi_n on random integer vectors, of subfield
descent and hashing against the Galois conjugates at n <= 420, of the
Ohtsuki coefficients' reduction at smooth and large p, and of the JSON
rendering of exact values at n <= 105.

Derandomized with a fixed number of examples, so every run checks the
same cases.
"""

import json
import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)

from lenstau import rt_oracle  # noqa: E402
from lenstau.cyclotomic import (Cyclotomic, _reduce, degree,  # noqa: E402
                                root_of_unity)
from lenstau.errors import NotInSubfield  # noqa: E402
from lenstau.lens_invariants import (_twelve_s_times_p,  # noqa: E402
                                     make_lens_space, tau_prime,
                                     tau_prime_via_galois, xi_r)
from lenstau.ohtsuki import (_from_coprime,  # noqa: E402
                             _over_falling_denominators, ohtsuki_tau)
from lenstau.rt_oracle import (continued_fraction,  # noqa: E402
                               lens_space_range, so3_invariant, verify)
from test_cyclotomic import fraction_reduce  # noqa: E402

EXAMPLES = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def lens_spaces(draw, max_p=200):
    p = draw(st.integers(1, max_p))
    q = draw(st.integers(0, p - 1).filter(lambda q: math.gcd(p, q) == 1))
    return make_lens_space(p, q)


odd_orders = st.integers(1, 22).map(lambda k: 2 * k + 1)


@EXAMPLES
@given(lens_spaces(), odd_orders)
def test_galois_route(L, r):
    assert tau_prime_via_galois(L, r) == tau_prime(L, r).value


@EXAMPLES
@given(lens_spaces(), odd_orders, st.integers(-3, 3))
def test_bezout_shift_independence(L, r, shift):
    assert tau_prime(L, r, bezout_shift=shift).value == \
        tau_prime(L, r).value


@EXAMPLES
@given(lens_spaces(), odd_orders)
def test_homeomorphism_invariance(L, r):
    value = tau_prime(L, r).value
    assert tau_prime(make_lens_space(L.p, L.q + L.p), r).value == value
    # L(p, q) and L(p, q*) are the same oriented manifold
    assert tau_prime(make_lens_space(L.p, L.q_star), r).value == value


# orders with one to four distinct primes, sparse and dense Phi_n
reduce_orders = st.sampled_from((1, 2, 3, 4, 12, 15, 45, 101, 105, 210, 401,
                                 891, 1225, 4995))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(reduce_orders, st.floats(0, 3), st.sampled_from((0.01, 0.2, 1.0)),
       st.sampled_from((1, 9, 10**20)), st.integers(0, 2**32 - 1))
def test_reduce_matches_reference(n, stretch, density, bound, seed):
    # a random integer vector of length up to 3n, as sparse or dense as
    # density says
    rng = random.Random(seed)
    length = round(stretch * n)
    coeffs = [rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(length)]
    reduced = _reduce(coeffs, n)
    assert len(reduced) == degree(n)
    assert list(reduced) == fraction_reduce(coeffs, n)


def json_reference(x: Cyclotomic) -> str:
    """The CLI's JSON for an exact value: its ``to_dict()``, keys sorted."""
    return json.dumps(x.to_dict(), sort_keys=True)


coefficients = st.one_of(st.integers(-10**30, 10**30),
                         st.fractions(max_denominator=10**6))


@EXAMPLES
@given(st.integers(1, 105), st.lists(coefficients, max_size=210),
       st.integers(1, 10**6))
@example(1, [], 1)                              # zero
@example(1, [Fraction(-7, 3)], 1)               # order 1
@example(105, [-5, 0, -1, 0, 3], 1)             # negative, den 1
@example(105, [-5, Fraction(3, 4), 0, -1], 6)   # negative, den > 1
def test_to_json_is_json_of_to_dict(n, coeffs, den):
    x = Cyclotomic(n, coeffs, den)
    assert x.to_json() == json_reference(x)


# the tau-prime and xi values of the seed-0 exact-value benchmark at
# r = 891 and 401: Case One, Zero and Case Two at each order
@pytest.mark.parametrize("invariant", [
    lambda L, r: tau_prime(L, r).value, xi_r])
@pytest.mark.parametrize("p, q, r", [
    (1418, 213, 891), (45, 2, 891), (252, 181, 891),
    (1074, 293, 401), (7218, 4225, 401), (1604, 801, 401)])
def test_to_json_at_large_orders(invariant, p, q, r):
    x = invariant(make_lens_space(p, q), r)
    assert x.to_json() == json_reference(x)


@st.composite
def subfield_cases(draw):
    """(n, d, x) with d a proper divisor of n <= 420 and
    x = y.lift(n) + c * z_n^j for a y in Q(zeta_d): in Q(zeta_d) when
    c = 0, and often not otherwise."""
    n = draw(st.integers(2, 420))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    d = rng.choice([d for d in range(1, n) if n % d == 0])
    y = Cyclotomic(d, [rng.randrange(-3, 4) for _ in range(degree(d))],
                   den=rng.randrange(1, 7))
    c = rng.choice((0, 1, -2, Fraction(1, 3)))
    return n, d, y.lift(n) + c * root_of_unity(n, rng.randrange(n))


def conjugate_mean(x, m):
    """The plain average of x's images under z -> z^k, k = 1 (mod m)."""
    n = x.order
    images = [x.galois_apply(k) for k in range(1, n + 1, m)
              if math.gcd(k, n) == 1]
    return sum(images, Cyclotomic.zero(n)) * Fraction(1, len(images))


@EXAMPLES
@given(subfield_cases())
def test_descend_iff_galois_fixed_at_any_order(case):
    # x lies in Q(zeta_d) iff every automorphism z -> z^k with k = 1
    # (mod d) fixes it, here at orders with primes that d lacks
    n, d, x = case
    fixed = all(x.galois_apply(k) == x for k in range(1 + d, n, d)
                if math.gcd(k, n) == 1)
    if fixed:
        assert x.descend(d).order == d
        assert x.descend(d).lift(n) == x
    else:
        with pytest.raises(NotInSubfield):
            x.descend(d)


@EXAMPLES
@given(subfield_cases())
def test_mean_over_is_the_conjugate_average(case):
    # the smallest m with d | m | n and gcd(m, n/m) = 1
    n, d, x = case
    m = min(m for m in range(d, n + 1, d)
            if n % m == 0 and math.gcd(m, n // m) == 1)
    mean = x._mean_over(m)
    assert mean.order == m
    assert mean.lift(n) == conjugate_mean(x, m)


@EXAMPLES
@given(subfield_cases())
def test_hash_is_the_mean_of_all_conjugates(case):
    _, _, x = case
    assert hash(x) == hash(conjugate_mean(x, 1).as_rational())


def plain_ohtsuki(L, n_terms):
    """lambda_(k-1) = Fraction(P_up(k) - P_down(k), (4p)^k k!), the plain
    normalizing reduction (reference)."""
    m = _twelve_s_times_p(L)
    b = 4 * L.p
    up = down = 1
    out = []
    for k in range(1, n_terms + 1):
        up *= 2 * L.p - m + 2 - (k - 1) * b
        down *= 2 * L.p - m - 2 - (k - 1) * b
        out.append(Fraction(up - down, b ** k * math.factorial(k)))
    return tuple(out)


def assert_ohtsuki_reduced(L, n_terms):
    coeffs = ohtsuki_tau(L, n_terms).coeffs
    assert coeffs == plain_ohtsuki(L, n_terms)
    for c in coeffs:
        assert c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


@st.composite
def ohtsuki_lens_spaces(draw):
    # p = 2^e 3^a 5^c 7^d at high valuations, where b = 4p shares the
    # most primes with k!, or any p up to 10^30
    if draw(st.booleans()):
        p = (2 ** draw(st.integers(0, 40)) * 3 ** draw(st.integers(0, 20))
             * 5 ** draw(st.integers(0, 12)) * 7 ** draw(st.integers(0, 10)))
    else:
        p = draw(st.integers(1, 10 ** 30))
    q = draw(st.integers(0, p - 1))
    while math.gcd(p, q) != 1:
        q += 1
    return make_lens_space(p, q)


@EXAMPLES
@given(ohtsuki_lens_spaces(), st.integers(1, 200))
def test_ohtsuki_reduction_matches_reference(L, n_terms):
    assert_ohtsuki_reduced(L, n_terms)


@pytest.mark.parametrize("p, q", [(35, 26), (945, 13)])
def test_ohtsuki_strips_at_most_k_times(p, q):
    # stripping gcd(., o) until it reaches 1 takes too much out of
    # lambda_2 of L(35, 26) and lambda_1 of L(945, 13)
    assert_ohtsuki_reduced(make_lens_space(p, q), 40)


def test_from_coprime_is_a_plain_fraction():
    for n, d in ((0, 1), (1, 1), (-7, 12), (3 ** 200, 2 ** 300 * 5),
                 (-(10 ** 50 + 1), 10 ** 49)):
        x = _from_coprime(n, d)
        assert type(x) is Fraction
        assert x == Fraction(n, d)
        assert hash(x) == hash(Fraction(n, d))
    for x in _over_falling_denominators([0, -5, 7, 120], 6):
        assert type(x) is Fraction


def walk_paths(max_p: int) -> dict:
    """(p, q) -> the chain that the sweep's walk contracts for the case.

    Under stand-in modular data a vector is the tuple of framings
    contracted into it: T^a is (a,), S maps a vector to itself, the
    vacuum row is (), and reading a case's value off its vector records
    the vector.
    """
    read = []

    class Path(tuple):
        def __mul__(self, other):        # T^a * (S @ vec)
            return Path(self + other)

        def __matmul__(self, vec):       # vac @ vec
            read.append(vec)
            return 0

    class S:
        def __getitem__(self, key):      # s[0], or s[0, 0]
            return Path() if key == 0 else 1.0

        def __matmul__(self, vec):
            return vec

    class T:
        def __pow__(self, a):
            return Path((a,))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rt_oracle, "so3_modular_data", lambda r: (S(), T(), 1.0))
        cases = [(p, q) for p, q, _ in rt_oracle._chain_walk(3, max_p)]
    assert cases[0] == (1, 0)            # S^3 reads no vector
    return dict(zip(cases[1:], read, strict=True))


def test_walk_path_is_the_continued_fraction_to_60():
    assert walk_paths(60) == {(p, q): continued_fraction(p, q)
                              for p, q in lens_space_range(60) if p > 1}


@EXAMPLES
@given(lens_spaces())
def test_walk_path_is_the_continued_fraction(L):
    # the tree walked depends on max_p, so walk to p itself
    assert walk_paths(L.p).get((L.p, L.q), ()) == \
        continued_fraction(L.p, L.q)


@EXAMPLES
@given(lens_spaces(), odd_orders)
def test_walk_oracle_equals_direct(L, r):
    walked = next(value for p, q, value in rt_oracle._chain_walk(r, L.p)
                  if (p, q) == (L.p, L.q))
    assert walked == so3_invariant(continued_fraction(L.p, L.q), r)


@EXAMPLES
@given(lens_spaces(), lens_spaces(), odd_orders)
def test_memoised_verify_equals_direct(L, other, r):
    direct = verify(L, r)
    memo = {}

    def shared(M):
        oracle = so3_invariant(continued_fraction(M.p, M.q), r)
        return rt_oracle._compare(M, tau_prime(M, r, memo=memo), oracle,
                                  1e-8)

    shared(other)
    # L(p, q*) is the same manifold: its closed-form value has the same
    # arguments, so the memo supplies it, embedding included
    shared(make_lens_space(L.p, L.q_star))
    assert shared(L) == direct
    assert shared(L) == direct
