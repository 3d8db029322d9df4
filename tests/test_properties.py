"""Property tests at random coprime (p, q), p <= 200, and odd r <= 45,
and of the reduction modulo Phi_n on random integer vectors.

Derandomized with a fixed number of examples, so every run checks the
same cases.
"""

import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lenstau import rt_oracle  # noqa: E402
from lenstau.cyclotomic import _reduce, degree  # noqa: E402
from lenstau.lens_invariants import (BRACKET_CALIBRATED,  # noqa: E402
                                     make_lens_space, tau_prime,
                                     tau_prime_via_galois)
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
        return rt_oracle._compare(M, r, oracle, 1e-8, BRACKET_CALIBRATED,
                                  memo)

    shared(other)
    # L(p, q*) is the same manifold: its closed-form value has the same
    # arguments, so the memo supplies it, embedding included
    shared(make_lens_space(L.p, L.q_star))
    assert shared(L) == direct
    assert shared(L) == direct
