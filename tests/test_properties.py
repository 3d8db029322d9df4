"""Property tests at random coprime (p, q), p <= 200, and odd r <= 45.

Derandomized with a fixed number of examples, so every run checks the
same cases.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lenstau.lens_invariants import (make_lens_space, tau_prime,  # noqa: E402
                                     tau_prime_via_galois)
from lenstau.rt_oracle import (OrderMemo, SurgeryPresentation,  # noqa: E402
                               continued_fraction, so3_invariant, verify)

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


@EXAMPLES
@given(lens_spaces(), lens_spaces(), odd_orders)
def test_memoised_oracle_equals_direct(L, other, r):
    pres = continued_fraction(L.p, L.q)
    direct = so3_invariant(pres, r)
    memo = {}
    so3_invariant(continued_fraction(other.p, other.q), r, memo=memo)
    if len(pres) > 1:
        # the chain's tail is the chain of a smaller lens space
        so3_invariant(SurgeryPresentation(pres.framings[1:]), r, memo=memo)
    assert so3_invariant(pres, r, memo=memo) == direct
    assert so3_invariant(pres, r, memo=memo) == direct


@EXAMPLES
@given(lens_spaces(), lens_spaces(), odd_orders)
def test_memoised_verify_equals_direct(L, other, r):
    direct = verify(L, r)
    memo = OrderMemo()
    verify(other, r, memo=memo)
    # L(p, q*) is the same manifold: its closed-form value has the same
    # arguments, so the memo supplies it
    verify(make_lens_space(L.p, L.q_star), r, memo=memo)
    assert verify(L, r, memo=memo) == direct
    assert verify(L, r, memo=memo) == direct
