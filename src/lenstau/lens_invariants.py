"""The SO(3) invariant tau'_r(L(p, q)) for odd r > 1, in closed form.

The invariant branches on c = gcd(p, r):

* c = 1: a Dedekind-sum phase times a quantum-integer ratio in Q(zeta_r).
* c > 1 and c | q* + eta for eta in {+1, -1}: a Gauss-sum expression whose
  root-of-unity phase is assembled from a bracket of fractional powers,
  realized exactly as integer powers of zeta_{p*r} and reduced to a power
  of zeta_r (the reduction must be exact; IntegralityFailure otherwise).
* c > 1 otherwise: zero.

Neither nonzero branch needs division in Q(zeta_r).  With z = zeta_r,
y = z^x of order r and k >= 0, the Case 1 ratio of quantum integers is
the geometric sum

    (y^k - y^-k) / (y - y^-1) = sum_{0 <= j < k} z^(x(k - 1 - 2j)),

and since sum_{0 <= j < r} j*w^j = r/(w - 1) for w = z^(2h) != 1, the
Case 2 denominator inverts as

    1 / (z^-h - z^h) = -(1/r) * sum_{0 < j < r} j * z^(h(2j + 1)).

Multiplied by scale * z^phase * gauss_sum(c), whose integer coefficient
g_i sits on z^(b_i - h) with b_i = phase + i*r/c + h, the coefficient of
z^t is -(scale/r) * sum_i g_i * ((t - b_i)*u mod r) with u = (2h)' mod r.
With s = t*u mod r and beta_i = b_i*u mod r that is

    -(scale/r) * (G*s - M + r*A(s)),
    G = sum_i g_i,  M = sum_i g_i*beta_i,  A(s) = sum_{beta_i > s} g_i,

so the whole numerator vector comes from one suffix sum over a histogram
of g at the positions beta_i, in O(r + c) integer steps.

Each nonzero value is therefore one integer combination of powers of z
over the denominator 1 or r, built as a single Cyclotomic of order r.

``xi_r`` is the same invariant family evaluated at the untwisted root
e_r; composing it with the Galois substitution z -> z^((1 -+ r)/4) must
reproduce ``tau_prime`` exactly, which is the main internal consistency
check of the package.

Sign convention for the Case 2 bracket: the closed formulas circulate
with inconsistent signs on the bracket exponents.  ``BRACKET_CALIBRATED``
is the reading validated against the independent numeric oracle (see
rt_oracle.bracket_sign_study), and every function here uses it.  Only
``tau_prime`` takes another reading, or a shifted Bezout pair, so the
harness can run the other readings through it and show that they fail.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cyclotomic import Cyclotomic, gauss_sum, root_of_unity
from .cyclotomic import _check_order as _check_field_order
from .errors import EvenOrder, IntegralityFailure, OrderOne
from .number_theory import (_check_lens_pair, _twelve_dedekind, bezout_pair,
                            jacobi_symbol, mod_inverse)

CASE_ONE = "CaseOne"
CASE_TWO = "CaseTwo"
ZERO = "Zero"

# (sign on the 12*s(q,p) exponent, sign on the two Bezout exponents).
BRACKET_CALIBRATED = (-1, -1)
BRACKET_VARIANTS = ((-1, -1), (1, 1), (-1, 1), (1, -1))


class LensSpace(NamedTuple):
    """L(p, q) with its Bezout data, p*.p + q*.q = 1 with 0 < q* < p, and
    the Dedekind integer m = 12*s(q,p)*p, which every formula here reads
    (the denominator of 12*s(q,p) divides p)."""

    p: int
    q: int
    q_star: int
    p_star: int
    m: int


class TauPrimeResult(NamedTuple):
    value: Cyclotomic
    r: int
    c: int
    branch: str
    eta: int | None = None

    def branch_label(self) -> str:
        if self.branch == CASE_TWO:
            return f"CaseTwo({'+1' if self.eta == 1 else '-1'})"
        return self.branch


def make_lens_space(p: int, q: int) -> LensSpace:
    """Normalize (p, q) and attach the Bezout pair (q*, p*) and
    m = 12*s(q,p)*p; IntegralityFailure if m is not an integer."""
    _check_lens_pair(p, q)
    q %= p
    q_star = mod_inverse(q, p)
    p_star = (1 - q_star * q) // p
    num, den = _twelve_dedekind(q, p)
    m, rem = divmod(num * p, den)
    if rem:
        raise IntegralityFailure(
            f"12*s({q},{p})*{p} is not an integer: {num * p}/{den}")
    return LensSpace(p, q, q_star, p_star, m)


def _check_order(r: int) -> None:
    """Refuse r before any O(r) work: the package's one order rule.

    r must be odd and > 1 (EvenOrder, OrderOne), as the formulas take
    residues modulo r of fractions over 2 and 4p, and at most MAX_ORDER
    (OrderOutOfRange).
    """
    if r % 2 == 0:
        raise EvenOrder(f"r must be odd and > 1, got {r}")
    if r <= 1:
        raise OrderOne(f"r must be odd and > 1, got {r}")
    _check_field_order(r)


def three_s_sqrt(L: LensSpace, r: int) -> int:
    """The residue of the rational 3*s(q,p) modulo r, in [0, r).

    3*s(q,p) = m/(4p) with m = 12*s(q,p)*p integral, so the residue is
    m*(4p)' mod r; NotCoprime unless gcd(4p, r) = 1.
    """
    return L.m * mod_inverse(4 * L.p, r) % r


def _branch_eta(L: LensSpace, c: int) -> int | None:
    """eta in {+1, -1} with c | q* + eta, or None (the zero branch)."""
    plus = (L.q_star + 1) % c == 0
    minus = (L.q_star - 1) % c == 0
    if plus and minus:
        raise IntegralityFailure(
            f"c = {c} divides both q* + 1 and q* - 1; c must be odd and > 1")
    if plus:
        return 1
    if minus:
        return -1
    return None


def _galois_exponent(r: int) -> int:
    """(1 -+ r)/4 for r = +-1 mod 4; an inverse of 4 modulo r."""
    return (1 - r) // 4 if r % 4 == 1 else (1 + r) // 4


def _bracket_exponent(L: LensSpace, r: int, eta: int,
                      bracket_signs: tuple[int, int],
                      bezout_shift: int) -> int:
    """Exponent E with bracket = zeta_{p*r}^E.

    The three factors contribute, as powers of zeta_{p*r}:
      e_r^(12s)   ->  12*s(q,p)*p          (exactness: denom of 12s | p)
      e_pc^x      ->  x*(r/c)
      e_rc^y      ->  y*(p/c)
    with x = -(r/c)'*(q + q* - eta*p**p) and y = 2*eta*(p/c)'
    for the Bezout pair (p/c)'*(p/c) + (r/c)'*(r/c) = 1.
    """
    p, q, q_star, p_star = L.p, L.q, L.q_star, L.p_star
    c = math.gcd(p, r)
    s12, srest = bracket_signs
    u, v = p // c, r // c
    u1, v1 = bezout_pair(u, v)
    u1 += bezout_shift * v
    v1 -= bezout_shift * u
    e_pc = v * (-v1 * (q + q_star - eta * p_star * p))
    e_rc = u * (2 * eta * u1)
    return (s12 * L.m + srest * (e_pc + e_rc)) % (p * r)


def case_two_bracket(L: LensSpace, r: int, eta: int) -> Cyclotomic:
    """The Case 2 bracket as an explicit element of Q(zeta_{p*r}).

    Built as a root of unity of order p*r so its reduction to Q(zeta_r)
    can be exercised through the cyclotomic machinery.
    """
    return root_of_unity(L.p * r, _bracket_exponent(
        L, r, eta, BRACKET_CALIBRATED, 0))


def _bracket_power_of_zeta_r(L: LensSpace, r: int, eta: int,
                             bracket_signs: tuple[int, int],
                             bezout_shift: int) -> int:
    """k with bracket = zeta_r^k; IntegralityFailure if no such k exists."""
    e = _bracket_exponent(L, r, eta, bracket_signs, bezout_shift)
    if e % L.p != 0:
        raise IntegralityFailure(
            f"bracket zeta_{L.p * r}^{e} is not a power of zeta_{r} "
            f"(reading {bracket_signs})")
    return (e // L.p) % r


def _quantum_ratio(r: int, scale: int, phase: int, x: int,
                   k: int) -> Cyclotomic:
    """scale * z^phase * (y^k - y^-k)/(y - y^-1) for y = z^x, k >= 0."""
    coeffs = [0] * r
    for j in range(k):
        coeffs[(phase + x * (k - 1 - 2 * j)) % r] += scale
    return Cyclotomic(r, coeffs)


def _gauss_quotient(r: int, c: int, scale: int, phase: int,
                    h: int) -> Cyclotomic:
    """scale * z^phase * gauss_sum(c) / (z^-h - z^h) in Q(zeta_r), c | r.

    gauss_sum(c) has integer coefficients g_i on z_c^i = z^(i*r/c); the
    weighted power sum collapses to one suffix sum over the positions
    beta_i (see the module docstring), so the cost is O(r + c).
    """
    u = pow(2 * h, -1, r)               # r is odd and h a unit mod r
    step = r // c
    hist = [0] * r                      # g_i at position beta_i
    for i, g in enumerate(gauss_sum(c).nums):
        if g:
            hist[(phase + i * step + h) * u % r] += g
    total = sum(hist)
    moment = sum(beta * g for beta, g in enumerate(hist) if g)
    nums = [0] * r
    above = 0                           # A(s): sum of g_i with beta_i > s
    two_h = 2 * h
    for s in range(r - 1, -1, -1):
        nums[s * two_h % r] = -scale * (total * s - moment + r * above)
        above += hist[s]
    return Cyclotomic(r, nums, r)


def _build(memo: dict | None, builder, *args):
    """builder(*args), or the value memo holds for these arguments."""
    if memo is None:
        return builder(*args)
    key = (builder, *args)
    value = memo.get(key)
    if value is None:
        value = memo[key] = builder(*args)
    return value


def _residues(r: int, p: int) -> tuple[int, ...]:
    """What tau_prime needs of (r, p) alone: (c,) for c = gcd(p, r) > 1,
    and (1, (p|r), (4p)' mod r, p' mod r) for c = 1."""
    c = math.gcd(p, r)
    if c > 1:
        return (c,)
    return c, jacobi_symbol(p, r), pow(4 * p, -1, r), pow(p, -1, r)


def tau_prime(L: LensSpace, r: int,
              bracket_signs: tuple[int, int] = BRACKET_CALIBRATED,
              bezout_shift: int = 0, *,
              memo: dict | None = None) -> TauPrimeResult:
    """tau'_r(L(p,q)) for odd r > 1, with branch metadata.

    This is the one public function that takes a Case 2 bracket reading
    (one of BRACKET_VARIANTS; the sign study compares them) or a Bezout
    shift.  bezout_shift replaces the canonical Bezout pair (u', v') by
    (u' + k*(r/c), v' - k*(p/c)); the value must not depend on it.

    memo, when given, is a dict the caller owns.  Two things are looked
    up there by their full argument tuples, r included, and stored on a
    miss: the residues of (r, p) (c, and for Case One (p|r), (4p)' and
    p' mod r), so cases of one order and one p share them; and the
    O(r) construction of the value, the zero included, so cases with
    equal arguments share one value.  One memo may serve several
    orders.  The branch, eta, the bracket exponent and every
    integrality check are still computed for each call.
    """
    _check_order(r)
    p = L.p
    residues = _build(memo, _residues, r, p)
    c = residues[0]
    if c == 1:
        _, jac, inv_4p, inv_p = residues
        # phase -3*s(q,p) = -m/(4p), x = 2' and k = p' mod r
        return TauPrimeResult(
            _build(memo, _quantum_ratio, r, jac, -(L.m * inv_4p % r),
                   (r + 1) // 2, inv_p),
            r, 1, CASE_ONE)
    eta = _branch_eta(L, c)
    if eta is None:
        return TauPrimeResult(_build(memo, Cyclotomic.zero, r), r, c, ZERO)
    w = _galois_exponent(r)
    k = _bracket_power_of_zeta_r(L, r, eta, bracket_signs, bezout_shift)
    sign = (-1) ** (((r - 1) // 2) * ((c - 1) // 2))
    jac = (jacobi_symbol(p // c, r // c) * jacobi_symbol(L.q * w, c))
    value = _build(memo, _gauss_quotient, r, c, sign * jac * eta, k * w,
                   (r + 1) // 2)
    return TauPrimeResult(value, r, c, CASE_TWO, eta)


def xi_r(L: LensSpace, r: int) -> Cyclotomic:
    """xi_r(L(p,q), e_r): the invariant at the untwisted root of unity.

    Fractional powers of e_r are realized exactly as integer powers of
    zeta_{p*r}; the scalar factor reduces to a power of zeta_r (checked
    exactly), so the returned value lives in Q(zeta_r).
    """
    _check_order(r)
    p, q, q_star = L.p, L.q, L.q_star
    c = math.gcd(p, r)
    if c == 1:
        # scalar e_r^(-12s) * e_p^(r'(q+q*)) = zeta_{pr}^E1 = zeta_r^(E1/p)
        r_inv = mod_inverse(r, p)
        e1 = -L.m + r * r_inv * (q + q_star)
        if e1 % p != 0:
            raise IntegralityFailure(
                f"Case 1 scalar is not a power of zeta_{r}")
        return _quantum_ratio(r, jacobi_symbol(p, r), e1 // p, 2,
                              mod_inverse(p, r))
    eta = _branch_eta(L, c)
    if eta is None:
        return Cyclotomic.zero(r)
    k = _bracket_power_of_zeta_r(L, r, eta, BRACKET_CALIBRATED, 0)
    sign = (-1) ** (((r - 1) // 2) * ((c - 1) // 2))
    jac = jacobi_symbol(p // c, r // c) * jacobi_symbol(q, c)
    return _gauss_quotient(r, c, sign * jac * eta, k, 2)


def tau_prime_via_galois(L: LensSpace, r: int) -> Cyclotomic:
    """tau'_r via the Galois route: xi_r followed by z -> z^((1 -+ r)/4).

    Must agree exactly with tau_prime(L, r).value; this equality exercises
    every exponent identity behind the closed formula.
    """
    return xi_r(L, r).galois_apply(_galois_exponent(r))
