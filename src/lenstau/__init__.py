"""Exact quantum invariants of lens spaces.

Computes the SO(3) (Kirby-Melvin) invariants tau'_r(L(p,q)) for all
lens spaces and all odd r > 1 in exact cyclotomic arithmetic, the
Ohtsuki series with exact rational coefficients, and an independent
floating-point Reshetikhin-Turaev oracle for verification.

The exact modules need only the standard library.  The oracle
(`rt_oracle`) needs numpy, so its names are served by the module-level
`__getattr__` below: `import lenstau` loads neither, and the first
access to an oracle name imports `rt_oracle` (and with it numpy).
"""

from .cyclotomic import Cyclotomic, gauss_sum, root_of_unity
from .lens_invariants import (LensSpace, TauPrimeResult, make_lens_space,
                              tau_prime, tau_prime_via_galois, three_s_sqrt,
                              xi_r)
from .number_theory import (bezout_pair, dedekind_sum, dedekind_sum_direct,
                            epsilon, ext_gcd, jacobi_symbol, mod_inverse,
                            rational_mod)
from .ohtsuki import FormalSeries, binomial_series, ohtsuki_tau

__version__ = "0.1.0"

__all__ = [
    "Cyclotomic", "FormalSeries", "LensSpace", "TauPrimeResult",
    "bezout_pair", "binomial_series", "continued_fraction", "dedekind_sum",
    "dedekind_sum_direct", "epsilon", "ext_gcd", "gauss_sum",
    "jacobi_symbol", "make_lens_space", "mod_inverse", "modular_data",
    "ohtsuki_tau", "rational_mod", "root_of_unity", "rt_invariant",
    "so3_invariant", "sweep_verify", "tau_prime", "tau_prime_via_galois",
    "three_s_sqrt", "verify", "xi_r",
]

_ORACLE_NAMES = frozenset({
    "continued_fraction", "modular_data", "rt_invariant", "so3_invariant",
    "sweep_verify", "verify",
})


def __getattr__(name):
    # Not cached in the module dict, so the name always follows
    # rt_oracle's current binding.
    if name in _ORACLE_NAMES:
        from . import rt_oracle
        return getattr(rt_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
