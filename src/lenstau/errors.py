"""Exception types shared across the package."""


class NotCoprime(ValueError):
    """Arguments required to be coprime share a factor."""


class EvenModulus(ValueError):
    """Jacobi symbol modulus must be odd."""


class EvenInput(ValueError):
    """Operation defined for odd integers only."""


class EvenOrder(ValueError):
    """Invariant order r must be odd."""


class OrderOne(ValueError):
    """Invariant order r must exceed 1."""


class NonPositiveP(ValueError):
    """Lens space parameter p must be a positive integer."""


class NonPositiveModulus(ValueError):
    """A modular inverse needs a positive modulus."""


class OrderOutOfRange(ValueError):
    """An order lies below its minimum or above MAX_ORDER."""


class TermsOutOfRange(ValueError):
    """A series length lies outside 1..MAX_TERMS."""


class InvalidOption(ValueError):
    """A command-line option has a value the command cannot use."""


class NotInSubfield(ValueError):
    """Cyclotomic value does not lie in the requested subfield."""


class OrderMismatch(ValueError):
    """A lift needs a multiple of the value's order, a descent a divisor."""


class NotDivisible(ValueError):
    """Power series does not vanish to the order a shift removes."""


class EmptyChain(ValueError):
    """A continued fraction needs at least one term."""


class WorkerDied(RuntimeError):
    """A worker process exited without sending back its results."""


class NotInvertible(ZeroDivisionError):
    """Power series denominator has no invertible unit part."""


class IntegralityFailure(ArithmeticError):
    """A root-of-unity bracket failed to reduce to the expected subfield.

    This signals an implementation or sign-convention bug, never a
    legitimate input condition.
    """
