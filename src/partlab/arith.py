"""Number theory on part sets: gcd, coprime prefixes, representability.

A part set with gcd 1 represents every large enough integer; for a finite
set the least such starting point (the Frobenius number plus one) is read
off one bitset of the sums of elements, which Schur's bound lets stop at
a horizon known in advance.  The strict-monotonicity criterion for finite
part sets with unrestricted multiplicities checks coprimality of every
(k-1)-element subset.
"""

from __future__ import annotations

import math

from .setspec import (
    ArithmeticProgression,
    DoublyExponential,
    Finite,
    IntegerSetSpec,
    InvalidSetError,
    Powers,
    WithZero,
)


def gcd_of_set(spec: IntegerSetSpec) -> int:
    """gcd of all elements, computed analytically per variant."""
    if isinstance(spec, Finite):
        return math.gcd(*spec.elements)
    if isinstance(spec, ArithmeticProgression):
        return math.gcd(spec.first, spec.step)
    if isinstance(spec, Powers):
        return 1  # contains base^0 = 1
    if isinstance(spec, DoublyExponential):
        # gcd(b, b^b, b^(b^2), ...) = b: every element is a multiple of b.
        return spec.base
    if isinstance(spec, WithZero):
        raise InvalidSetError("gcd_of_set applies to part sets, not multiplicity sets")
    raise TypeError(f"unknown set variant {type(spec).__name__}")


def coprime_prefix(spec: IntegerSetSpec) -> tuple[Finite, tuple[int, ...]]:
    """Shortest initial segment with gcd 1, and its prefix gcds
    g_i = gcd(a_1, ..., a_i), nonincreasing and ending at 1."""
    g = gcd_of_set(spec)
    if g != 1:
        raise InvalidSetError(f"set has gcd {g}; it contains no coprime subset")
    prefix: list[int] = []
    gcds: list[int] = []
    acc = 0
    for a in spec.iter_elements():
        acc = math.gcd(acc, a)
        prefix.append(a)
        gcds.append(acc)
        if acc == 1:
            return Finite(tuple(prefix)), tuple(gcds)
    raise InvalidSetError("finite set exhausted before reaching gcd 1")


def schur_horizon(parts: Finite) -> int:
    """(a_1 - 1)(a_k - 1) + a_1 for the least and largest elements a_1 and
    a_k.  By Schur's bound (Brauer 1942) every n >= (a_1 - 1)(a_k - 1) is a
    sum of elements when they are positive with gcd 1, so
    frobenius_threshold scans to here, and `analyze` refuses a set whose
    horizon passes the CLI's MAX_N."""
    a1, ak = parts.elements[0], parts.elements[-1]
    return (a1 - 1) * (ak - 1) + a1


def frobenius_threshold(parts: Finite) -> int:
    """Least N such that every n >= N is a nonnegative combination of the
    elements, which must be positive with gcd 1 (else no such N exists).

    One int is the scan: bit n is set when n is a sum of elements, up to
    schur_horizon(parts).  Shifting by a, 2a, 4a, ... closes it under
    adding any number of copies of a.  Every n from (a_1 - 1)(a_k - 1) on
    is set by Schur's bound, so the scan needs no further horizon, and N
    is one more than the largest unset bit.
    """
    elems = parts.elements
    if elems[0] < 1 or math.gcd(*elems) != 1:
        raise InvalidSetError("need positive elements with gcd 1")
    horizon = schur_horizon(parts)
    mask = (1 << horizon + 1) - 1
    reachable = 1
    for a in elems:
        while a <= horizon:
            reachable = (reachable | reachable << a) & mask
            a *= 2
    return (mask ^ reachable).bit_length()


def eventually_strictly_increasing(parts: Finite) -> bool:
    """Criterion for p(n; A, all multiplicities) to be strictly increasing
    from some point on: no prime divides all but one of the elements,
    i.e. every (k-1)-subset is coprime.

    For k = 1 the empty subset has gcd 0, so the answer is False; p is
    eventually constant there.
    """
    elems = parts.elements
    if len(elems) == 1:
        return False
    for i in range(len(elems)):
        rest = elems[:i] + elems[i + 1 :]
        if math.gcd(*rest) != 1:
            return False
    return True
