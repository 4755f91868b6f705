"""Brute-force oracles for the normal-form machinery.

Everything here works by enumerating torsion points and doing modular
arithmetic.  Deliberately no elimination, and no Hermite or Smith forms:
these functions are the second route that the canonical-form pipeline is
tested against, so they must not share its failure modes.

A point of order dividing n is k / n for an integer numerator k in
[0, n)^dim, and the enumerations run on those numerators: m @ (k / n) is
integral for m = num / den exactly when num @ k = 0 mod n * den.
``Fraction`` points are built only for the points a function returns.
A subgroup's points are generated rather than tested: over the denominator
d of its overlattice basis they are k / d for the numerators k that the
integer columns of the basis generate mod d, with no elimination at all.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import gcd
from operator import mul

from .matrices import Mat
from .varieties import FiniteSubgroup


def mod1(v) -> tuple[Fraction, ...]:
    return tuple(x % 1 for x in v)


def torsion_numerators(dim: int, n: int):
    """The numerators k in [0, n)^dim of the points k / n of order dividing n."""
    return itertools.product(range(n), repeat=dim)


def _point(k, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, n) for x in k)


def torsion_points(dim: int, n: int) -> list[tuple[Fraction, ...]]:
    """All points of order dividing n, as coordinate tuples in [0, 1)."""
    return [_point(k, n) for k in torsion_numerators(dim, n)]


def _kills(rows, mod: int) -> Callable[[Sequence[int]], bool]:
    """The test, on numerators k, of rows @ k = 0 mod mod."""
    return lambda k: not any(sum(map(mul, row, k)) % mod for row in rows)


def integral_on(m: Mat, n: int) -> Callable[[Sequence[int]], bool]:
    """The test, on numerators k, of whether m @ (k / n) is integral."""
    return _kills(m.num, n * m.den)


def apply_mod1(m: Mat, point) -> tuple[Fraction, ...]:
    return mod1(m.apply(point))


def kernel_points_of_class(e: Mat, l: int) -> list[tuple[Fraction, ...]]:
    """Points of order dividing l annihilated by the class, by enumeration."""
    return [_point(k, l) for k in filter(integral_on(e, l), torsion_numerators(e.cols, l))]


def order_counts(points, upto: int) -> dict[int, int]:
    """For each k <= upto, how many of the points are killed by k."""
    out = {}
    for k in range(1, upto + 1):
        out[k] = sum(1 for p in points if all(k % x.denominator == 0 for x in p))
    return out


def predicted_order_counts(divisors, upto: int) -> dict[int, int]:
    """Order counts of the abelian group with the given elementary divisors."""
    out = {}
    for k in range(1, upto + 1):
        n = 1
        for d in divisors:
            n *= gcd(d, k)
        out[k] = n
    return out


def subgroup_points(sub: FiniteSubgroup) -> list[tuple[Fraction, ...]]:
    """All points of the subgroup, generated from its overlattice basis.

    Over its denominator d the basis is b / d for an integer matrix b, and
    its columns generate the subgroup, so the points are k / d for the
    numerators k in the closure of the columns of b mod d under addition.
    Each column joins the cosets of the group built so far, until its next
    multiple falls back into that group.  The points are returned sorted.
    """
    basis = sub.overlattice.basis
    d = basis.den
    found = {(0,) * basis.rows}
    for col in zip(*basis.num):
        coset = found
        while coset := {tuple((x + y) % d for x, y in zip(k, col)) for k in coset} - found:
            found |= coset
    pts = [_point(k, d) for k in sorted(found)]
    if len(pts) != sub.order:
        raise AssertionError(
            f"enumeration found {len(pts)} points, structure claims {sub.order}"
        )
    return pts


def same_point_sets(ps, qs) -> bool:
    return set(map(tuple, ps)) == set(map(tuple, qs))
