"""Brute-force oracles for the normal-form machinery.

Everything here works by enumerating torsion points and doing modular
arithmetic, with a self-contained rational solver for coset membership.
Deliberately no Hermite or Smith forms: these functions are the second
route that the canonical-form pipeline is tested against, so they must not
share its failure modes.

A point of order dividing n is k / n for an integer numerator k in
[0, n)^dim, and the enumerations run on those numerators: m @ (k / n) is
integral for m = num / den exactly when num @ k = 0 mod n * den.
``Fraction`` points are built only for the points a function returns.
Subgroup membership inverts the overlattice basis once per subgroup, by
the plain elimination of ``_solve_columns``, and then tests each numerator
the same way.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import gcd, lcm
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


def _solve_columns(basis: Mat, rhs) -> list[list[Fraction]] | None:
    """Plain Gaussian elimination on [basis | rhs...], free of normal forms:
    one solution per right-hand side column in rhs, or None when any of
    them is inconsistent."""
    rows = [[Fraction(basis[i, j]) for j in range(basis.cols)] + [Fraction(b[i]) for b in rhs]
            for i in range(basis.rows)]
    ncols = basis.cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(x != 0 for row in rows[r:] for x in row[ncols:]):
        return None
    sols = [[Fraction(0)] * ncols for _ in rhs]
    for i, c in enumerate(pivots):
        for sol, x in zip(sols, rows[i][ncols:]):
            sol[c] = x
    return sols


def subgroup_points(sub: FiniteSubgroup) -> list[tuple[Fraction, ...]]:
    """All points of the subgroup, enumerated through its exponent torsion.

    A point p lies in the subgroup when basis^-1 p is integral, for the
    basis of the overlattice.  The inverse is one elimination against the
    unit vectors; over its common denominator d it is num / d for an
    integer matrix num, so the point k / e is in the subgroup exactly when
    num @ k = 0 mod d * e.
    """
    basis = sub.overlattice.basis
    dim = basis.rows
    unit = [[int(i == j) for i in range(dim)] for j in range(dim)]
    cols = _solve_columns(basis, unit)  # the columns of basis^-1
    d = lcm(*(x.denominator for col in cols for x in col))
    num = [[col[i].numerator * (d // col[i].denominator) for col in cols] for i in range(dim)]
    e = sub.structure.exponent
    pts = [_point(k, e) for k in filter(_kills(num, d * e), torsion_numerators(dim, e))]
    if len(pts) != sub.order:
        raise AssertionError(
            f"enumeration found {len(pts)} points, structure claims {sub.order}"
        )
    return pts


def same_point_sets(ps, qs) -> bool:
    return set(map(tuple, ps)) == set(map(tuple, qs))
