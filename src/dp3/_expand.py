"""Graded series algebra used by the expansion generators.

Terms are keyed (p, m, j) and stand for  tau**(p + m*sigma) * log(tau)**j
with integer p, m, j and a fixed complex grading exponent sigma.  The three
expansion families all live in this algebra (the logarithmic families use
m = 0 keys only).  Coefficient recurrences reduce to collecting rows of the
polynomial form of the equation,

    E(u) = u u'' - (u')^2 + u u'/tau + (8 u^3 - 2 a beff u)/tau - beff^2,

which vanishes identically on solutions with eps = +1 and b replaced by
beff = eps*b (the eps-normalized convention used throughout).  A level
reads one tau-grade of E and of its linearization; LevelRows assembles
just that row.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Key = Tuple[int, int, int]
Series = Dict[Key, complex]
# a single tau-grade p of a series: {(m, j): coeff}
Row = Dict[Tuple[int, int], complex]
Bucket = List[Tuple[int, int, complex]]


def smul(A: Series, B: Series) -> Series:
    out: Series = {}
    for (pa, ma, ja), ca in A.items():
        for (pb, mb, jb), cb in B.items():
            k = (pa + pb, ma + mb, ja + jb)
            out[k] = out.get(k, 0j) + ca * cb
    return out


def sadd(*terms) -> Series:
    """Sum of (coeff, series) pairs."""
    out: Series = {}
    for c, A in terms:
        if c == 0:
            continue
        for k, v in A.items():
            out[k] = out.get(k, 0j) + c * v
    return out


def sshift(A: Series, dp: int) -> Series:
    return {(p + dp, m, j): c for (p, m, j), c in A.items()}


def sdtau(A: Series, sigma: complex) -> Series:
    """d/dtau of a series: tau^e log^j -> e tau^(e-1) log^j + j tau^(e-1) log^(j-1)."""
    out: Series = {}
    for (p, m, j), c in A.items():
        e = p + m * sigma
        k1 = (p - 1, m, j)
        out[k1] = out.get(k1, 0j) + c * e
        if j != 0:
            k2 = (p - 1, m, j - 1)
            out[k2] = out.get(k2, 0j) + c * j
    return out


def equation_defect(u: Series, a: complex, beff: float, sigma: complex) -> Series:
    """E(u) for the eps-normalized equation (see module docstring)."""
    u1 = sdtau(u, sigma)
    u2 = sdtau(u1, sigma)
    U2 = smul(u, u)
    E = sadd(
        (1, smul(u, u2)),
        (-1, smul(u1, u1)),
        (1, sshift(smul(u, u1), -1)),
        (8, sshift(smul(U2, u), -1)),
        (-2 * a * beff, sshift(u, -1)),
    )
    k0 = (0, 0, 0)
    E[k0] = E.get(k0, 0j) - beff * beff
    return E


def by_grade(A: Series) -> Dict[int, Bucket]:
    """Terms of A bucketed by tau-grade p, each bucket in A's order."""
    out: Dict[int, Bucket] = {}
    for (p, m, j), c in A.items():
        out.setdefault(p, []).append((m, j, c))
    return out


def mul_row(A: Series, Bg: Dict[int, Bucket], p: int) -> Row:
    """Grade-p row of smul(A, B), B given by its grade buckets."""
    out: Row = {}
    for (pa, ma, ja), ca in A.items():
        for mb, jb, cb in Bg.get(p - pa, ()):
            k = (ma + mb, ja + jb)
            out[k] = out.get(k, 0j) + ca * cb
    return out


def _bucket_mul(left: Bucket, right: Bucket) -> Row:
    out: Row = {}
    for ma, ja, ca in left:
        for mb, jb, cb in right:
            k = (ma + mb, ja + jb)
            out[k] = out.get(k, 0j) + ca * cb
    return out


class LevelRows:
    """Single tau-grade rows of E(u) and of its linearization at u.

    Only the pairs of terms whose grades land on the requested row are
    formed.  Each product sums its pairs in the order smul visits them and
    the products are added in the order of equation_defect, so a row equals
    the restriction of the full series to that grade bit for bit.
    """

    def __init__(self, u: Series, a: complex, beff: float, sigma: complex):
        self.u = dict(u)
        self.a, self.beff, self.sigma = a, beff, sigma
        self.u1 = sdtau(u, sigma)
        self.U2 = smul(u, u)
        self.g = by_grade(u)
        self.g1 = by_grade(self.u1)
        self.g2 = by_grade(sdtau(self.u1, sigma))
        self.G2 = by_grade(self.U2)

    def defect(self, p: int) -> Row:
        """Grade-p row of equation_defect(u)."""
        u_shifted = {(m, j): c for m, j, c in self.g.get(p + 1, ())}
        E = sadd(
            (1, mul_row(self.u, self.g2, p)),
            (-1, mul_row(self.u1, self.g1, p)),
            (1, mul_row(self.u, self.g1, p + 1)),
            (8, mul_row(self.U2, self.g, p + 1)),
            (-2 * self.a * self.beff, u_shifted),
        )
        if p == 0:
            E[(0, 0)] = E.get((0, 0), 0j) - self.beff * self.beff
        return E

    def linearization(self, key: Key, p: int) -> Row:
        """Grade-p row of the directional derivative of E at u along the
        monomial tau^(key) (exact since E is cubic; callers arrange gradings
        so self-pairings of the monomial land off the rows they read)."""
        pe, me, je = key
        d1 = sdtau({key: 1.0 + 0j}, self.sigma)
        d2 = sdtau(d1, self.sigma)
        e0 = [(me, je, 1.0 + 0j)]
        e1 = [(m, j, c) for (_p, m, j), c in d1.items()]
        e2 = [(m, j, c) for (_p, m, j), c in d2.items()]
        return sadd(
            (1, _bucket_mul(self.g.get(p - pe + 2, ()), e2)),
            (1, _bucket_mul(e0, self.g2.get(p - pe, ()))),
            (-2, _bucket_mul(self.g1.get(p - pe + 1, ()), e1)),
            (1, _bucket_mul(self.g.get(p - pe + 2, ()), e1)),
            (1, _bucket_mul(e0, self.g1.get(p - pe + 1, ()))),
            (24, _bucket_mul(self.G2.get(p - pe + 1, ()), e0)),
            (-2 * self.a * self.beff, {(me, je): 1.0 + 0j} if p == pe - 1 else {}),
        )
