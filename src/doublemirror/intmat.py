"""Exact integer matrix algebra: HNF, SNF, kernels, saturation, solving.

All arithmetic uses Python's arbitrary-precision integers; nothing here ever
touches floating point.  ``z . a = b`` is solved by forward substitution over
the row HNF of ``a``, factored once per basis (``RowSolver``); the Smith normal
form serves only saturation indices and preimage lattices.  Conventions:

* Matrices are row-major and immutable (``IntMatrix``).
* Row Hermite normal form: pivot entries positive, entries above each pivot
  reduced into ``[0, pivot)``, pivot columns strictly increasing, zero rows
  at the bottom.
* Smith normal form: ``u * a * v`` diagonal with ``d1 | d2 | ...`` and
  ``di >= 0``; ``u`` and ``v`` unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import RankDeficiencyError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    data: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        object.__setattr__(self, "data", rows)

    @property
    def rows(self):
        return len(self.data)

    @property
    def cols(self):
        return len(self.data[0]) if self.data else 0

    @staticmethod
    def identity(n):
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def transpose(self):
        return IntMatrix(tuple(zip(*self.data))) if self.data else IntMatrix(())

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = tuple(zip(*other.data)) if other.data else ()
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.data)
        )

    def row(self, i):
        return self.data[i]

    def __iter__(self):
        return iter(self.data)

    def det(self):
        """Exact determinant via fraction-free (Bareiss) elimination."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of non-square matrix")
        if n == 0:
            return 1
        m = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def rank(self):
        """Rank over the rationals, fraction-free."""
        m = [list(r) for r in self.data]
        nrows, ncols = self.rows, self.cols
        r = 0
        for col in range(ncols):
            pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(r + 1, nrows):
                if m[i][col] != 0:
                    a, b = m[r][col], m[i][col]
                    m[i] = [a * y - b * x for x, y in zip(m[r], m[i])]
            r += 1
            if r == nrows:
                break
        return r


def _row_sub(m, i, j, q):
    """rows[i] -= q * rows[j] in place."""
    if q:
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]


def hnf(a: IntMatrix, transform=True):
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``h = u * a`` in the
    canonical form described in the module docstring.  With
    ``transform=False`` the transform is not built and ``u`` is None.
    """
    m, n = a.rows, a.cols
    # the transform rides along as extra columns of the working rows
    h = [list(r) for r in a.data]
    if transform:
        for i, r in enumerate(h):
            r.extend(int(i == j) for j in range(m))
    pivot_row = 0
    for col in range(n):
        while True:
            nz = [i for i in range(pivot_row, m) if h[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: (abs(h[i][col]), i))
            base = nz[0]
            for i in nz[1:]:
                _row_sub(h, i, base, h[i][col] // h[base][col])
        if not nz:
            continue
        base = nz[0]
        if base != pivot_row:
            h[base], h[pivot_row] = h[pivot_row], h[base]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            _row_sub(h, i, pivot_row, h[i][col] // p)
        pivot_row += 1
        if pivot_row == m:
            break
    u = IntMatrix(tuple(tuple(r[n:]) for r in h)) if transform else None
    return IntMatrix(tuple(tuple(r[:n]) for r in h)), u


def adjugate(a: IntMatrix):
    """``(det, adj)`` with ``a * adj = adj * a = det * I``, fraction-free.

    Bareiss's Gauss-Jordan elimination on ``[a | I]``: every division is
    exact, and the right half ends as ``+-adj``.  A singular ``a`` gives
    ``(0, None)``.
    """
    n = a.rows
    if n != a.cols:
        raise ValueError("adjugate of non-square matrix")
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a.data)]
    sign = 1
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pk * x - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = pk
    return sign * prev, IntMatrix(tuple(tuple(sign * x for x in r[n:]) for r in m))


def _snf_ext(a: IntMatrix):
    """Smith normal form with both transforms and the inverse of ``v``.

    Returns ``(s, u, v, vinv)`` with ``s = u * a * v``.
    """
    m, n = a.rows, a.cols
    s = [list(r) for r in a.data]
    u = [list(r) for r in IntMatrix.identity(m).data]
    v = [list(r) for r in IntMatrix.identity(n).data]
    vinv = [list(r) for r in IntMatrix.identity(n).data]

    def row_op(i, j, q):
        # row i -= q * row j  (left multiplication)
        _row_sub(s, i, j, q)
        _row_sub(u, i, j, q)

    def col_op(i, j, q):
        # col i -= q * col j; vinv gets the inverse op (row j += q * row i)
        if q:
            for row in s:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]
            vinv[j] = [a_ + q * b_ for a_, b_ in zip(vinv[j], vinv[i])]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_negate(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            cleared = True
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    row_op(i, t, q)
                    if s[i][t] != 0:
                        row_swap(t, i)
                        cleared = False
            if not cleared:
                continue
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    col_op(j, t, q)
                    if s[t][j] != 0:
                        col_swap(t, j)
                        cleared = False
            if cleared and all(s[i][t] == 0 for i in range(t + 1, m)):
                break
        # enforce that the pivot divides the rest of the submatrix
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        if s[t][t] < 0:
            row_negate(t)
        t += 1
    return IntMatrix(s), IntMatrix(u), IntMatrix(v), IntMatrix(vinv)


def snf(a: IntMatrix):
    """Smith normal form ``(s, u, v)`` with ``s = u * a * v``."""
    s, u, v, _ = _snf_ext(a)
    return s, u, v


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """HNF-canonical basis of the saturated right kernel ``{x : a.x = 0}``.

    Basis vectors are returned as rows.
    """
    at = a.transpose()
    h, u = hnf(at)
    rows = [u.data[i] for i in range(h.rows) if all(x == 0 for x in h.data[i])]
    if not rows:
        return IntMatrix(())
    canon, _ = hnf(IntMatrix(tuple(rows)), transform=False)
    return canon


def saturate(b: IntMatrix):
    """Saturation of the row span of ``b`` inside the ambient lattice.

    Returns ``(sat, index)`` where ``index`` is the group order of the
    torsion quotient, i.e. the product of the nontrivial elementary divisors.
    Raises ``RankDeficiencyError`` if the rows are dependent.
    """
    k = b.rows
    s, _, _, vinv = _snf_ext(b)
    divisors = [s.data[i][i] for i in range(min(s.rows, s.cols))]
    if any(d == 0 for d in divisors[:k]) or len(divisors) < k:
        raise RankDeficiencyError("rows are linearly dependent over the rationals")
    index = 1
    for d in divisors[:k]:
        index *= d
    sat_rows = vinv.data[:k]
    canon, _ = hnf(IntMatrix(sat_rows), transform=False)
    return canon, index


def forward_substitute(rows, pivots, b):
    """``(y, r)`` with ``b = y . rows + r`` over row-HNF rows with these pivots.

    Each pivot coordinate of ``r`` lies in ``[0, pivot)``.  Rows below have
    zeros in each pivot column, so a remainder left there survives: ``b`` is
    an integer combination of the rows exactly when ``r`` is zero.
    """
    d = list(b)
    y = []
    for row, c in zip(rows, pivots):
        q = d[c] // row[c]
        if q:
            d = [x - q * r for x, r in zip(d, row)]
        y.append(q)
    return tuple(y), tuple(d)


class RowSolver:
    """Integer solutions of ``z . a = b`` for one fixed ``a``, factored once.

    ``h = u . a`` is the row HNF of ``a``; a solution ``y`` over the nonzero
    rows of ``h`` gives ``z = y . u`` over the rows of ``a``.  When the rows of
    ``a`` are dependent, ``z`` is one solution among many.
    """

    def __init__(self, a: IntMatrix):
        h, u = hnf(a)
        self._rows = tuple(r for r in h.data if any(r))
        self._pivots = tuple(next(j for j, x in enumerate(r) if x) for r in self._rows)
        self._u = u.data[: len(self._rows)]
        self._m = a.rows

    def solve(self, b):
        """One integer ``z`` with ``z . a = b``, or None when none exists."""
        y, r = forward_substitute(self._rows, self._pivots, b)
        if any(r):
            return None
        return tuple(sum(yi * row[j] for yi, row in zip(y, self._u)) for j in range(self._m))


def right_inverse(rows: IntMatrix):
    """Integer ``S`` with ``rows . S = I``, or None when none exists.

    Column ``j`` of ``S`` solves ``S_j . rows^T = e_j``, all over one
    factorization of ``rows^T``.
    """
    solver = RowSolver(rows.transpose())
    k = rows.rows
    cols = [solver.solve(tuple(int(i == j) for i in range(k))) for j in range(k)]
    return None if None in cols else IntMatrix(tuple(zip(*cols)))


def integral_preimage_lattice(num: IntMatrix, den: int) -> IntMatrix:
    """Basis of ``{c : c * num / den  is an integer vector}``.

    ``num`` is ``k x n`` integral and ``den`` a positive integer; the result
    rows form an HNF-canonical basis of the finite-index sublattice of Z^k.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    k = num.rows
    if den == 1 or k == 0:
        return IntMatrix.identity(k)
    s, u, _, _ = _snf_ext(num)
    # c * num integral mod den  <=>  (c * uinv-basis) picks up diagonal divisors;
    # writing c = y * u, the condition becomes y_i * d_i = 0 mod den.
    rows = []
    for i in range(k):
        d = s.data[i][i] if i < min(s.rows, s.cols) else 0
        g = gcd(d, den)
        scale = den // g
        rows.append(tuple(scale * x for x in u.data[i]))
    canon, _ = hnf(IntMatrix(tuple(rows)), transform=False)
    return canon


def reduce_mod_rows(x, basis: IntMatrix):
    """Canonical representative of ``x`` modulo the row lattice of ``basis``.

    ``basis`` must be in row HNF; each pivot coordinate of the result lies in
    ``[0, pivot)``.
    """
    rows = [r for r in basis.data if any(r)]
    return forward_substitute(rows, [next(j for j, v in enumerate(r) if v) for r in rows], x)[1]


# -- small vector helpers used throughout the package ------------------------


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(k, a):
    return tuple(k * x for x in a)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def gcd_list(values):
    g = 0
    for x in values:
        g = gcd(g, x)
    return g


def vprimitive(a):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd_list(a)
    if g in (0, 1):
        return tuple(a)
    return tuple(x // g for x in a)
