"""Exact integer matrix algebra: HNF, adjugates, kernels, solving.

All arithmetic uses Python's arbitrary-precision integers; nothing here ever
touches floating point.  Three eliminations, one job each: the row HNF gives
everything lattice-valued (kernels and ``z . a = b`` by forward
substitution, factored once per basis in ``RowSolver``);
``adjugate`` gives every determinant and inverse; and ``independent_rows``
gives every rank.  Saturations are no library job: the one the bridge needs
is read off an HNF transform (``bridge.skeleton_lattices``), and the
kernel of the kernel is a test oracle.  Conventions:

* Matrices are row-major and immutable (``IntMatrix``).
* Row Hermite normal form: pivot entries positive, entries above each pivot
  reduced into ``[0, pivot)``, pivot columns strictly increasing, zero rows
  at the bottom.
"""

from __future__ import annotations

from math import gcd

from .records import record


@record
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

    def __iter__(self):
        return iter(self.data)


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


def independent_rows(rows, limit):
    """Indices of up to ``limit`` rows independent over Q, greedily in order.

    A row is kept when a nonzero vector survives its fraction-free reduction
    against the kept rows, each zero in the pivots of earlier ones; with
    ``limit`` at least the width, the count is the rank.
    """
    chosen = []
    echelon = []  # (pivot column, reduced row)
    for idx, c in enumerate(rows):
        for col, row in echelon:
            if c[col]:
                a, b = row[col], c[col]
                c = tuple(a * x - b * y for x, y in zip(c, row))
        pivot = next((j for j, x in enumerate(c) if x), None)
        if pivot is not None:
            echelon.append((pivot, vprimitive(c)))
            chosen.append(idx)
            if len(chosen) == limit:
                break
    return chosen


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
