"""Double description method over exact integers.

``extreme_rays`` computes the extreme rays of a pointed polyhedral cone
``{x : <c, x> >= 0}`` from its constraint rows.  Everything stays in integer
arithmetic: rays are kept primitive, and the classic combinatorial adjacency
test runs on active-constraint bitsets.
"""

from __future__ import annotations

from .errors import InputError, InternalError
from .intmat import adjugate, independent_rows, matmul, vprimitive


def extreme_rays(constraints):
    """Extreme rays of the pointed cone ``{x : <c, x> >= 0 for all c}``.

    Returns primitive integer rays, lexicographically sorted.  Raises
    ``InputError`` when the constraints do not force pointedness.
    """
    constraints = [tuple(int(x) for x in c) for c in constraints]
    if not constraints:
        raise InputError("no constraints")
    n = len(constraints[0])
    chosen = independent_rows(constraints, n)
    if len(chosen) < n:
        raise InputError("constraint matrix is rank deficient; cone contains a line")
    order = chosen + [i for i in range(len(constraints)) if i not in set(chosen)]
    ordered = [constraints[i] for i in order]

    # the initial cone's rays are the columns of the adjugate, signed so that
    # each is nonnegative on the chosen constraints
    base = ordered[:n]
    det, adj = adjugate(base)
    if det == 0:
        raise InternalError("independent subset produced singular matrix")
    if matmul(base, adj) != tuple(tuple(det * (i == j) for j in range(n)) for i in range(n)):
        raise InternalError("failed to invert initial cone basis")
    sign = 1 if det > 0 else -1
    rays = [vprimitive(tuple(sign * x for x in col)) for col in zip(*adj)]
    activity = [((1 << n) - 1) ^ (1 << j) for j in range(n)]

    for k in range(n, len(ordered)):
        c = ordered[k]
        vals = [sum(a * b for a, b in zip(c, r)) for r in rays]
        if all(v >= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    activity[i] |= 1 << k
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_act = []
        for ip in plus:
            for im in minus:
                common = activity[ip] & activity[im]
                adjacent = True
                for q in range(len(rays)):
                    if q != ip and q != im and (activity[q] & common) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    vals[ip] * rm - vals[im] * rp for rp, rm in zip(rays[ip], rays[im])
                )
                new_rays.append(vprimitive(combo))
                new_act.append(common | (1 << k))
        keep_rays = [rays[i] for i in plus + zero]
        keep_act = [activity[i] for i in plus] + [activity[i] | (1 << k) for i in zero]
        rays = keep_rays + new_rays
        activity = keep_act + new_act
    unique = sorted(set(rays))
    return unique
