"""Built-in example instances.

``product_projective(n, t)`` is the family of cones over the sums
``u_{i_1} + ... + u_{i_t}`` (one index per block of n coordinates) inside the
rank ``nt - t + 1`` lattice of equal block sums; (5, 3) is the motivating
triple-product example, (3, 3) and (2, 2) its desk-scale shrinks.
"""

from __future__ import annotations

import itertools

from .errors import InputError

# the family has n**t generators, all held in memory at once
MAX_GENERATORS = 100_000


def product_projective(n: int, t: int):
    """Kernel-presented lattice plus cone data for the (n, t) family.

    Returns a dict with ambient equations, generators, deg and deg_dual in
    ambient coordinates.
    """
    if n < 2 or t < 2:
        raise InputError("product-projective requires n >= 2 and t >= 2")
    # n >= 2 gives n**t >= 2**t, so a long t is rejected before any power
    if t >= MAX_GENERATORS.bit_length() or n**t > MAX_GENERATORS:
        raise InputError(f"product-projective has n**t generators, at most {MAX_GENERATORS}")
    ambient = n * t
    equations = []
    for j in range(1, t):
        row = [0] * ambient
        for i in range(n):
            row[i] = 1
            row[j * n + i] = -1
        equations.append(tuple(row))
    generators = []
    for choice in itertools.product(range(n), repeat=t):
        vec = [0] * ambient
        for j, i in enumerate(choice):
            vec[j * n + i] += 1
        generators.append(tuple(vec))
    deg = (1,) * ambient
    deg_dual = (1,) * n + (0,) * (ambient - n)
    return {
        "ambient_rank": ambient,
        "equations": equations,
        "generators": sorted(generators),
        "deg": deg,
        "deg_dual": deg_dual,
    }


def two_segment_parts():
    """Vertex lists of the two-segment nef-partition in Z^2."""
    return [[(-1, 0), (0, 0), (1, 0)], [(0, -1), (0, 0), (0, 1)]]


def square_part():
    """The unit square as a length-one nef-partition."""
    return [[(1, 1), (1, -1), (-1, 1), (-1, -1)]]
