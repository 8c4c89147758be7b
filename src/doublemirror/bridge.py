"""Toric double mirrors and the determinantal bridge.

Given a cone pair in split coordinates, a decomposition of the dual degree
element is a tuple ``e~_i = (delta_i ; p_i)`` with ``p_i`` a lattice point of
the i-th dual part and ``sum p_i = 0``.  Comparing two decompositions, the
construction renormalizes so the first becomes the reference ``(delta_i ; 0)``
and the second turns into difference vectors ``q_i``; the finest zero-sum
block partition of the ``q_i`` fixes the sizes of the bridge matrices
``A_k(y)`` whose simultaneous determinant locus ``D`` both complete
intersections project to.  That lattice data is built and checked once per
pair (``bridge_skeleton``), the matrix identities included: they are checked
on exponents, which proves them for every coefficient choice.
``BridgeSkeleton.instantiate`` builds the polynomials of one coefficient
choice straight in Ann(e, e~) coordinates and checks only what depends on
the coefficients.

Everything symbolic here is exact; the sampling harness lives in
``evidence``.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .cones import GorensteinConePair, in_dual_cone, renormalize
from .errors import (
    DecompositionError,
    DegenerateCoefficientsError,
    InternalError,
)
from .intmat import (
    RowSolver,
    adjugate,
    dot,
    hnf,
    identity,
    independent_rows,
    matmul,
    transpose,
    vadd,
    vneg,
    vscale,
    vsub,
)
from .laurent import CoefficientAssignment, LaurentPoly, TermTable, det_cofactor
from .polytope import point_tuples
from .records import field, record


@record
class Decomposition:
    """Canonical form of ``deg_dual = sum (delta_i ; p_i)``."""

    p: tuple
    blocks: tuple

    @property
    def s(self):
        return len(self.p)

    @property
    def r(self):
        return len(self.blocks)

    @property
    def block_sizes(self):
        return tuple(len(b) for b in self.blocks)

    def is_trivial(self):
        return all(all(x == 0 for x in pi) for pi in self.p)

    def e_tilde(self):
        return tuple(
            tuple(1 if k == i else 0 for k in range(self.s)) + tuple(pi)
            for i, pi in enumerate(self.p)
        )

    def sort_key(self):
        return tuple(x for pi in self.p for x in pi)


def block_partition(p_vectors):
    """Zero-sum blocks: strip the smallest zero-sum subset, repeatedly.

    Each block is the smallest subset of the indices left that holds the
    first of them and sums to zero, by size, then in ``combinations`` order;
    there is none exactly when the total is not zero.  At most 2^(s-1)
    subset sums for s vectors; ``make_decomposition`` proves them finest.
    """
    remaining, blocks = list(range(len(p_vectors))), []
    while remaining:
        i, rest = remaining[0], remaining[1:]
        for others in (c for n in range(len(rest) + 1) for c in combinations(rest, n)):
            if not any(map(sum, zip(p_vectors[i], *(p_vectors[j] for j in others)))):
                break
        else:
            raise DecompositionError("p vectors do not sum to zero")
        blocks.append((i,) + others)
        remaining = [j for j in rest if j not in others]
    return tuple(blocks)


def make_decomposition(p_vectors) -> Decomposition:
    """Validate a zero-sum tuple and compute its block data.

    One check, rank(p) = s - r, proves the blocks the finest zero-sum
    partition.  K = {a : sum a_i p_i = 0} has dimension s - rank(p), and the r
    block indicators are independent in K, having disjoint supports: the check
    makes them a basis of K, so every zero-sum subset, a 0/1 combination of
    them, is a union of blocks.  Over this basis index i's kernel column is its
    block's unit vector, so the tests' kernel-column oracle agrees.  A block's
    kernel vectors are the multiples of its indicator, so it has rank n_k - 1;
    the check also makes the blocks' spans independent.
    """
    p_vectors = tuple(tuple(int(x) for x in p) for p in p_vectors)
    blocks = block_partition(p_vectors)
    s, rank = len(p_vectors), len(independent_rows(p_vectors, len(p_vectors)))
    if rank != s - len(blocks):
        raise InternalError(f"p vectors have rank {rank}, not s - r = {s - len(blocks)}")
    return Decomposition(p=p_vectors, blocks=blocks)


def enumerate_decompositions(pair: GorensteinConePair):
    """All decompositions of deg_dual, trivial first, then lexicographic."""
    d = pair.d
    point_lists = pair.dual_part_points()
    for i, pts in enumerate(point_lists):
        if (0,) * d not in pts:
            raise InternalError(f"dual part {i + 1} misses the origin")
    decs = [make_decomposition(p) for p in point_tuples(point_lists, (0,) * d)]
    decs.sort(key=lambda dec: (not dec.is_trivial(), dec.sort_key()))
    if not decs or not decs[0].is_trivial():
        raise InternalError("trivial decomposition missing from enumeration")
    return decs


def skeleton_lattices(dec: Decomposition, d: int):
    """The skeleton's lattice data, read off one row HNF of W^T.

    W holds the k non-leading block vectors as rows, and ``row_of`` maps each
    non-leading slot to its row.  ``make_decomposition`` gives W rank k, so
    ``u . W^T = [T ; 0]`` with u unimodular and T upper triangular with a
    positive diagonal.  Then:

    * the index of W in its saturation is prod T_ii: the first k rows of
      u^-T span the saturation, and W = T^T times them;
    * the N' basis is W followed by the complement C, rows k... of u^-T;
    * Ann(e, e~) = Ann(W), as each leader's q is minus the sum of its
      block's others, and rows k... of u span it; it is returned in HNF;
    * L = {m : m . C^T = 0} is spanned by rows 0...k-1 of u, as
      u . u^-1 = I, and L . W^T = T gives its coordinates over the w.

    Returns ``(basis, sat_index, row_of, ann_basis, l_rows, l_coords)``.

    Any complement gives the same reports.  ``bridge_vectors`` reads u and w
    off the W rows, so they have complement coordinates 0.  Another
    complement therefore moves each u_i and w_j by an element of Ann(e, e~)
    linear in its W coordinates: 0 for the leading u, -e_slot for the other
    u and +e_slot for w, adding up to 0 over a block.  Row i of A_k is
    scaled by one monomial and column j by another; as the shifts cancel,
    every term of det A_k, so the reported exponent ranges, and the diagonal
    witness keep their Ann coordinates.  The same roots are drawn and accepted, so the
    sampled points are the same; block values change only by nonzero row
    and column scalings, which keep kernel dimensions and zero patterns.
    Each fiber point is one torus point, checked exactly against the
    equations.
    """
    w_slots = [i for block in dec.blocks for i in block[1:]]
    rows = tuple(dec.p[i] for i in w_slots)
    k = len(rows)
    h, u = hnf(tuple(tuple(row[c] for row in rows) for c in range(d)))
    t = h[:k]
    # a nonzero T_ii makes column i a pivot, so the rows below T are zero
    if k > d or not all(t[i][i] for i in range(k)):
        raise InternalError("non-leading block vectors are linearly dependent")
    index = prod(t[i][i] for i in range(k))
    det_u, adj_u = adjugate(u)  # u^-1 = det_u . adj_u, as det_u = +-1
    basis = rows + tuple(vscale(det_u, col) for col in zip(*adj_u))[k:]
    if abs(adjugate(basis)[0]) != index:
        raise InternalError("auxiliary lattice index mismatch")
    ann_basis, _ = hnf(u[k:], transform=False)
    row_of = {slot: idx for idx, slot in enumerate(w_slots)}
    return basis, index, row_of, ann_basis, u[:k], t


@record
class BridgeSkeleton:
    """The coefficient-free lattice data of one decomposition pair.

    ``bridge_skeleton`` builds it once per pair and runs every check that
    involves no coefficients, the matrix identities among them (on
    exponents, see ``_check_bridge_identities``); ``instantiate`` adds the
    polynomials of one coefficient choice, so one skeleton serves every field.
    """

    pair: GorensteinConePair  # renormalized so dec_e is the reference
    dec_etilde: Decomposition  # q, with the reference decomposition trivial
    n_prime_basis: tuple  # rows
    sat_index: int
    w_vectors: dict  # (block, position >= 1) -> Mbar' vector
    u_vectors: dict  # (block, position >= 0) -> Mbar' vector
    ann_basis: tuple  # rows: basis of {m : <m, q_i> = 0}, in M coords
    slice_supports: dict  # (i, j) -> slice points of g_ij
    gt_supports: tuple  # per slot j: slice points of g~_j
    entries: dict  # (block, row, column) -> {slice point: Ann(e, e~) exponent} of the entry
    identity_results: dict  # support partitions and matrix identities, by report key
    diag_exps: tuple  # per block: Ann exponent of the diagonal witness monomial
    fiber_map: tuple  # rows: exponents over y ++ omega of the fiber point's coordinates

    @property
    def torus_rank(self):
        return len(self.ann_basis)

    @property
    def blocks(self):
        return self.dec_etilde.blocks

    def instantiate(self, coeffs: CoefficientAssignment) -> BridgeData:
        """Matrices, determinants and equations for one coefficient choice.

        Each entry is one polynomial over its slice points' Ann(e, e~)
        exponents.  The identities hold for every coefficient choice once
        the skeleton passed, so only what depends on the coefficients is
        checked here: a vanishing determinant, and the diagonal witness.
        """
        pair = self.pair
        s, d, rank = pair.s, pair.d, self.torus_rank
        roots = pair.slice_roots()

        def poly(terms, nvars):
            # terms: (slice point, exponent) pairs
            values = {exp: coeffs.value(roots[v]) for v, exp in terms}
            return LaurentPoly.from_dict(nvars, values, coeffs.domain)

        matrices = tuple(
            tuple(
                tuple(poly(self.entries[(k, i, j)].items(), rank) for j in range(len(block)))
                for i in range(len(block))
            )
            for k, block in enumerate(self.blocks)
        )
        determinants = tuple(det_cofactor(m, rank, coeffs.domain) for m in matrices)
        warnings = []
        diag_witness = []
        for k, det in enumerate(determinants):
            if det.is_zero():
                raise DegenerateCoefficientsError(
                    f"det A_{k + 1} vanished for these coefficients; resample advised"
                )
            diag_witness.append(dict(det.terms).get(self.diag_exps[k], 0) != 0)
            if not diag_witness[-1]:
                warnings.append(
                    f"diagonal witness monomial of det A_{k + 1} cancelled for these coefficients"
                )

        def m_terms(points):
            return ((v, v[s:]) for v in points)

        equations_e = tuple(poly(m_terms(pts), d) for pts in pair.slice_points())
        # <v - (delta_j ; 0), e~_i> = 0 on the support of g~_j, so M exponents suffice
        equations_et = tuple(poly(m_terms(pts), d) for pts in self.gt_supports)
        return BridgeData(
            skeleton=self,
            coeffs=coeffs,
            matrices=matrices,
            determinants=determinants,
            equations_e=equations_e,
            equations_etilde=equations_et,
            warnings=tuple(warnings),
            diag_witness=tuple(diag_witness),
        )


@record
class BridgeData:
    """One coefficient choice on a skeleton: what the sampling harness needs."""

    skeleton: BridgeSkeleton
    coeffs: CoefficientAssignment
    matrices: tuple  # per block: tuple of rows of LaurentPoly, Ann coords
    determinants: tuple
    equations_e: tuple  # s Laurent polynomials in M coordinates
    equations_etilde: tuple
    warnings: tuple
    diag_witness: tuple  # per block: diagonal monomial coefficient nonzero?
    # not an init field, so a bridge made by ``records.replace`` compiles its own
    _tables: tuple = field(default=None, init=False, compare=False)

    @property
    def pair(self):
        return self.skeleton.pair

    def term_tables(self):
        """F_p term tables, compiled at most once: one per block over its
        entries row by row, and one per equation system, ``{"e", "etilde"}``."""
        if self._tables is None:
            blocks = tuple(TermTable([f for row in block for f in row]) for block in self.matrices)
            systems = {"e": TermTable(self.equations_e), "etilde": TermTable(self.equations_etilde)}
            object.__setattr__(self, "_tables", (blocks, systems))
        return self._tables

    @property
    def torus_rank(self):
        return self.skeleton.torus_rank


def slice_root_keys(pair: GorensteinConePair):
    """Root-frame keys of the lattice points of the degree-one slice S."""
    keys = list(pair.slice_roots().values())
    if len(set(keys)) != len(keys):
        raise InternalError("slice points collide in the root frame")
    return sorted(keys)


def random_coefficients(pair: GorensteinConePair, domain, seed) -> CoefficientAssignment:
    return CoefficientAssignment.random(slice_root_keys(pair), domain, seed)


def bridge_vectors(dec: Decomposition, row_of, s, d):
    """The w and u vectors of the bridge, read off the blocks.

    Vectors are in Mbar' coordinates: ``(a ; m')`` with ``m'`` over the dual
    basis of the N' rows, so pairing with ``e = (delta ; 0)`` reads off ``a``
    and pairing with ``e~ = (delta ; p')`` adds ``<m', p'>``.  Over N' a
    non-leading summand ``p'`` is the unit vector of its row and a leader's is
    minus the sum of its block's others, so one unit vector meets each
    pairing table; the complement coordinates are 0.
    """

    def unit(r):
        return tuple(1 if j == r else 0 for j in range(d))

    def delta(i):
        return tuple(1 if k == i else 0 for k in range(s))

    p_nprime, w_vectors, u_vectors = {}, {}, {}
    for k, block in enumerate(dec.blocks):
        lead = block[0]
        p_nprime[lead] = (0,) * d
        u_vectors[(k, 0)] = delta(lead) + (0,) * d
        for pos, slot in enumerate(block[1:], 1):
            r = row_of[slot]
            p_nprime[slot] = unit(r)
            p_nprime[lead] = vsub(p_nprime[lead], unit(r))
            w_vectors[(k, pos)] = (0,) * s + unit(r)
            u_vectors[(k, pos)] = delta(slot) + vneg(unit(r))
    return w_vectors, u_vectors, p_nprime


def _mbar_to_mbarprime(v, s, n_prime_basis):
    """Convert (a ; m) in split coordinates to (a ; m . B^T)."""
    a = tuple(v[:s])
    m = tuple(v[s:])
    mprime = tuple(dot(m, row) for row in n_prime_basis)
    return a + mprime


def bridge_skeleton(
    pair: GorensteinConePair, dec_e: Decomposition, dec_etilde: Decomposition
) -> BridgeSkeleton:
    """The lattice data comparing two decompositions of deg_dual, all checked."""
    if dec_e.is_trivial():
        # q is dec_etilde.p, whose blocks are already known
        pair2, dec_et2 = pair, dec_etilde
    else:
        pair2 = renormalize(pair, dec_e.e_tilde())
        dec_et2 = make_decomposition(tuple(vsub(b, a) for a, b in zip(dec_e.p, dec_etilde.p)))
    s, d = pair2.s, pair2.d
    q = dec_et2.p
    for i, e in enumerate(dec_et2.e_tilde()):
        if not in_dual_cone(pair2, e):
            raise InternalError(f"transported summand {i + 1} left the dual cone")

    blocks = dec_et2.blocks
    r = dec_et2.r
    n_prime_basis, sat_index, row_of, ann_basis, l_rows, l_coords = skeleton_lattices(dec_et2, d)
    w_vectors, u_vectors, p_nprime = bridge_vectors(dec_et2, row_of, s, d)
    if matmul(tuple(p_nprime[i] for i in range(s)), n_prime_basis) != q:
        raise InternalError("e~ summands misread over N'")

    # pairing tables, verified exactly
    e_rows = [tuple(1 if k == i else 0 for k in range(s)) + (0,) * d for i in range(s)]
    et_rows = [e_rows[i][:s] + p_nprime[i] for i in range(s)]
    for (k, pos), w in w_vectors.items():
        block = blocks[k]
        for i in range(s):
            if dot(w, e_rows[i]) != 0:
                raise InternalError("w vector pairs nonzero with an e summand")
            expected = 1 if i == block[pos] else (-1 if i == block[0] else 0)
            if dot(w, et_rows[i]) != expected:
                raise InternalError("w vector violates its pairing table")
    for (k, pos), u in u_vectors.items():
        block = blocks[k]
        for i in range(s):
            if dot(u, e_rows[i]) != (1 if i == block[pos] else 0):
                raise InternalError("u vector violates its e pairing table")
            if dot(u, et_rows[i]) != (1 if i == block[0] else 0):
                raise InternalError("u vector violates its e~ pairing table")

    dd_rank = len(ann_basis)
    if dd_rank != d - (s - r):
        raise InternalError("Ann(e, e~) has unexpected rank")
    # saturation of Ann(e, e~) needs no check: det(stack_e) = +-1 below forces it

    # each point of S is mapped to Mbar' once per pair, not once per coefficient choice
    mbar_prime = {
        v: _mbar_to_mbarprime(v, s, n_prime_basis) for slot in pair2.slice_points() for v in slot
    }
    slice_supports, gt_supports = _slice_supports(pair2, q)
    entries = {
        (k, i, j): {
            v: vadd(mbar_prime[v], shift)
            for v in slice_supports[(blocks[k][i], blocks[k][j])]
        }
        for (k, i, j), shift in entry_shifts(blocks, u_vectors, w_vectors).items()
    }
    identity_results = _check_bridge_identities(
        blocks, entries, mbar_prime, pair2.slice_points(), gt_supports, u_vectors, w_vectors
    )

    # every entry exponent over a basis of Ann(e, e~).  Its e part is 0 with no
    # check: the row identity makes it mbar'(v) - u_i - w_j, and the pairing
    # tables give u_i and the slot point v the same e part and w_j none
    ann_solver = RowSolver(matmul(ann_basis, transpose(n_prime_basis)))
    ann_coords = {}
    for terms in entries.values():
        for exp in terms.values():
            if exp not in ann_coords:
                ann_coords[exp] = ann_solver.solve(exp[s:])
    if None in ann_coords.values():
        raise InternalError("matrix entry exponent left Ann(e, e~)")
    entries = {
        key: {v: ann_coords[exp] for v, exp in terms.items()} for key, terms in entries.items()
    }
    diag_exps = []
    for k, block in enumerate(blocks):
        exp = (0,) * dd_rank
        for pos, slot in enumerate(block):
            exp = vadd(exp, entries[(k, pos, pos)][pair2.slot_point(slot, (0,) * d)])
        diag_exps.append(exp)

    # the M-level split Ann(e) = Ann(e,e~) (+) L.  It implies the split
    # Ann(e)' = Ann(e,e~) (+) span(w) over M', so that needs no check of its
    # own: with B the N' basis, [Ann ; L] . B^T = diag(I, l_coords) . [Ann' ; w'],
    # and |det B| = sat_index = |det l_coords|, so the two stacks have the
    # same |det|
    stack_e = ann_basis + l_rows
    det_e, adj_e = adjugate(stack_e) if len(stack_e) == d else (0, None)
    if det_e not in (1, -1):
        raise InternalError("Ann(e) does not split as Ann(e,e~) (+) L")
    stack_e_inv = tuple(vscale(det_e, row) for row in adj_e)
    if matmul(stack_e, stack_e_inv) != identity(d):
        raise InternalError("projection of the fiber point disagrees with the sample")
    # a fiber point is y and the L values, the monomials l_coords of the kernel
    # ratios omega, pushed through the stack inverse: one monomial map of
    # z = y ++ omega.  It projects back to y, as ann_basis . fiber_map = [I | 0].
    # u~' = -w', so L~ = -L and the E~ side reads the map at y ++ omega^-1
    diag = identity(d)[:dd_rank] + tuple((0,) * dd_rank + row for row in l_coords)
    fiber_map = matmul(stack_e_inv, diag)

    return BridgeSkeleton(
        pair=pair2,
        dec_etilde=dec_et2,
        n_prime_basis=n_prime_basis,
        sat_index=sat_index,
        w_vectors=w_vectors,
        u_vectors=u_vectors,
        ann_basis=ann_basis,
        slice_supports=slice_supports,
        gt_supports=gt_supports,
        entries=entries,
        identity_results=identity_results,
        diag_exps=tuple(diag_exps),
        fiber_map=fiber_map,
    )


def entry_shifts(blocks, u_vectors, w_vectors):
    """(block, row, column) -> the Mbar' shift -u_i - w_j from g_ij to the
    entry of A_k, with w_0 = 0."""
    shifts = {}
    for k, block in enumerate(blocks):
        for pos_i in range(len(block)):
            for pos_j in range(len(block)):
                shift = vneg(u_vectors[(k, pos_i)])
                if pos_j >= 1:
                    shift = vsub(shift, w_vectors[(k, pos_j)])
                shifts[(k, pos_i, pos_j)] = shift
    return shifts


def _check_bridge_identities(
    blocks, entries, mbar_prime, slot_points, gt_supports, u_vectors, w_vectors
):
    """Check the support partitions and the identities
    ``A_k . w_k = (X^{-u_ki} g_ki)^t`` and ``u_k . A_k = (X^{-w_kj} g~_kj)``
    on exponents, once per skeleton for every coefficient choice.

    ``entries`` maps (k, i, j) to the Mbar' exponent of each slice point of
    the entry of A_k.  Every term of either side of an identity is c(v) X^e
    for one slice point v, c(v) its coefficient, so each side is fixed by
    its map from exponent to slice point.  If neither side has a collision
    (two points at one exponent) and the two maps are equal, the two sides
    have the same terms whatever the coefficients are.  The converse holds
    too, as the supports partition the points: each c(v) sits in exactly one
    term on each side, and for generic coefficients it must sit at the same
    exponent.  So this one check replaces summing the polynomials for each
    coefficient choice.  A block row (column) whose supports do not add up
    to the points of g_ki (g~_kj), each once, fails as a partition first.

    Returns the results by report key; every failure raises.
    """
    results = {}

    def check(terms, target, name, identity, key):
        # terms, target: (exponent, slice point) pairs of the two sides
        if sorted(v for _, v in terms) != sorted(v for _, v in target):
            raise InternalError(f"slice supports do not partition the points of a block {name}")
        lhs, rhs = dict(terms), dict(target)
        if len(lhs) != len(terms) or len(rhs) != len(target) or lhs != rhs:
            raise InternalError(f"{identity} identity failed")
        # the report keys shorten "column" to "col"
        results[f"{name[:3]}_partition_{key}"] = results[f"matrix_{name[:3]}_identity_{key}"] = True

    for k, block in enumerate(blocks):
        u = [u_vectors[(k, pos)] for pos in range(len(block))]
        w = [(0,) * len(u[0])] + [w_vectors[(k, pos)] for pos in range(1, len(block))]
        for pos, slot in enumerate(block):
            row = [(vadd(exp, w[j]), v) for j in range(len(block))
                   for v, exp in entries[(k, pos, j)].items()]
            target = [(vsub(mbar_prime[v], u[pos]), v) for v in slot_points[slot]]
            check(row, target, "row", "A_k . w_k", f"{k}_{pos}")
            col = [(vadd(exp, u[i]), v) for i in range(len(block))
                   for v, exp in entries[(k, i, pos)].items()]
            target = [(vsub(mbar_prime[v], w[pos]), v) for v in gt_supports[slot]]
            check(col, target, "column", "u_k . A_k", f"{k}_{pos}")
    return results


def _slice_supports(pair2, q):
    """Supports of the slice polynomials g_ij and g~_j."""
    s = pair2.s
    part_points = pair2.part_points()
    supports = {}
    for i in range(s):
        for j in range(s):
            supports[(i, j)] = tuple(
                pair2.slot_point(i, m)
                for m in part_points[i]
                if dot(m, q[j]) == 1 - (1 if i == j else 0)
            )
    gt_supports = tuple(
        tuple(
            pair2.slot_point(t, m)
            for t in range(s)
            for m in part_points[t]
            if (1 if t == j else 0) + dot(m, q[j]) == 1
        )
        for j in range(s)
    )
    return supports, gt_supports
