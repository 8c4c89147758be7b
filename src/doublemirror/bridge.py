"""Toric double mirrors and the determinantal bridge.

Given a cone pair in split coordinates, a decomposition of the dual degree
element is a tuple ``e~_i = (delta_i ; p_i)`` with ``p_i`` a lattice point of
the i-th dual part and ``sum p_i = 0``.  Comparing two decompositions, the
construction renormalizes so the first becomes the reference ``(delta_i ; 0)``
and the second turns into difference vectors ``q_i``; the finest zero-sum
block partition of the ``q_i`` fixes the sizes of the bridge matrices
``A_k(y)`` whose simultaneous determinant locus ``D`` both complete
intersections project to.  That lattice data is built and checked once per
pair (``bridge_skeleton``); ``BridgeSkeleton.instantiate`` adds the
polynomials of one coefficient choice.

Everything symbolic here is exact; the sampling harness lives in
``evidence``.
"""

from __future__ import annotations

from .cones import GorensteinConePair, in_dual_cone, renormalize
from .errors import (
    DecompositionError,
    DegenerateCoefficientsError,
    InternalError,
)
from .intmat import (
    IntMatrix,
    RowSolver,
    adjugate,
    dot,
    hnf,
    independent_rows,
    integral_preimage_lattice,
    kernel_basis,
    saturation,
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
    r: int
    block_sizes: tuple

    @property
    def s(self):
        return len(self.p)

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
    """Finest zero-sum block partition via kernel-column equivalence.

    Indices share a block exactly when their columns agree across a basis of
    ``{a : sum a_i p_i = 0}``; the block indicator vectors form a
    disjoint-support basis of that kernel for decomposition inputs.
    """
    p_vectors = [tuple(int(x) for x in p) for p in p_vectors]
    s = len(p_vectors)
    mat = IntMatrix(tuple(p_vectors)).transpose()
    basis = kernel_basis(mat)
    columns = [tuple(row[i] for row in basis.data) for i in range(s)]
    groups = {}
    for i, col in enumerate(columns):
        groups.setdefault(col, []).append(i)
    blocks = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0])
    return tuple(blocks)


def make_decomposition(p_vectors) -> Decomposition:
    """Validate a zero-sum tuple and compute its block data."""
    p_vectors = tuple(tuple(int(x) for x in p) for p in p_vectors)
    if p_vectors:
        total = p_vectors[0]
        for p in p_vectors[1:]:
            total = vadd(total, p)
        if any(x != 0 for x in total):
            raise DecompositionError("p vectors do not sum to zero")
    blocks = block_partition(p_vectors)
    for block in blocks:
        if len(independent_rows([p_vectors[i] for i in block], len(block))) != len(block) - 1:
            raise InternalError("block span does not have rank n_k - 1")
    return Decomposition(
        p=p_vectors,
        blocks=blocks,
        r=len(blocks),
        block_sizes=tuple(len(b) for b in blocks),
    )


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


def build_auxiliary_lattice(dec: Decomposition, d: int):
    """Basis of N' with the non-leading block vectors as leading rows.

    Returns ``(basis, sat_index, row_of)`` where ``row_of`` maps each
    non-leading slot index to its basis row.  The k rows W are completed by
    rows k... of ``u^-T``, ``u`` the HNF transform of ``sat^T`` for the
    saturation ``sat`` of W: ``u . sat^T = [I ; 0]``, so ``sat`` and those
    rows form a basis of Z^d.  ``sat_index``, the index of W in ``sat``, is
    read off W's coordinates over ``sat`` and checked against the basis.

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
    row_of = {slot: idx for idx, slot in enumerate(w_slots)}
    if not rows:
        return IntMatrix.identity(d), 1, row_of
    k = len(rows)
    sat = saturation(IntMatrix(rows))
    if sat.rows != k:
        raise InternalError("non-leading block vectors are linearly dependent")
    solver = RowSolver(sat)
    index = abs(adjugate(IntMatrix(tuple(solver.solve(r) for r in rows)))[0])
    _, u = hnf(sat.transpose())
    det_u, adj_u = adjugate(u)  # u^-1 = det_u . adj_u, as det_u = +-1
    basis = IntMatrix(rows + tuple(vscale(det_u, col) for col in zip(*adj_u.data))[k:])
    if abs(adjugate(basis)[0]) != index:
        raise InternalError("auxiliary lattice index mismatch")
    return basis, index, row_of


@record
class BridgeSkeleton:
    """The coefficient-free lattice data of one decomposition pair.

    ``bridge_skeleton`` builds it once per pair and runs every check that
    involves no coefficients; ``instantiate`` adds the polynomials of one
    coefficient choice, so one skeleton serves every field.
    """

    pair: GorensteinConePair  # renormalized so dec_e is the reference
    dec_etilde: Decomposition  # q, with the reference decomposition trivial
    n_prime_basis: IntMatrix
    sat_index: int
    w_vectors: dict  # (block, position >= 1) -> Mbar' vector
    u_vectors: dict  # (block, position >= 0) -> Mbar' vector
    entry_shifts: dict  # (block, row, column) -> Mbar' shift from g_ij to the entry
    ann_basis: IntMatrix  # rows: basis of {m : <m, q_i> = 0}, in M coords
    slice_supports: dict  # (i, j) -> slice points of g_ij
    mbar_prime: dict  # slice point (a ; m) -> its Mbar' exponent (a ; m . B^T)
    gt_supports: tuple  # per slot j: slice points of g~_j
    partition_results: dict  # support partition identities, by report key
    ann_coords: dict  # Mbar' exponent of a matrix entry term -> Ann(e, e~) coords
    diag_exps: tuple  # per block: Ann exponent of the diagonal witness monomial
    stack_e_inv: IntMatrix  # inverse of [ann_basis ; L rows] over M
    stack_et_inv: IntMatrix
    l_coords: IntMatrix  # basis of L in w-combination coordinates
    lt_coords: IntMatrix

    @property
    def torus_rank(self):
        return self.ann_basis.rows

    @property
    def blocks(self):
        return self.dec_etilde.blocks

    def instantiate(self, coeffs: CoefficientAssignment) -> BridgeData:
        """Matrices, determinants and equations for one coefficient choice."""
        pair, blocks = self.pair, self.blocks
        s, d, rank = pair.s, pair.d, self.torus_rank
        domain = coeffs.domain
        roots = pair.slice_roots()

        def poly(points, exp_of, nvars):
            terms = {exp_of(v): coeffs.value(roots[v]) for v in points}
            return LaurentPoly.from_dict(nvars, terms, domain)

        mp = self.mbar_prime.__getitem__
        slice_polys = {ij: poly(pts, mp, s + d) for ij, pts in self.slice_supports.items()}
        g_slot = [poly(pts, mp, s + d) for pts in pair.slice_points()]
        gt_polys = [poly(pts, mp, s + d) for pts in self.gt_supports]

        # bridge matrices in Mbar' exponents
        matrices_mp = tuple(
            tuple(
                tuple(
                    slice_polys[(slot_i, slot_j)].shift(self.entry_shifts[(k, pos_i, pos_j)])
                    for pos_j, slot_j in enumerate(block)
                )
                for pos_i, slot_i in enumerate(block)
            )
            for k, block in enumerate(blocks)
        )

        # symbolic identities: A_k . w_k = (X^{-u_ki} g_ki)^t and u_k . A_k = (X^{-w_kj} g~_kj)
        identity_results = dict(self.partition_results)
        for k, block in enumerate(blocks):
            for pos_i, slot_i in enumerate(block):
                acc = LaurentPoly.zero(s + d, domain)
                for pos_j in range(len(block)):
                    entry = matrices_mp[k][pos_i][pos_j]
                    if pos_j >= 1:
                        entry = entry.shift(self.w_vectors[(k, pos_j)])
                    acc = acc + entry
                target = g_slot[slot_i].shift(vneg(self.u_vectors[(k, pos_i)]))
                key = f"matrix_row_identity_{k}_{pos_i}"
                identity_results[key] = acc.terms == target.terms
                if not identity_results[key]:
                    raise InternalError("A_k . w_k identity failed")
            for pos_j, slot_j in enumerate(block):
                acc = LaurentPoly.zero(s + d, domain)
                for pos_i in range(len(block)):
                    acc = acc + matrices_mp[k][pos_i][pos_j].shift(self.u_vectors[(k, pos_i)])
                shift = (0,) * (s + d)
                if pos_j >= 1:
                    shift = vneg(self.w_vectors[(k, pos_j)])
                target = gt_polys[slot_j].shift(shift)
                key = f"matrix_col_identity_{k}_{pos_j}"
                identity_results[key] = acc.terms == target.terms
                if not identity_results[key]:
                    raise InternalError("u_k . A_k identity failed")

        # entries over the basis of Ann(e, e~)
        matrices = tuple(
            tuple(
                tuple(
                    LaurentPoly.from_dict(
                        rank, {self.ann_coords[e]: c for e, c in entry.terms}, domain
                    )
                    for entry in row
                )
                for row in mat
            )
            for mat in matrices_mp
        )
        determinants = tuple(det_cofactor(m, rank, domain) for m in matrices)
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

        equations_e = tuple(poly(pts, lambda v: v[s:], d) for pts in pair.slice_points())
        # <v - (delta_j ; 0), e~_i> = 0 on the support of g~_j, so M exponents suffice
        equations_et = tuple(poly(pts, lambda v: v[s:], d) for pts in self.gt_supports)
        return BridgeData(
            skeleton=self,
            coeffs=coeffs,
            slice_polys=slice_polys,
            matrices=matrices,
            determinants=determinants,
            equations_e=equations_e,
            equations_etilde=equations_et,
            identity_results=identity_results,
            warnings=tuple(warnings),
            diag_witness=tuple(diag_witness),
        )


@record
class BridgeData:
    """One coefficient choice on a skeleton: what the sampling harness needs."""

    skeleton: BridgeSkeleton
    coeffs: CoefficientAssignment
    slice_polys: dict  # (i, j) -> LaurentPoly in Mbar' exponents
    matrices: tuple  # per block: tuple of rows of LaurentPoly, Ann coords
    determinants: tuple
    equations_e: tuple  # s Laurent polynomials in M coordinates
    equations_etilde: tuple
    identity_results: dict
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


def _mbar_to_mbarprime(v, s, n_prime_basis: IntMatrix):
    """Convert (a ; m) in split coordinates to (a ; m . B^T)."""
    a = tuple(v[:s])
    m = tuple(v[s:])
    mprime = tuple(dot(m, row) for row in n_prime_basis.data)
    return a + mprime


def bridge_skeleton(
    pair: GorensteinConePair, dec_e: Decomposition, dec_etilde: Decomposition
) -> BridgeSkeleton:
    """The lattice data comparing two decompositions of deg_dual, all checked."""
    pair2 = pair if dec_e.is_trivial() else renormalize(pair, dec_e.e_tilde())
    s, d = pair2.s, pair2.d
    q = tuple(vsub(b, a) for a, b in zip(dec_e.p, dec_etilde.p))
    dec_et2 = make_decomposition(q)
    for i, e in enumerate(dec_et2.e_tilde()):
        if not in_dual_cone(pair2, e):
            raise InternalError(f"transported summand {i + 1} left the dual cone")

    blocks = dec_et2.blocks
    r = dec_et2.r
    n_prime_basis, sat_index, row_of = build_auxiliary_lattice(dec_et2, d)
    w_vectors, u_vectors, p_nprime = bridge_vectors(dec_et2, row_of, s, d)
    if IntMatrix(tuple(p_nprime[i] for i in range(s))).mul(n_prime_basis).data != q:
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

    ann_basis = _annihilator_basis(q, d)
    dd_rank = ann_basis.rows
    if dd_rank != d - (s - r):
        raise InternalError("Ann(e, e~) has unexpected rank")
    # saturation of Ann(e, e~) needs no check: det(stack_e) = +-1 below forces it

    # each point of S is mapped to Mbar' once per pair, not once per coefficient choice
    mbar_prime = {
        v: _mbar_to_mbarprime(v, s, n_prime_basis) for slot in pair2.slice_points() for v in slot
    }
    slice_supports, gt_supports, partition_results = _slice_supports(pair2, q, blocks)
    entry_shifts = {}
    for k, block in enumerate(blocks):
        for pos_i in range(len(block)):
            for pos_j in range(len(block)):
                shift = vneg(u_vectors[(k, pos_i)])
                if pos_j >= 1:
                    shift = vsub(shift, w_vectors[(k, pos_j)])
                entry_shifts[(k, pos_i, pos_j)] = shift

    # every exponent a matrix entry can carry, over a basis of Ann(e, e~)
    ann_mp = IntMatrix(tuple(tuple(dot(m, b) for b in n_prime_basis.data) for m in ann_basis.data))
    ann_solver = RowSolver(ann_mp)
    ann_coords = {}

    def to_ann_coords(exp):
        if exp in ann_coords:
            return ann_coords[exp]
        if any(x != 0 for x in exp[:s]):
            raise InternalError("matrix entry exponent pairs nonzero with an e summand")
        target = exp[s:]
        sol = ann_solver.solve(target)
        if sol is None:
            raise InternalError("matrix entry exponent left Ann(e, e~)")
        ann_coords[exp] = sol
        return sol

    for (k, pos_i, pos_j), shift in entry_shifts.items():
        for v in slice_supports[(blocks[k][pos_i], blocks[k][pos_j])]:
            to_ann_coords(vadd(mbar_prime[v], shift))
    diag_exps = []
    for k, block in enumerate(blocks):
        exp = (0,) * dd_rank
        for pos, slot in enumerate(block):
            ident_pt = pair2.slot_point(slot, (0,) * d)
            exp = vadd(exp, to_ann_coords(vadd(mbar_prime[ident_pt], entry_shifts[(k, pos, pos)])))
        diag_exps.append(exp)

    # lattice split checks: Ann(e)' = Ann(e,e~) (+) span(w) and its M-level L
    w_order = [(k, pos) for k, block in enumerate(blocks) for pos in range(1, len(block))]
    w_mprime = IntMatrix(tuple(w_vectors[key][s:] for key in w_order))
    stacked = IntMatrix(tuple(ann_mp.data) + tuple(w_mprime.data))
    if stacked.rows != d or abs(adjugate(stacked)[0]) != 1:
        raise InternalError("Ann(e)' does not split as Ann(e,e~) (+) span(w)")

    l_coords, l_m_rows = _m_level_complement(w_mprime, n_prime_basis, d)
    stack_e = IntMatrix(tuple(ann_basis.data) + tuple(l_m_rows))
    det_e, adj_e = adjugate(stack_e) if stack_e.rows == d else (0, None)
    if det_e not in (1, -1):
        raise InternalError("Ann(e) does not split as Ann(e,e~) (+) L")
    stack_e_inv = IntMatrix(tuple(vscale(det_e, row) for row in adj_e.data))

    ut_mprime = IntMatrix(
        tuple(vsub(u_vectors[(k, pos)], u_vectors[(k, 0)])[s:] for (k, pos) in w_order)
    )
    lt_coords, lt_m_rows = _m_level_complement(ut_mprime, n_prime_basis, d)
    stack_et = IntMatrix(tuple(ann_basis.data) + tuple(lt_m_rows))
    det_et, adj_et = adjugate(stack_et) if stack_et.rows == d else (0, None)
    if det_et not in (1, -1):
        raise InternalError("Ann(e~) does not split as Ann(e,e~) (+) L~")
    stack_et_inv = IntMatrix(tuple(vscale(det_et, row) for row in adj_et.data))
    # a fiber point is y and the L values pushed through the stack inverse;
    # it projects back to y because ann_basis . stack_inv = [I | 0]
    for stack, stack_inv in ((stack_e, stack_e_inv), (stack_et, stack_et_inv)):
        if stack.mul(stack_inv) != IntMatrix.identity(d):
            raise InternalError("projection of the fiber point disagrees with the sample")

    return BridgeSkeleton(
        pair=pair2,
        dec_etilde=dec_et2,
        n_prime_basis=n_prime_basis,
        sat_index=sat_index,
        w_vectors=w_vectors,
        u_vectors=u_vectors,
        entry_shifts=entry_shifts,
        ann_basis=ann_basis,
        slice_supports=slice_supports,
        mbar_prime=mbar_prime,
        gt_supports=gt_supports,
        partition_results=partition_results,
        ann_coords=ann_coords,
        diag_exps=tuple(diag_exps),
        stack_e_inv=stack_e_inv,
        stack_et_inv=stack_et_inv,
        l_coords=l_coords,
        lt_coords=lt_coords,
    )


def _slice_supports(pair2, q, blocks):
    """Supports of the slice polynomials g_ij and g~_j, with their partitions.

    The support partitions ``l(S_ki) = disjoint union of l(S_ki,kj)`` and
    its column analogue are verified as exact set identities.
    """
    s = pair2.s
    part_points = pair2.part_points()
    slot_points = pair2.slice_points()
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

    results = {}
    for k, block in enumerate(blocks):
        for pos, slot in enumerate(block):
            union = set()
            for slot2 in block:
                pts = set(supports[(slot, slot2)])
                if union & pts:
                    raise InternalError("slice supports overlap within a block row")
                union |= pts
            results[f"row_partition_{k}_{pos}"] = union == set(slot_points[slot])
            col_union = set()
            for slot2 in block:
                pts = set(supports[(slot2, slot)])
                if col_union & pts:
                    raise InternalError("slice supports overlap within a block column")
                col_union |= pts
            results[f"col_partition_{k}_{pos}"] = col_union == set(gt_supports[slot])
    return supports, gt_supports, results


def _annihilator_basis(q, d):
    """HNF basis of {m in Z^d : <m, q_i> = 0 for all i}."""
    rows = [tuple(qq) for qq in q if any(x != 0 for x in qq)]
    if not rows:
        return IntMatrix.identity(d)
    return kernel_basis(IntMatrix(tuple(rows)))


def _m_level_complement(w_mprime: IntMatrix, n_prime_basis: IntMatrix, d: int):
    """Basis of L = span(w) intersect Mbar, with its M-coordinate rows.

    ``w_mprime`` holds the M'-parts of the spanning vectors; a combination
    lands in M exactly when its M'-coordinates, read back through the N'
    basis, are integral.
    """
    if w_mprime.rows == 0:
        return IntMatrix(()), ()
    det, adj = adjugate(n_prime_basis.transpose())  # B^T . adj = det . I
    num = w_mprime.mul(adj)
    if det < 0:
        num = IntMatrix(tuple(tuple(-x for x in row) for row in num.data))
    l_coords = integral_preimage_lattice(num, abs(det))
    m_rows = []
    for c in l_coords.data:
        combo = [sum(c[i] * num.data[i][j] for i in range(num.rows)) for j in range(d)]
        if any(x % abs(det) for x in combo):
            raise InternalError("L combination failed to be integral")
        m_rows.append(tuple(x // abs(det) for x in combo))
    return l_coords, tuple(m_rows)

