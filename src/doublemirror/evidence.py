"""Finite-field sampling evidence for birationality of toric double mirrors.

Points of the determinantal locus D are sampled by restricting the exact F_p
polynomial det A_1 to random coordinate lines and finding its roots in F_p*
exactly, rejection-testing the remaining determinants at each root.  Fibers
of both complete intersections over a sampled point are reconstructed from
the one-dimensional kernels of the evaluated bridge matrices, pushed to the
unprimed torus, and verified exactly against all defining equations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .bridge import BridgeData
from .errors import InputError, InternalError
from .laurent import SplitMix64, fp_inv, fp_inverses, fp_monomial, fp_roots, is_prime
from .nefpart import is_two_independent

MIN_PRIME = 101
LINE_TRIES = 12
SUCCESS_WARN_RATIO = Fraction(1, 2)
NON_GENERIC = "non_generic"


@dataclass(frozen=True)
class SamplePoint:
    y: tuple
    kernel_dims: tuple
    fibers_e: tuple = ()
    fibers_etilde: tuple = ()
    non_generic: bool = False


@dataclass(frozen=True)
class EvidenceReport:
    prime: int
    seed: int
    samples_requested: int
    samples_on_d: int
    fiber_histogram_e: dict
    fiber_histogram_etilde: dict
    delta_regular_pass_rate: str | None
    verdict: bool
    warnings: tuple

    def payload(self):
        return {
            "prime": self.prime,
            "seed": self.seed,
            "samples_requested": self.samples_requested,
            "samples_on_d": self.samples_on_d,
            "fiber_histogram_e": dict(sorted(self.fiber_histogram_e.items())),
            "fiber_histogram_etilde": dict(sorted(self.fiber_histogram_etilde.items())),
            "delta_regular_pass_rate": self.delta_regular_pass_rate,
            "verdict": self.verdict,
            "warnings": list(self.warnings),
        }


def fp_echelon(rows, p, square=False, reduced=False):
    """Gaussian elimination over F_p: ``(rank, det, kernel)``.

    ``rows`` holds residues in ``[0, p)`` and is left unchanged.  Forward
    elimination stops once every row holds a pivot; for ``square`` input it
    also stops at the first column without a pivot, with ``det`` 0.  ``det``
    is the determinant when the input is square.  ``reduced`` also scales
    each pivot row to 1 and clears the pivot column above it, and ``kernel``
    is then a basis of the right kernel read off the reduced rows (``None``
    without ``reduced``).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    det = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            if square:
                return r, 0, None
            continue
        row = m[pivot]
        if pivot != r:
            m[pivot], m[r] = m[r], row
            det = -det
        det = det * row[col] % p
        inv = fp_inv(row[col], p)
        if reduced:
            row = m[r] = [x * inv % p for x in row]
            inv = 1
        for i in range(0 if reduced else r + 1, nrows):
            f = m[i][col]
            if f and i != r:
                f = f * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], row)]
        pivots.append(col)
    if not reduced:
        return len(pivots), det % p, None
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = (-m[row_idx][fc]) % p
        kernel.append(tuple(vec))
    return len(pivots), det % p, kernel


def _evaluate(block, y, p):
    """A bridge matrix evaluated at the torus point y."""
    invs = fp_inverses(y, p)
    return [[poly.evaluate(y, invs) for poly in row] for row in block]


def sample_determinantal_points(bridge: BridgeData, count, prime, seed):
    """Up to ``count`` torus points of D, deterministically from the seed.

    Returns ``(samples, stats)``; each sample carries its per-block kernel
    dimensions.  A low success rate attaches a dimension-excess warning in
    ``stats``.
    """
    p = int(prime)
    if p < MIN_PRIME or not is_prime(p):
        raise InputError(f"prime must be a prime >= {MIN_PRIME}")
    if bridge.coeffs.domain != p:
        raise InputError("bridge coefficients are not over the sampling prime")
    dd = bridge.torus_rank
    stats = {"requested": count, "found": 0, "line_tries": 0, "warnings": []}
    if dd == 0:
        if all(det.evaluate(()) != 0 for det in bridge.determinants):
            stats["warnings"].append("determinantal locus is empty (rank-zero torus)")
            return [], stats
        raise InternalError("zero determinant on a rank-zero torus should not build")

    samples = []
    for n in range(count):
        rng = SplitMix64(seed ^ n)
        found = None
        for _attempt in range(LINE_TRIES):
            stats["line_tries"] += 1
            free = rng.below(dd)
            fixed = tuple(
                rng.nonzero_mod(p) if i != free else 1 for i in range(dd)
            )
            # det A_1 on the line is t**offset * sum coeffs[k] t**k: the same
            # roots in F_p* as the polynomial part
            _offset, coeffs = bridge.determinants[0].restrict_to_line(fixed, free)
            if not coeffs:
                candidates = [rng.nonzero_mod(p)]
            else:
                candidates = fp_roots(coeffs, p)
            accepted = []
            for t in candidates:
                y = tuple(t if i == free else fixed[i] for i in range(dd))
                ok = True
                for k in range(1, len(bridge.matrices)):
                    if fp_echelon(_evaluate(bridge.matrices[k], y, p), p, square=True)[1] != 0:
                        ok = False
                        break
                if ok:
                    accepted.append(y)
            if accepted:
                found = accepted[rng.below(len(accepted))]
                break
        if found is None:
            continue
        dims = tuple(
            len(block) - fp_echelon(_evaluate(block, found, p), p)[0] for block in bridge.matrices
        )
        samples.append(SamplePoint(y=found, kernel_dims=dims))
        stats["found"] += 1
    if count and Fraction(stats["found"], count) < SUCCESS_WARN_RATIO:
        stats["warnings"].append(
            "sampling success rate below threshold: possible dimension excess of D"
        )
    return samples, stats


def fiber(bridge: BridgeData, y, prime, side="e"):
    """Fiber of the chosen complete intersection over a D point.

    Returns a list of torus points in M coordinates, or the string
    ``"non_generic"`` when some block kernel has dimension >= 2.
    """
    p = int(prime)
    if any(v % p == 0 for v in y):
        raise InputError("sample point is off the torus")
    if side not in ("e", "etilde"):
        raise InputError("side must be 'e' or 'etilde'")
    omega = []
    for block in bridge.matrices:
        mat = _evaluate(block, y, p)
        if side == "etilde":
            mat = [list(col) for col in zip(*mat)]
        kern = fp_echelon(mat, p, reduced=True)[2]
        if len(kern) == 0:
            return []
        if len(kern) > 1:
            return NON_GENERIC
        vec = kern[0]
        if 0 in vec:
            return []
        inv0 = fp_inv(vec[0], p)
        omega.extend(v * inv0 % p for v in vec[1:])
    skeleton = bridge.skeleton
    l_coords = skeleton.l_coords if side == "e" else skeleton.lt_coords
    stack_inv = skeleton.stack_e_inv if side == "e" else skeleton.stack_et_inv
    omega_invs = fp_inverses(omega, p)
    basis_vals = list(y) + [
        fp_monomial(c_row, omega, omega_invs, p) for c_row in l_coords.data
    ]
    basis_invs = fp_inverses(basis_vals, p)
    # bridge_skeleton checked ann_basis . stack_inv = [I | 0], so the point
    # projects back to y along Ann(e, e~)
    point = tuple(fp_monomial(row, basis_vals, basis_invs, p) for row in stack_inv.data)
    equations = bridge.equations_e if side == "e" else bridge.equations_etilde
    point_invs = fp_inverses(point, p)
    for eq in equations:
        if eq.evaluate(point, point_invs) != 0:
            raise InternalError("reconstructed fiber point violates a defining equation")
    return [point]


def delta_regularity_probe(bridge: BridgeData, points, prime, side="e"):
    """Fraction of points where the logarithmic Jacobian has full rank s."""
    p = int(prime)
    equations = bridge.equations_e if side == "e" else bridge.equations_etilde
    s = len(equations)
    passes = 0
    for x in points:
        invs = fp_inverses(x, p)
        rows = [eq.log_gradient(x, invs) for eq in equations]
        if fp_echelon(rows, p)[0] == s:
            passes += 1
    return Fraction(passes, len(points)) if points else None


def birationality_evidence(bridge: BridgeData, count, prime, seed) -> EvidenceReport:
    """Sampling report: fiber histograms, regularity rate, verdict, caveats."""
    p = int(prime)
    samples, stats = sample_determinantal_points(bridge, count, p, seed)
    hist_e = {}
    hist_et = {}
    completed = []
    generic = 0
    good = 0
    fiber_points_e = []
    fiber_points_et = []
    for sp in samples:
        fe = fiber(bridge, sp.y, p, side="e")
        fet = fiber(bridge, sp.y, p, side="etilde")
        non_generic = fe == NON_GENERIC or fet == NON_GENERIC
        key_e = NON_GENERIC if fe == NON_GENERIC else str(len(fe))
        key_et = NON_GENERIC if fet == NON_GENERIC else str(len(fet))
        hist_e[key_e] = hist_e.get(key_e, 0) + 1
        hist_et[key_et] = hist_et.get(key_et, 0) + 1
        if not non_generic:
            generic += 1
            if len(fe) == 1 and len(fet) == 1:
                good += 1
            fiber_points_e.extend(fe)
            fiber_points_et.extend(fet)
        completed.append(
            replace(
                sp,
                fibers_e=() if fe == NON_GENERIC else tuple(fe),
                fibers_etilde=() if fet == NON_GENERIC else tuple(fet),
                non_generic=non_generic,
            )
        )
    rate_e = delta_regularity_probe(bridge, fiber_points_e, p, side="e")
    rate_et = delta_regularity_probe(bridge, fiber_points_et, p, side="etilde")
    total_pts = len(fiber_points_e) + len(fiber_points_et)
    if total_pts:
        passes = (rate_e or 0) * len(fiber_points_e) + (rate_et or 0) * len(fiber_points_et)
        rate = Fraction(passes, total_pts)
        rate_str = f"{rate.numerator}/{rate.denominator}"
    else:
        rate_str = None
    warnings = list(bridge.warnings) + list(stats["warnings"])
    flag, witness = is_two_independent(bridge.pair.parts)
    if not flag:
        warnings.append(
            "nef-partition is not 2-independent (subset "
            + ",".join(str(i + 1) for i in witness)
            + "): irreducibility of the intersections is not guaranteed"
        )
    if any(sp.non_generic for sp in completed):
        warnings.append("non-generic samples excluded from the birationality verdict")
    warnings.append("irreducibility and dimension hypotheses sampled, not proven")
    verdict = generic > 0 and 20 * good >= 19 * generic
    return EvidenceReport(
        prime=p,
        seed=seed,
        samples_requested=count,
        samples_on_d=len(samples),
        fiber_histogram_e=hist_e,
        fiber_histogram_etilde=hist_et,
        delta_regular_pass_rate=rate_str,
        verdict=verdict,
        warnings=tuple(warnings),
    )
