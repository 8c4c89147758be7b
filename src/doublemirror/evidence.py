"""Finite-field sampling evidence for birationality of toric double mirrors.

Points of the determinantal locus D are sampled by restricting the exact F_p
polynomial det A_1 to random coordinate lines and finding its roots in F_p*
exactly, rejection-testing the remaining determinants at each root.  Each
bridge matrix is evaluated once at a sampled point, by one term table;
fibers of both complete intersections over it are reconstructed from the
one-dimensional kernels of those values (of their transposes on the E~
side), pushed to the unprimed torus through one complement L (the E~ side
reads L at inverse values, as L~ = -L), and verified exactly against all
defining equations, one table per system, in the same pass that gives the
logarithmic Jacobian for the regularity probe.  The report keeps counts
only, so memory does not grow with the fiber points.
"""

from __future__ import annotations

from fractions import Fraction

from .bridge import BridgeData
from .errors import InputError, InternalError
from .laurent import SplitMix64, fp_inv, fp_inverses, fp_monomial, fp_roots, is_prime
from .nefpart import is_two_independent
from .records import record

MIN_PRIME = 101
LINE_TRIES = 12
SUCCESS_WARN_RATIO = Fraction(1, 2)
NON_GENERIC = "non_generic"


@record
class SamplePoint:
    y: tuple
    values: tuple  # every bridge matrix evaluated at y, in block order


@record
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


def fp_echelon(rows, p, reduced=False):
    """Gaussian elimination over F_p: ``(rank, kernel)``.

    ``rows`` holds residues in ``[0, p)`` and is left unchanged.  Forward
    elimination stops once every row holds a pivot.  ``reduced`` also scales
    each pivot row to 1 and clears the pivot column above it, and ``kernel``
    is then a basis of the right kernel read off the reduced rows (``None``
    without ``reduced``).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        row = m[pivot]
        if pivot != r:
            m[pivot], m[r] = m[r], row
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
        return len(pivots), None
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = (-m[row_idx][fc]) % p
        kernel.append(tuple(vec))
    return len(pivots), kernel


def _evaluate(bridge: BridgeData, k, y, p):
    """Bridge matrix k evaluated at the torus point y."""
    values = bridge.term_tables()[0][k].values(y, fp_inverses(y, p))
    width = len(bridge.matrices[k][0])
    return [values[i:i + width] for i in range(0, len(values), width)]


def sample_determinantal_points(bridge: BridgeData, count, prime, seed):
    """Up to ``count`` torus points of D, deterministically from the seed.

    Sample n draws lines from its own stream, seeded by ``seed ^ n``, until
    one meets D; the run stops once it has drawn ``LINE_TRIES * count``
    lines in all.  Returns ``(samples, stats)``; each sample carries the
    block values at its point.  A low success rate attaches a
    dimension-excess warning in ``stats``.  On a rank-one torus every line
    is the whole torus, so D is the finite root set of det A_1 and no sample
    means no F_p*-point.
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
        while found is None and stats["line_tries"] < LINE_TRIES * count:
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
                values = []
                for k in range(1, len(bridge.matrices)):
                    mat = _evaluate(bridge, k, y, p)
                    if fp_echelon(mat, p)[0] == len(mat):
                        break
                    values.append(mat)
                else:
                    accepted.append((y, values))
            if accepted:
                found = accepted[rng.below(len(accepted))]
        if found is None:
            break
        y, values = found
        values = (_evaluate(bridge, 0, y, p), *values)
        samples.append(SamplePoint(y=y, values=values))
        stats["found"] += 1
    if dd == 1 and count and not stats["found"]:
        stats["warnings"].append("D is finite (rank-one torus) and has no F_p*-point")
    elif count and Fraction(stats["found"], count) < SUCCESS_WARN_RATIO:
        stats["warnings"].append(
            "sampling success rate below threshold: possible dimension excess of D"
        )
    return samples, stats


def fiber(bridge: BridgeData, y, prime, side="e", values=None):
    """Fiber of the chosen complete intersection over a D point.

    ``values`` are the bridge matrices evaluated at y (evaluated here when
    omitted).  Returns ``(points, regular)``: a list of torus points in M
    coordinates, or the string ``"non_generic"`` when some block kernel has
    dimension >= 2, and how many of the points have a logarithmic Jacobian
    of full rank.
    """
    p = int(prime)
    if any(v % p == 0 for v in y):
        raise InputError("sample point is off the torus")
    if side not in ("e", "etilde"):
        raise InputError("side must be 'e' or 'etilde'")
    if values is None:
        values = [_evaluate(bridge, k, y, p) for k in range(len(bridge.matrices))]
    omega = []
    for mat in values:
        if side == "etilde":
            mat = list(zip(*mat))
        kern = fp_echelon(mat, p, reduced=True)[1]
        if len(kern) == 0:
            return [], 0
        if len(kern) > 1:
            return NON_GENERIC, 0
        vec = kern[0]
        if 0 in vec:
            return [], 0
        inv0 = fp_inv(vec[0], p)
        omega.extend(v * inv0 % p for v in vec[1:])
    skeleton = bridge.skeleton
    omega_invs = fp_inverses(omega, p)
    if side == "etilde":
        # L~ = -L, so the E~ side reads L at the inverse values
        omega, omega_invs = omega_invs, omega
    basis_vals = list(y) + [
        fp_monomial(c_row, omega, omega_invs, p) for c_row in skeleton.l_coords.data
    ]
    basis_invs = fp_inverses(basis_vals, p)
    # bridge_skeleton checked ann_basis . stack_e_inv = [I | 0], so the point
    # projects back to y along Ann(e, e~)
    point = tuple(fp_monomial(row, basis_vals, basis_invs, p) for row in skeleton.stack_e_inv.data)
    vanishes, full_rank = _log_jacobian(bridge.term_tables()[1][side], point, p)
    if not vanishes:
        raise InternalError("reconstructed fiber point violates a defining equation")
    return [point], int(full_rank)


def _log_jacobian(table, x, p):
    """Whether all equations of a term table vanish at the torus point x, and
    whether their logarithmic Jacobian there has full rank; one pass."""
    pairs = table.values_and_log_gradients(x)
    rows = [row for _, row in pairs]
    return all(v == 0 for v, _ in pairs), fp_echelon(rows, p)[0] == len(rows)


def birationality_evidence(bridge: BridgeData, count, prime, seed) -> EvidenceReport:
    """Sampling report: fiber histograms, regularity rate, verdict, caveats."""
    p = int(prime)
    samples, stats = sample_determinantal_points(bridge, count, p, seed)
    hist_e = {}
    hist_et = {}
    generic = 0
    good = 0
    fiber_points = 0
    regular = 0
    for sp in samples:
        fe, regular_e = fiber(bridge, sp.y, p, "e", sp.values)
        fet, regular_et = fiber(bridge, sp.y, p, "etilde", sp.values)
        key_e = NON_GENERIC if fe == NON_GENERIC else str(len(fe))
        key_et = NON_GENERIC if fet == NON_GENERIC else str(len(fet))
        hist_e[key_e] = hist_e.get(key_e, 0) + 1
        hist_et[key_et] = hist_et.get(key_et, 0) + 1
        if NON_GENERIC in (key_e, key_et):
            continue
        generic += 1
        if len(fe) == 1 and len(fet) == 1:
            good += 1
        fiber_points += len(fe) + len(fet)
        regular += regular_e + regular_et
    if fiber_points:
        rate = Fraction(regular, fiber_points)
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
    if generic < len(samples):
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
