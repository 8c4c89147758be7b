"""Instance files: parsing, canonical serialization, built-in examples.

An instance file is UTF-8 JSON with exact integers only (big integers may be
quoted as strings; floating point is rejected outright).  It declares a
lattice presentation plus exactly one payload:

* ``nef_partition`` -- list of parts, each a list of ambient vertex vectors
  (a reflexive polytope is a partition of one part);
* ``cone``          -- generator list with optional ``deg``/``deg_dual``.

Optional ``coefficients`` give a seed, and an explicit value map keyed by
slice-point coordinates in the instance lattice's basis (comma-separated
integers) over a field (``"rational"``, the default, or ``{"prime": p}``).
A field names the values' field only, so a field without values is an
input error: the bridge is built over QQ and evidence runs at ``--prime``.

Keys are strict, so nothing in a file is dropped or overwritten unread: an
unknown key, a lattice key that the lattice's kind does not read, a key
repeated within one JSON object and two spellings of one coefficient key
are input errors.  A part may list points that are no vertices; its
vertices are read off the Cayley rays of all its points.
"""

from __future__ import annotations

import json
from fractions import Fraction

# hashlib loads OpenSSL, megabytes of RSS and milliseconds of start-up for one
# digest; the interpreter's built-in SHA-256 gives the same bytes
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython before 3.12
    except ImportError:
        from hashlib import sha256

from .canned import product_projective, square_part, two_segment_parts
from .errors import InputError, SumNotReflexiveError
from .intmat import IntMatrix, RowSolver, dot
from .lattices import LatticeEmbedding
from .laurent import MASK64, RATIONAL
from .nefpart import reject_zero_parts, validate_nef_partition
from .polytope import (
    Polytope,
    cayley_dual_rays,
    part_lattice_points,
    part_vertices,
    point_tuples,
)
from .records import record


def _reject_float(_value):
    raise InputError("floating point numbers are not accepted; use exact integers")


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"key {key!r} appears twice in one JSON object")
        obj[key] = value
    return obj


def _check_keys(obj, known, where):
    for key in obj:
        if key not in known:
            raise InputError(
                f"unknown key {key!r} in {where}; expected one of {', '.join(sorted(known))}"
            )


def loads(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float,
                          object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise InputError("invalid JSON: arrays or objects nested too deeply")


def dumps(obj, pretty=False) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def _as_int(value, context):
    if isinstance(value, bool):
        raise InputError(f"{context}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise InputError(f"{context}: {value!r} is not an integer")
    raise InputError(f"{context}: expected an integer, got {type(value).__name__}")


def _as_vector(value, context):
    if not isinstance(value, list):
        raise InputError(f"{context}: expected a list of integers")
    return tuple(_as_int(x, context) for x in value)


def _as_list(value, context):
    if not isinstance(value, list):
        raise InputError(f"{context} must be a list")
    return value


def _as_fraction(value, context):
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{context}: {value!r} is not an exact rational")
    raise InputError(f"{context}: expected an integer or 'num/den' string")


@record
class CoefficientSpec:
    domain: object  # RATIONAL or prime int
    seed: int
    explicit: dict | None  # key tuple -> value


@record
class Instance:
    lattice: LatticeEmbedding
    kind: str  # "nef_partition" | "cone"
    parts: tuple | None  # vertex lists in lattice coordinates
    cone_generators: tuple | None
    cone_deg: tuple | None
    cone_deg_dual: tuple | None
    coefficients: CoefficientSpec | None
    canonical: dict  # the loaded JSON; ``dumps`` sorts its keys
    shift_note: str | None = None

    def digest(self) -> str:
        return sha256(dumps(self.canonical).encode("utf-8")).hexdigest()


def parse_instance(data) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance file must be a JSON object")
    lattice_spec = data.get("lattice")
    if lattice_spec is None:
        raise InputError("missing 'lattice' field")
    if not isinstance(lattice_spec, dict):
        raise InputError("'lattice' must be an object")
    rank = _as_int(lattice_spec.get("ambient_rank"), "lattice.ambient_rank")

    payload_keys = [k for k in ("nef_partition", "cone") if k in data]
    if len(payload_keys) != 1:
        raise InputError(
            "exactly one of 'nef_partition', 'cone' is required"
            " (a polytope is a one-part 'nef_partition')"
        )
    kind = payload_keys[0]
    _check_keys(data, ("lattice", kind, "coefficients"), "the instance")

    # Every payload vector is read and its length checked before the lattice
    # is built: a full lattice of ambient rank n holds n x n matrices, which
    # a one-line payload must not make this process allocate.
    def ambient(value, context):
        vec = _as_vector(value, context)
        if len(vec) != rank:
            raise InputError("ambient vector has wrong length")
        return vec

    parts = None
    generators = None
    deg = None
    deg_dual = None

    if kind == "nef_partition":
        raw_parts = data["nef_partition"]
        if not isinstance(raw_parts, list) or not raw_parts:
            raise InputError("'nef_partition' must be a non-empty list of vertex lists")
        parts = []
        for idx, vl in enumerate(raw_parts):
            if not isinstance(vl, list) or not vl:
                raise InputError(f"part {idx + 1} must be a non-empty vertex list")
            parts.append([ambient(v, f"part {idx + 1} vertex") for v in vl])
    else:
        cone = data["cone"]
        if not isinstance(cone, dict) or "generators" not in cone:
            raise InputError("'cone' must be an object with a 'generators' list")
        _check_keys(cone, ("generators", "deg", "deg_dual"), "'cone'")
        raw_generators = _as_list(cone["generators"], "'cone' generators")
        generators = [ambient(g, "cone generator") for g in raw_generators]
        if "deg" in cone:
            deg = ambient(cone["deg"], "deg")
        if "deg_dual" in cone:
            deg_dual = ambient(cone["deg_dual"], "deg_dual")

    lattice = _parse_lattice(lattice_spec, rank)
    if parts is not None:
        parts = tuple(tuple(lattice.to_coords(v) for v in vl) for vl in parts)
    if generators is not None:
        generators = tuple(lattice.to_coords(g) for g in generators)
    if deg is not None:
        deg = lattice.to_coords(deg)
    if deg_dual is not None:
        deg_dual = lattice.dual().to_coords(deg_dual)

    coefficients = _parse_coefficients(data.get("coefficients"))
    return Instance(
        lattice=lattice,
        kind=kind,
        parts=parts,
        cone_generators=generators,
        cone_deg=deg,
        cone_deg_dual=deg_dual,
        coefficients=coefficients,
        canonical=data,
    )


def _parse_lattice(spec, rank) -> LatticeEmbedding:
    kind = spec.get("kind", "full")
    if kind == "full":
        _check_keys(spec, ("ambient_rank", "kind"), "a 'full' lattice")
        lattice = LatticeEmbedding.full(rank)
    elif kind in ("kernel", "quotient"):
        key, noun = ("equations", "equation") if kind == "kernel" else ("relations", "relation")
        _check_keys(spec, ("ambient_rank", "kind", key), f"a {kind!r} lattice")
        rows = spec.get(key)
        if not rows:
            raise InputError(f"{kind} lattice requires {key!r}")
        rows = tuple(_as_vector(r, f"lattice {noun}") for r in _as_list(rows, f"lattice {key}"))
        # every row, not only the first: IntMatrix refuses ragged rows
        if any(len(r) != rank for r in rows):
            raise InputError(f"{noun} rows must have length ambient_rank")
        build = LatticeEmbedding.from_kernel if kind == "kernel" else LatticeEmbedding.from_quotient
        lattice = build(IntMatrix(rows))
    else:
        raise InputError(f"unknown lattice kind {kind!r}")
    if lattice.rank < 1:
        raise InputError(f"the {kind} lattice has rank {lattice.rank}; a positive rank is required")
    return lattice


def _parse_coefficients(spec) -> CoefficientSpec | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise InputError("'coefficients' must be an object")
    _check_keys(spec, ("field", "seed", "values"), "'coefficients'")
    if "field" in spec and "values" not in spec:
        raise InputError(
            "coefficients.field names the field of coefficients.values, which are missing;"
            " without values the bridge is built over QQ and evidence runs at --prime"
        )
    field = spec.get("field", "rational")
    if isinstance(field, dict):
        _check_keys(field, ("prime",), "coefficients.field")
    if field == "rational":
        domain = RATIONAL
    elif isinstance(field, dict) and "prime" in field:
        domain = _as_int(field["prime"], "coefficients.field.prime")
        if domain < 1:
            raise InputError(f"coefficients.field.prime must be positive, got {domain}")
    else:
        raise InputError("coefficients.field must be 'rational' or {'prime': p}")
    seed = _as_int(spec.get("seed", 0), "coefficients.seed")
    # SplitMix64 keeps 64 bits of its seed: a seed outside would alias another
    if not 0 <= seed <= MASK64:
        raise InputError("coefficients.seed must lie in [0, 2**64)")
    explicit = None
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, dict):
            raise InputError("coefficients.values must be an object")
        explicit = {}
        spelling = {}
        for key, val in values.items():
            try:
                coords = tuple(int(x) for x in key.split(","))
            except ValueError:
                raise InputError(f"coefficient key {key!r} is not comma-separated integers")
            if coords in spelling:
                raise InputError(
                    f"coefficient keys {spelling[coords]!r} and {key!r} name one point"
                )
            spelling[coords] = key
            if domain == RATIONAL:
                explicit[coords] = _as_fraction(val, f"coefficient {key}")
            else:
                explicit[coords] = _as_int(val, f"coefficient {key}") % domain
    return CoefficientSpec(domain=domain, seed=seed, explicit=explicit)


def build_partition(instance: Instance):
    """Validate the instance's nef-partition, translating a shifted sum.

    One double description of the Cayley cone over the input points gives
    its dual rays, and the parts' vertices are read off them
    (``part_vertices``).  The sum moved by -u is reflexive exactly when
    ``<u, w> = 1 - b`` on every facet ``<x, w> >= -b`` of the sum, which
    fixes u.  Part i then moves by -q_i, where ``u = q_1 + ... + q_s`` with
    q_i a lattice point of part i, cut out by the carried rays:
    ``(u, 0, ..., 0)`` when part 1 holds u, else the first such split in
    lexicographic order.  The translation is unimodular on the Cayley cone:
    it sends each ray ``(a ; w)`` of the dual cone to ``(a' ; w)`` with
    ``a'_i = a_i + <q_i, w>``, so the translated parts reuse the double
    description of the sum.

    Returns ``(nef_partition, shift_note)``.
    """
    if instance.kind != "nef_partition":
        raise InputError("instance does not declare a nef-partition")
    lattice = LatticeEmbedding.full(instance.lattice.rank)
    point_sets = [sorted(set(points)) for points in instance.parts]
    # before the double description, as a part {0} can make the sum flat
    reject_zero_parts(point_sets)
    rays = cayley_dual_rays(point_sets)
    polys = [Polytope(lattice, part_vertices(pts, rays, i)) for i, pts in enumerate(point_sets)]
    try:
        return validate_nef_partition(polys, rays), None
    except SumNotReflexiveError as exc:
        normals = IntMatrix(tuple(w for w, _ in exc.facets))
        u = RowSolver(normals.transpose()).solve([1 - b for _, b in exc.facets])
        if u is None:
            raise
        points = part_lattice_points(polys, rays)
        if u in points[0]:
            split = (u,) + ((0,) * len(u),) * (len(polys) - 1)
            note = "partition translated by " + _negated(u)
        else:
            split = next(point_tuples(points, u), None)
            if split is None:
                raise
            note = "parts translated by " + ", ".join(_negated(q) for q in split)
    shifted = [p.translate(tuple(-x for x in q)) for p, q in zip(polys, split)]
    s = len(split)
    rays = sorted(tuple(a + dot(q, r[s:]) for a, q in zip(r, split)) + r[s:] for r in rays)
    return validate_nef_partition(shifted, rays), note


def _negated(vector):
    return "-(" + ",".join(str(x) for x in vector) + ")"


def example_instance(name: str, n=None, t=None) -> dict:
    """A bundled instance file as a JSON-ready dict."""
    if name == "product-projective":
        if n is None or t is None:
            raise InputError("product-projective requires --n and --t")
        data = product_projective(int(n), int(t))
        return {
            "lattice": {
                "ambient_rank": data["ambient_rank"],
                "kind": "kernel",
                "equations": [list(r) for r in data["equations"]],
            },
            "cone": {
                "generators": [list(g) for g in data["generators"]],
                "deg": list(data["deg"]),
                "deg_dual": list(data["deg_dual"]),
            },
        }
    parts = {"two-segment": two_segment_parts, "square": square_part}.get(name)
    if parts is None:
        raise InputError(f"unknown example {name!r}")
    if n is not None or t is not None:
        raise InputError(f"{name} takes no --n or --t")
    return {
        "lattice": {"ambient_rank": 2, "kind": "full"},
        "nef_partition": [[list(v) for v in part] for part in parts()],
    }
