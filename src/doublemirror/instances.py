"""Instance files: parsing, canonical serialization, built-in examples.

An instance file is UTF-8 JSON with exact integers only (big integers may be
quoted as strings; floating point is rejected outright).  It declares a
lattice presentation plus exactly one payload:

* ``nef_partition`` -- list of parts, each a list of ambient vertex vectors;
* ``cone``          -- generator list with optional ``deg``/``deg_dual``;
* ``polytope``      -- a bare vertex list (accepted by ``dualize`` only).

Optional ``coefficients`` fix the field (``"rational"`` or ``{"prime": p}``),
a seed, and an explicit value map keyed by slice-point coordinates in the
instance lattice's basis (comma-separated integers).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .canned import product_projective, square_part, two_segment_parts
from .errors import InputError, SumNotReflexiveError
from .intmat import IntMatrix, RowSolver, dot
from .lattices import LatticeEmbedding
from .laurent import RATIONAL
from .nefpart import validate_nef_partition
from .polytope import Polytope, lattice_points, point_tuples
from .records import record


def _reject_float(_value):
    raise InputError("floating point numbers are not accepted; use exact integers")


def loads(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
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
    kind: str  # "nef_partition" | "cone" | "polytope"
    parts: tuple | None  # vertex lists in lattice coordinates
    cone_generators: tuple | None
    cone_deg: tuple | None
    cone_deg_dual: tuple | None
    polytope_vertices: tuple | None
    coefficients: CoefficientSpec | None
    canonical: dict
    shift_note: str | None = None

    def digest(self) -> str:
        return hashlib.sha256(dumps(self.canonical).encode("utf-8")).hexdigest()


def parse_instance(data) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance file must be a JSON object")
    lattice_spec = data.get("lattice")
    if lattice_spec is None:
        raise InputError("missing 'lattice' field")
    if not isinstance(lattice_spec, dict):
        raise InputError("'lattice' must be an object")
    rank = _as_int(lattice_spec.get("ambient_rank"), "lattice.ambient_rank")

    payload_keys = [k for k in ("nef_partition", "cone", "polytope") if k in data]
    if len(payload_keys) != 1:
        raise InputError("exactly one of 'nef_partition', 'cone', 'polytope' is required")
    kind = payload_keys[0]

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
    poly_vertices = None

    if kind == "nef_partition":
        raw_parts = data["nef_partition"]
        if not isinstance(raw_parts, list) or not raw_parts:
            raise InputError("'nef_partition' must be a non-empty list of vertex lists")
        parts = []
        for idx, vl in enumerate(raw_parts):
            if not isinstance(vl, list) or not vl:
                raise InputError(f"part {idx + 1} must be a non-empty vertex list")
            parts.append([ambient(v, f"part {idx + 1} vertex") for v in vl])
    elif kind == "cone":
        cone = data["cone"]
        if not isinstance(cone, dict) or "generators" not in cone:
            raise InputError("'cone' must be an object with a 'generators' list")
        raw_generators = _as_list(cone["generators"], "'cone' generators")
        generators = [ambient(g, "cone generator") for g in raw_generators]
        if "deg" in cone:
            deg = ambient(cone["deg"], "deg")
        if "deg_dual" in cone:
            deg_dual = ambient(cone["deg_dual"], "deg_dual")
    else:
        raw_vertices = _as_list(data["polytope"], "'polytope'")
        poly_vertices = [ambient(v, "polytope vertex") for v in raw_vertices]

    lattice = _parse_lattice(lattice_spec, rank)
    if parts is not None:
        parts = tuple(tuple(lattice.to_coords(v) for v in vl) for vl in parts)
    if generators is not None:
        generators = tuple(lattice.to_coords(g) for g in generators)
    if deg is not None:
        deg = lattice.to_coords(deg)
    if deg_dual is not None:
        deg_dual = lattice.dual().to_coords(deg_dual)
    if poly_vertices is not None:
        poly_vertices = tuple(lattice.to_coords(v) for v in poly_vertices)

    coefficients = _parse_coefficients(data.get("coefficients"))
    canonical = _canonical_dict(data)
    return Instance(
        lattice=lattice,
        kind=kind,
        parts=parts,
        cone_generators=generators,
        cone_deg=deg,
        cone_deg_dual=deg_dual,
        polytope_vertices=poly_vertices,
        coefficients=coefficients,
        canonical=canonical,
    )


def _parse_lattice(spec, rank) -> LatticeEmbedding:
    kind = spec.get("kind", "full")
    if kind == "full":
        lattice = LatticeEmbedding.full(rank)
    elif kind in ("kernel", "quotient"):
        key, noun = ("equations", "equation") if kind == "kernel" else ("relations", "relation")
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
    field = spec.get("field", "rational")
    if field == "rational":
        domain = RATIONAL
    elif isinstance(field, dict) and "prime" in field:
        domain = _as_int(field["prime"], "coefficients.field.prime")
        if domain < 1:
            raise InputError(f"coefficients.field.prime must be positive, got {domain}")
    else:
        raise InputError("coefficients.field must be 'rational' or {'prime': p}")
    seed = _as_int(spec.get("seed", 0), "coefficients.seed")
    explicit = None
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, dict):
            raise InputError("coefficients.values must be an object")
        explicit = {}
        for key, val in values.items():
            try:
                coords = tuple(int(x) for x in key.split(","))
            except ValueError:
                raise InputError(f"coefficient key {key!r} is not comma-separated integers")
            if domain == RATIONAL:
                explicit[coords] = _as_fraction(val, f"coefficient {key}")
            else:
                explicit[coords] = _as_int(val, f"coefficient {key}") % domain
    return CoefficientSpec(domain=domain, seed=seed, explicit=explicit)


def _canonical_dict(data):
    """Round-trip the raw JSON into a canonical nested structure."""
    if isinstance(data, dict):
        return {str(k): _canonical_dict(v) for k, v in sorted(data.items())}
    if isinstance(data, list):
        return [_canonical_dict(v) for v in data]
    if isinstance(data, bool) or data is None:
        return data
    if isinstance(data, int):
        return data
    if isinstance(data, str):
        return data
    raise InputError(f"unsupported JSON value {data!r}")


def build_partition(instance: Instance):
    """Validate the instance's nef-partition, translating a shifted sum.

    The sum moved by -u is reflexive exactly when ``<u, w> = 1 - b`` on
    every facet ``<x, w> >= -b`` of the sum, which fixes u.  Part i then
    moves by -q_i, where ``u = q_1 + ... + q_s`` with q_i a lattice point
    of part i: ``(u, 0, ..., 0)`` when part 1 holds u, else the first such
    split in lexicographic order.  The translation is unimodular on the
    Cayley cone: it sends each ray ``(a ; w)`` of the dual cone to
    ``(a' ; w)`` with ``a'_i = a_i + <q_i, w>``, so the translated parts
    reuse the double description of the sum.

    Returns ``(nef_partition, shift_note)``.
    """
    if instance.kind != "nef_partition":
        raise InputError("instance does not declare a nef-partition")
    lattice = LatticeEmbedding.full(instance.lattice.rank)
    polys = [Polytope.from_points(lattice, pts) for pts in instance.parts]
    try:
        return validate_nef_partition(polys), None
    except SumNotReflexiveError as exc:
        facets, rays = exc.total.facets(), exc.rays
        normals = IntMatrix(tuple(w for w, _ in facets))
        u = RowSolver(normals.transpose()).solve([1 - b for _, b in facets])
        if u is None:
            raise
        if polys[0].contains(u):
            split = (u,) + ((0,) * len(u),) * (len(polys) - 1)
            note = "partition translated by " + _negated(u)
        else:
            split = next(point_tuples([lattice_points(p) for p in polys], u), None)
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
