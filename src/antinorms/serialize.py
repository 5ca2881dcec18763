"""JSON serialization of antinorms, bodies, polygons and matrix families.

Antinorm expressions serialize as a tagged tree; parse(print(x)) is the
identity on the JSON level.  Schemas for every wire format are shipped in
``SCHEMAS`` and can be enforced with :func:`validate`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .dynamics import MatrixFamily
from .exprs import (
    BuiltinAntinorm,
    ConeSplitAntinorm,
    NumericDualAntinorm,
    PLAntinorm,
    ProductAntinorm,
    SymmetrizedAntinorm,
)
from .geometry import ConicPolytope
from .selfdual import ConicPolygon2D

__all__ = ["expr_to_dict", "expr_from_dict", "to_json", "from_json",
           "polytope_to_dict", "polytope_from_dict",
           "polygon_to_dict", "polygon_from_dict",
           "family_to_dict", "family_from_dict",
           "SCHEMAS", "validate"]


def expr_to_dict(f):
    if isinstance(f, PLAntinorm):
        return {"type": "pl", "dim": f.dim, "functionals": f.functionals.tolist()}
    if isinstance(f, ProductAntinorm):
        return {"type": "product", "weights": f.weights.tolist(), "scale": f.scale}
    if isinstance(f, BuiltinAntinorm):
        return {"type": "builtin", "name": f.name, "dim": f.dim, "params": dict(f.params)}
    if isinstance(f, SymmetrizedAntinorm):
        p = "-inf" if f.p == -math.inf else f.p
        return {"type": "symmetrized", "p": p, "inner": expr_to_dict(f.inner)}
    if isinstance(f, NumericDualAntinorm):
        return {"type": "numeric_dual", "inner": expr_to_dict(f.inner),
                "settings": f.settings()}
    if isinstance(f, ConeSplitAntinorm):
        return {"type": "cone_split", "inner": expr_to_dict(f.f1),
                "apex": f.apex.tolist(), "side": f.side, "grid_n": f.grid_n}
    raise TypeError(f"{type(f).__name__} is not serializable")


def expr_from_dict(d):
    t = d["type"]
    if t == "pl":
        return PLAntinorm(d["functionals"], dim=d.get("dim"))
    if t == "product":
        return ProductAntinorm(d["weights"], scale=d.get("scale"))
    if t == "builtin":
        return BuiltinAntinorm(d["name"], dim=d.get("dim"), **d.get("params", {}))
    if t == "symmetrized":
        p = -math.inf if d["p"] == "-inf" else float(d["p"])
        return SymmetrizedAntinorm(expr_from_dict(d["inner"]), p)
    if t == "numeric_dual":
        return NumericDualAntinorm(expr_from_dict(d["inner"]), **d.get("settings", {}))
    if t == "cone_split":
        return ConeSplitAntinorm(expr_from_dict(d["inner"]), d["apex"],
                                 side=d.get("side", "upper"), grid_n=d.get("grid_n", 20000))
    raise ValueError(f"unknown expression tag {t!r}")


def to_json(f, **kwargs):
    return json.dumps(expr_to_dict(f), **kwargs)


def from_json(s):
    return expr_from_dict(json.loads(s))


def polytope_to_dict(G):
    d = {"dim": G.dim}
    if G._halfspaces is not None:
        d["halfspaces"] = np.asarray(G._halfspaces).tolist()
    if G._vertices is not None:
        d["vertices"] = np.asarray(G._vertices).tolist()
    return d


def polytope_from_dict(d):
    return ConicPolytope(d["dim"], halfspaces=d.get("halfspaces"), vertices=d.get("vertices"))


def polygon_to_dict(poly):
    return {"k": poly.k, "vertices": poly.vertices.tolist()}


def polygon_from_dict(d):
    return ConicPolygon2D(d["k"], d["vertices"])


def family_to_dict(fam):
    d = {"dim": fam.dim, "matrices": fam.matrices.tolist()}
    if fam.probabilities is not None:
        d["probabilities"] = fam.probabilities.tolist()
    return d


def family_from_dict(d):
    return MatrixFamily(d["matrices"], probabilities=d.get("probabilities"))


_NUM_ARRAY = {"type": "array", "items": {"type": "number"}}
_NUM_MATRIX = {"type": "array", "items": _NUM_ARRAY}

SCHEMAS = {
    "pl_antinorm": {
        "type": "object",
        "required": ["type", "dim", "functionals"],
        "properties": {
            "type": {"const": "pl"},
            "dim": {"type": "integer", "minimum": 1},
            "functionals": _NUM_MATRIX,
        },
    },
    "expr": {
        "type": "object",
        "required": ["type"],
        "properties": {"type": {"enum": [
            "pl", "product", "builtin", "symmetrized", "numeric_dual", "cone_split"]}},
    },
    "polytope": {
        "type": "object",
        "required": ["dim"],
        "properties": {
            "dim": {"type": "integer", "minimum": 1},
            "halfspaces": _NUM_MATRIX,
            "vertices": _NUM_MATRIX,
        },
    },
    "polygon": {
        "type": "object",
        "required": ["k", "vertices"],
        "properties": {
            "k": {"type": "integer", "minimum": 0},
            "vertices": _NUM_MATRIX,
        },
    },
    "family": {
        "type": "object",
        "required": ["dim", "matrices"],
        "properties": {
            "dim": {"type": "integer", "minimum": 1},
            "matrices": {"type": "array", "items": _NUM_MATRIX},
            "probabilities": _NUM_ARRAY,
        },
    },
}


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _violations(x, schema, path):
    """(path, message) of each violation of ``schema`` by ``x``, keyword by
    keyword in schema order, with JSON Schema's meaning and messages for
    the keywords ``SCHEMAS`` uses (``const`` and ``enum`` hold strings)."""
    for key, want in schema.items():
        if key == "type":
            if not _TYPES[want](x):
                yield path, f"{x!r} is not of type {want!r}"
        elif key == "required":
            if isinstance(x, dict):
                yield from ((path, f"{k!r} is a required property") for k in want if k not in x)
        elif key == "properties":
            if isinstance(x, dict):
                for k, sub in want.items():
                    if k in x:
                        yield from _violations(x[k], sub, path + (k,))
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    yield from _violations(item, want, path + (i,))
        elif key == "const":
            if x != want:
                yield path, f"{want!r} was expected"
        elif key == "enum":
            if x not in want:
                yield path, f"{x!r} is not one of {want!r}"
        elif key == "minimum":
            if _TYPES["number"](x) and x < want:
                yield path, f"{x!r} is less than the minimum of {want!r}"
        else:
            raise KeyError(f"schema keyword {key!r} is not supported")


def validate(obj, schema_name):
    """Return ``obj`` if it matches ``SCHEMAS[schema_name]``; raise ValueError
    naming a violation otherwise.

    The violation named is the one ``jsonschema.exceptions.best_match``
    picks: the shallowest, among those the last path in sorted order, and
    among those the first keyword in schema order.
    """
    best = max(_violations(obj, SCHEMAS[schema_name], ()),
               key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is not None:
        path = "/".join(map(str, best[0])) or "top level"
        raise ValueError(f"not a valid {schema_name} ({path}): {best[1]}")
    return obj
