import json
import math

import numpy as np
import pytest

from antinorms import (
    AutopolarSeed,
    ConicPolytope,
    MatrixFamily,
    PLAntinorm,
    ProductAntinorm,
    catalog,
    construct1,
    construct2,
    symmetrize,
)
from antinorms.serialize import (
    SCHEMAS,
    expr_from_dict,
    expr_to_dict,
    family_from_dict,
    family_to_dict,
    from_json,
    polygon_from_dict,
    polygon_to_dict,
    polytope_from_dict,
    polytope_to_dict,
    to_json,
    validate,
)

EXPRS = [
    PLAntinorm([[1.0, 0.0], [0.25, 0.75]]),
    ProductAntinorm([0.3, 0.7]),
    ProductAntinorm.selfdual([0.3, 0.7]),
    catalog("sum", dim=3),
    catalog("min_eps", eps=0.4),
    catalog("rootsum3_drop"),
    symmetrize(catalog("sum", dim=2), -math.inf),
    symmetrize(ProductAntinorm([0.5, 0.5]), 0.0),
]


@pytest.mark.parametrize("f", EXPRS, ids=lambda f: type(f).__name__ + getattr(f, "name", ""))
def test_expr_roundtrip_identity(f):
    d = expr_to_dict(f)
    validate(d, "expr")
    assert expr_to_dict(expr_from_dict(d)) == d
    assert json.loads(to_json(f)) == d
    g = from_json(to_json(f))
    X = np.random.default_rng(0).uniform(0.1, 2.0, size=(20, f.dim))
    assert np.allclose(f._values(X), g._values(X), atol=1e-12)


def test_numeric_dual_roundtrip():
    from antinorms import NumericDualAntinorm

    f = NumericDualAntinorm(catalog("sqrt2xy"), tol=1e-9)
    d = expr_to_dict(f)
    assert expr_to_dict(expr_from_dict(d)) == d


def test_numeric_dual_file_carries_only_tol():
    from antinorms import NumericDualAntinorm

    d = expr_to_dict(NumericDualAntinorm(catalog("rootsum3"), tol=1e-9))
    assert d["settings"] == {"tol": 1e-9}


def test_cone_split_roundtrip():
    apex = np.array([1.0, 1.0]) / math.sqrt(2.0)
    f = construct1(catalog("sqrt2xy"), apex, grid_n=1024, verify=False)
    d = expr_to_dict(f)
    g = expr_from_dict(d)
    assert expr_to_dict(g) == d
    X = np.random.default_rng(1).uniform(0.1, 2.0, size=(20, 2))
    assert np.allclose(f._values(X), g._values(X), atol=1e-12)


def test_pl_schema_validates():
    d = expr_to_dict(PLAntinorm([[1.0, 1.0]]))
    validate(d, "pl_antinorm")
    with pytest.raises(Exception):
        validate({"type": "pl", "dim": 2}, "pl_antinorm")


def test_polytope_roundtrip():
    G = ConicPolytope.from_halfspaces([[0.6, 0.8], [0.0, 1.25]])
    G.vertices()
    d = polytope_to_dict(G)
    validate(d, "polytope")
    H = polytope_from_dict(d)
    assert np.allclose(H.vertices(), G.vertices(), atol=1e-12)


def test_polygon_roundtrip():
    poly = construct2(AutopolarSeed(1, math.atan2(0.8, 0.6)))
    d = polygon_to_dict(poly)
    validate(d, "polygon")
    q = polygon_from_dict(d)
    assert q.k == poly.k
    assert np.allclose(q.vertices, poly.vertices)


def test_family_roundtrip():
    fam = MatrixFamily([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])], probabilities=[0.25, 0.75])
    d = family_to_dict(fam)
    validate(d, "family")
    g = family_from_dict(d)
    assert np.allclose(g.matrices, fam.matrices)
    assert np.allclose(g.probabilities, fam.probabilities)


def test_all_schemas_are_valid_json_schema():
    import jsonschema

    for name, schema in SCHEMAS.items():
        jsonschema.Draft202012Validator.check_schema(schema)


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        expr_from_dict({"type": "mystery"})
