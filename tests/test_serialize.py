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


def _jsonschema_message(obj, schema_name):
    import jsonschema
    from jsonschema.exceptions import best_match

    e = best_match(jsonschema.Draft202012Validator(SCHEMAS[schema_name]).iter_errors(obj))
    if e is None:
        return None
    path = "/".join(map(str, e.absolute_path)) or "top level"
    return f"not a valid {schema_name} ({path}): {e.message}"


def _mutants(rng, obj, depth=0):
    """Copies of ``obj`` with one value replaced, a key dropped or a key added."""
    bad = ["x", None, True, -1, 0, 0.5, 2.0, [], {}, [1, "y"], "pl", "product"]
    if isinstance(obj, dict):
        for k in obj:
            yield {j: v for j, v in obj.items() if j != k}
            for b in rng.choice(len(bad), size=3, replace=False):
                yield {**obj, k: bad[b]}
            for sub in _mutants(rng, obj[k], depth + 1):
                yield {**obj, k: sub}
        yield {**obj, "extra": 1}
    elif isinstance(obj, list) and obj and depth < 4:
        i = int(rng.integers(len(obj)))
        yield obj[:i] + [bad[int(rng.integers(len(bad)))]] + obj[i + 1:]
        for sub in _mutants(rng, obj[i], depth + 1):
            yield obj[:i] + [sub] + obj[i + 1:]
        yield []


def test_validate_names_the_violation_jsonschema_picks():
    rng = np.random.default_rng(8)
    G = ConicPolytope.from_halfspaces([[0.6, 0.8], [0.0, 1.25]])
    G.vertices()
    valid = {
        "pl_antinorm": expr_to_dict(PLAntinorm([[1.0, 0.5], [0.2, 1.0]])),
        "expr": expr_to_dict(ProductAntinorm([0.3, 0.7])),
        "polytope": polytope_to_dict(G),
        "polygon": polygon_to_dict(construct2(AutopolarSeed(1, math.atan2(0.8, 0.6)))),
        "family": family_to_dict(MatrixFamily([np.diag([2.0, 1.0]), [[0.5, 1.0], [0.0, 1.0]]],
                                              probabilities=[0.25, 0.75])),
    }
    checked = 0
    for name, obj in valid.items():
        for x in [obj, [obj], 3, *_mutants(rng, obj)]:
            expected = _jsonschema_message(x, name)
            if expected is None:
                assert validate(x, name) is x
            else:
                with pytest.raises(ValueError) as err:
                    validate(x, name)
                assert str(err.value) == expected
                checked += 1
    assert checked > 50


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        expr_from_dict({"type": "mystery"})
