import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antinorms import ProductAntinorm, contact_point
from antinorms.duality import _dual2_batch

weights = st.floats(min_value=0.05, max_value=0.95)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(w=weights, seed=seeds)
def test_dual2_batch_of_selfdual_product_is_itself(w, seed):
    f = ProductAntinorm.selfdual([w, 1.0 - w])
    P = np.random.default_rng(seed).lognormal(0.0, 1.0, size=(16, 2))
    assert _dual2_batch(f, P) == pytest.approx(f.value(P), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(w=weights)
def test_contact_point_of_selfdual_product(w):
    f = ProductAntinorm.selfdual([w, 1.0 - w])
    a = contact_point(f)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)
    assert f.value(a) == pytest.approx(1.0, abs=1e-9)
