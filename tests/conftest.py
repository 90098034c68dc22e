import numpy as np
import pytest
from hypothesis import strategies as st

from stressnet import bundled_dictionary_path
from stressnet.lexicon import PAD_TYPE_INDEX, load_dictionary


@pytest.fixture(scope="session")
def lexicon():
    return load_dictionary(bundled_dictionary_path())


def random_instance_batch(rng, n, k, min_valid=2, max_positions=17):
    """Random padded batch arrays: (features, types, mask, labels, weights)."""
    feats = rng.normal(0.0, 1.0, (n, max_positions, k))
    types = rng.integers(0, 16, (n, max_positions))
    mask = np.zeros((n, max_positions), dtype=bool)
    labels = np.full((n, max_positions), -1, dtype=np.int64)
    for b in range(n):
        valid = int(rng.integers(min_valid, max_positions + 1))
        mask[b, :valid] = True
        labels[b, :valid] = rng.integers(0, 3, valid)
        types[b, valid:] = PAD_TYPE_INDEX
        feats[b, valid:] = 0.0
    weights = np.where(mask, rng.uniform(0.2, 1.0, (n, max_positions)), 0.0)
    return feats, types, mask, labels, weights


# any JSON document, for fuzzing the readers of JSON input
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


# floats whose repr takes every form: signed zeros, subnormals, the
# extremes, integral values and exponents
float_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, 1.0, -3.0, 2.0 ** 60, 1e16, 1e-5, 0.1])
