"""Property tests (hypothesis) for the level-by-level pair-averaging kernel.

``apply_pair_averages`` must equal the sequential per-pair loop byte for
byte on any pair sequence — repeated nodes, chains in which each pair
reads what the previous one wrote, and back-to-back identical pairs —
for scalar ``(n,)`` state and ``(n, k)`` field matrices alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.gossip.pairs import apply_pair_averages

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def pair_sequences(draw):
    """``(n, pairs)``: distinct-node pairs, with chains and repeats."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    pairs = []
    for kind in draw(
        st.lists(st.sampled_from(["pair", "repeat", "chain"]), max_size=40)
    ):
        if kind == "pair" or not pairs:
            pairs.append(draw(st.tuples(node, node).filter(lambda p: p[0] != p[1])))
        elif kind == "repeat":
            pairs.append(pairs[-1])
        else:
            last = pairs[-1][1]
            pairs.append((last, draw(node.filter(lambda v: v != last))))
    return n, pairs


def sequential(values, pairs):
    """The per-pair loop: scalar ``0.5 · (x + y)``, in-place row form."""
    for a, b in pairs:
        if values.ndim == 2:
            row = values[a]
            row += values[b]
            row *= 0.5
            values[b] = row
        else:
            average = 0.5 * (values[a] + values[b])
            values[a] = average
            values[b] = average


@pytest.mark.parametrize("fields", [None, 3], ids=["scalar", "k3"])
@given(case=pair_sequences(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_levels_equal_the_sequential_loop_bytewise(fields, case, data):
    n, pairs = case
    shape = (n,) if fields is None else (n, fields)
    initial = data.draw(arrays(np.float64, shape, elements=finite_values))
    expected = initial.copy()
    sequential(expected, pairs)
    got = initial.copy()
    apply_pair_averages(got, [a for a, _ in pairs], [b for _, b in pairs])
    assert got.tobytes() == expected.tobytes()


def test_integer_arrays_and_empty_blocks():
    values = np.arange(6.0)
    apply_pair_averages(values, np.empty(0, dtype=np.int64), [])
    assert values.tolist() == list(range(6))
    apply_pair_averages(values, np.array([0, 1, 0]), np.array([1, 2, 5]))
    expected = np.arange(6.0)
    sequential(expected, [(0, 1), (1, 2), (0, 5)])
    assert values.tobytes() == expected.tobytes()
