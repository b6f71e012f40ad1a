"""``SeededRng`` draws exactly what ``random.Random`` draws on its seed."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import SeededRng


def stdlib_twin(seed: int, stream: str) -> random.Random:
    """The ``random.Random`` a ``SeededRng(seed, stream)`` is derived from."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


#: ``None`` draws ``random()``; ``(a, width)`` draws ``randint(a, a + width)``;
#: a bare ``n`` draws ``randbelow(n)`` (the stdlib's ``randrange(n)``) —
#: widths from one value to far past 2**64 (several ``getrandbits`` words)
_WIDTH = st.one_of(st.integers(0, 20), st.integers(0, 2**80))
_DRAW = st.one_of(
    st.none(),
    st.tuples(st.integers(-(10**9), 10**9), _WIDTH),
    _WIDTH.map(lambda width: width + 1),
)


class TestSeededRng:
    @given(st.integers(0, 2**32), st.text(max_size=8), st.lists(_DRAW, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_interleaved_draws_equal_stdlib(self, seed, stream, draws):
        ours, theirs = SeededRng(seed, stream), stdlib_twin(seed, stream)
        for draw in draws:
            if draw is None:
                assert ours.random() == theirs.random()
            elif isinstance(draw, int):
                assert ours.randbelow(draw) == theirs.randrange(draw)
            else:
                a, width = draw
                assert ours.randint(a, a + width) == theirs.randint(a, a + width)

    def test_empty_range_raises_like_stdlib_and_draws_nothing(self):
        ours, theirs = SeededRng(7, "w"), stdlib_twin(7, "w")
        with pytest.raises(ValueError):
            theirs.randint(5, 4)
        with pytest.raises(ValueError):
            ours.randint(5, 4)
        assert ours.randint(0, 9) == theirs.randint(0, 9)
