"""SeededOrder's block draw stream against a scalar xorshift64* reference.

The order makes its tiebreaks in numpy blocks (see the
:class:`~repro.simkernel.SeededOrder` docstring); every draw must equal,
bit for bit, what the one-state-at-a-time generator below returns.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import derive_seed
from repro.simkernel import Environment, SeededOrder
from repro.simkernel.core import _BLOCK

_MASK = (1 << 64) - 1
_MIX = 0x2545F4914F6CDD1D
_GOLDEN = 0x9E3779B97F4A7C15


def reference(seed: int, n: int) -> list[float]:
    """The first ``n`` draws of the scalar xorshift64* stream of ``seed``."""
    x = (seed ^ _GOLDEN) & _MASK or _MIX
    out = []
    for _ in range(n):
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        x = x or _GOLDEN
        out.append(((x * _MIX) & _MASK) / float(1 << 64))
    return out


#: ``derive_seed(0, 0)`` is 0, the FIFO baseline, which draws nothing.
SEEDS = list(dict.fromkeys([1, (1 << 63) - 1, _GOLDEN] + [
    derive_seed(base, i) for base in (0, 11) for i in range(8) if base or i
]))


def take(order: SeededOrder, n: int) -> list[float]:
    return [order.tiebreak(None) for _ in range(n)]  # type: ignore[arg-type]


class TestBlockStream:
    def test_golden_seed_falls_back_to_mix(self):
        assert SeededOrder(_GOLDEN)._state == _MIX

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_block_edges_match_reference(self, seed, n):
        assert take(SeededOrder(seed), n) == reference(seed, n)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_long_stream_matches_reference(self, seed):
        assert take(SeededOrder(seed), 100_000) == reference(seed, 100_000)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=(1 << 64) - 1),
        n=st.integers(min_value=1, max_value=3 * _BLOCK + 7),
    )
    def test_random_seeds_match_reference(self, seed, n):
        assert take(SeededOrder(seed), n) == reference(seed, n)

    def test_seed_zero_draws_nothing_ahead(self):
        order = SeededOrder(0)
        assert take(order, _BLOCK + 1) == [0.0] * (_BLOCK + 1)
        assert order._block == []


class TestEnvironmentDraws:
    def test_tiebreak_and_environment_interleave(self):
        """Both consumers pop one stream: the scheduler's tiebreaks and
        direct ``tiebreak()`` calls together read the reference order."""
        seed = derive_seed(11, 3)
        order = SeededOrder(seed)
        env = Environment(order=order)
        got = []
        for i in range(3 * _BLOCK):
            if i % 3 == 0:
                got.append(order.tiebreak(None))  # type: ignore[arg-type]
            else:
                got.append(env.timeout(1.0)._key)
        assert got == reference(seed, 3 * _BLOCK)

    @pytest.mark.parametrize("seed", [1, derive_seed(0, 5), _GOLDEN])
    def test_same_time_timeouts_pop_in_reference_heap_order(self, seed):
        env = Environment(order=SeededOrder(seed))
        fired: list[int] = []
        for i in range(300):
            env.timeout(1.0, value=i).callbacks.append(
                lambda ev: fired.append(ev.value)
            )
        env.run()
        keys = reference(seed, 300)
        heap = [(1.0, 1, keys[i], i + 1, i) for i in range(300)]
        heapq.heapify(heap)
        assert fired == [heapq.heappop(heap)[-1] for _ in range(300)]
