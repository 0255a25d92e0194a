"""Blocked distance path: bit-identity to the unblocked kernel.

``distance_block_blocked`` is a *memory* knob — it chunks the sender
axis so the transient block never exceeds the declared MiB budget —
and must never be a *numeric* one: every chunking (including budgets
that do not divide the sender count, degenerate one-row blocks, and
no budget at all) has to reproduce the unblocked kernel bit for bit.
"""

import numpy as np
import pytest

from repro.kernels import get_backend

#: Budgets chosen so the row chunk lands on 1, a non-divisor, a
#: divisor, larger-than-n, and the unblocked passthrough.
BUDGETS = (1e-7, 1e-4, 1e-3, 64.0, None)


@pytest.fixture(params=["numpy"])
def backend(request):
    return get_backend(request.param)


@pytest.fixture
def cloud(rng):
    return rng.random((57, 3)) * 200.0


@pytest.mark.parametrize("budget", BUDGETS)
def test_blocked_matches_unblocked_bitwise(backend, cloud, budget):
    src, dst = cloud, cloud[:11]
    ref = backend.distance_block(src, dst)
    out = backend.distance_block_blocked(src, dst, budget)
    np.testing.assert_array_equal(out, ref)
    assert out.dtype == np.float64


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("shape", [(0, 3), (1, 3)])
def test_degenerate_sender_sets(backend, cloud, budget, shape):
    src = np.zeros(shape)
    out = backend.distance_block_blocked(src, cloud[:5], budget)
    assert out.shape == (shape[0], 5)
    np.testing.assert_array_equal(out, backend.distance_block(src, cloud[:5]))


@pytest.mark.parametrize("budget", BUDGETS)
def test_empty_target_set(backend, cloud, budget):
    out = backend.distance_block_blocked(cloud, cloud[:0], budget)
    assert out.shape == (57, 0)


@pytest.mark.parametrize("budget", (1e-7, 1e-3, None))
def test_strided_views_match_contiguous(backend, cloud, budget):
    """Fancy-indexed and sliced (non-contiguous) inputs — the shapes the
    engine actually passes — must not change the bits."""
    src_view = cloud[::2]
    dst_view = cloud[1::3]
    assert not src_view.flags.c_contiguous
    ref = backend.distance_block(
        np.ascontiguousarray(src_view), np.ascontiguousarray(dst_view)
    )
    out = backend.distance_block_blocked(src_view, dst_view, budget)
    np.testing.assert_array_equal(out, ref)


def test_single_pair(backend):
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 12.0]])
    out = backend.distance_block_blocked(a, b, 1e-7)
    np.testing.assert_array_equal(out, np.array([[13.0]]))


def test_one_row_chunks_cover_every_sender(backend, cloud):
    """A budget below one row's footprint degrades to row-at-a-time
    chunking (never zero-row starvation) and still covers everything."""
    dst = cloud[:7]
    out = backend.distance_block_blocked(cloud, dst, 1e-9)
    np.testing.assert_array_equal(out, backend.distance_block(cloud, dst))
