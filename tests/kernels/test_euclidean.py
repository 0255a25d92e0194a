"""The one definition of distance, and the Q combine on a stride-0 ``p``.

``repro.kernels.base.euclidean`` spells the sum of squares out as
``(dx*dx + dz*dz) + dy*dy``.  The golden traces were recorded with
numpy's ``einsum`` reducing the difference tensor, so these properties
pin the helper to both einsum forms the code used (``ijk,ijk->ij`` for
blocks, ``ij,ij->i`` for pairs) bit for bit, across magnitudes, signs
and exact zeros.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends, backend_names, get_backend
from repro.kernels.base import euclidean

#: Per-axis coordinate magnitudes; mixing them across axes is what makes
#: a different summation order show up in the last bit.
MAGNITUDES = st.sampled_from([1e-3, 1e-2, 0.5, 1.0, 37.0, 300.0, 1e3, 1e4])


@st.composite
def clouds(draw):
    """Two position sets with signed coordinates, per-axis magnitudes,
    and a prefix of coincident points (exact zero distances)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    scale = np.array([draw(MAGNITUDES) for _ in range(3)])
    src = rng.uniform(-1.0, 1.0, (n, 3)) * scale
    dst = rng.uniform(-1.0, 1.0, (m, 3)) * scale
    same = draw(st.integers(0, min(n, m)))
    dst[:same] = src[:same]
    return src, dst


class TestPinnedToEinsum:
    @given(cloud=clouds())
    @settings(max_examples=200, deadline=None)
    def test_block_equals_einsum_ijk(self, cloud):
        src, dst = cloud
        diff = dst[None, :, :] - src[:, None, :]
        want = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        got = euclidean(src[:, None, :], dst[None, :, :])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(cloud=clouds())
    @settings(max_examples=200, deadline=None)
    def test_pairs_equal_einsum_ij(self, cloud):
        src, dst = cloud
        k = min(len(src), len(dst))
        diff = dst[:k] - src[:k]
        want = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        assert euclidean(src[:k], dst[:k]).tobytes() == want.tobytes()

    def test_coincident_points_are_exact_zero(self):
        pts = np.array([[0.0, 0.0, 0.0], [-3.5, 1e4, -1e-3]])
        np.testing.assert_array_equal(euclidean(pts, pts), [0.0, 0.0])

    def test_backend_kernels_are_euclidean(self):
        bk = get_backend("numpy")
        rng = np.random.default_rng(3)
        src = rng.uniform(-50, 50, (9, 3))
        dst = rng.uniform(-50, 50, (4, 3))
        assert (
            bk.distance_block(src, dst).tobytes()
            == euclidean(src[:, None, :], dst[None, :, :]).tobytes()
        )
        assert (
            bk.distance_pairs(src[:4], dst).tobytes()
            == euclidean(src[:4], dst).tobytes()
        )


@pytest.mark.parametrize("name", backend_names())
@pytest.mark.parametrize("shared_cost", [False, True])
def test_expected_q_stride0_p_equals_materialised(name, shared_cost):
    """The shared link estimator hands ``expected_q`` a stride-0 view of
    one row; every backend must score it exactly like the copied block."""
    if name not in available_backends():
        pytest.skip(f"backend {name!r} is not installed")
    bk = get_backend(name)
    rng = np.random.default_rng(11)
    n, m = 13, 6
    row = rng.uniform(0.0, 1.0, m)
    p_view = np.broadcast_to(row, (n, m))
    assert p_view.strides[0] == 0
    args = (
        rng.uniform(0, 5, (n, m)), rng.uniform(0, 1, n), rng.uniform(0, 1, m),
        np.arange(m) == m - 1, rng.normal(0, 1, m), rng.normal(0, 1, n),
    )
    params = dict(
        g=0.1, alpha1=0.6, alpha2=0.4, beta1=0.5,
        beta2=0.4 if shared_cost else 0.7, bs_penalty=60.0, gamma=0.9,
    )
    q_view, v_view = bk.expected_q(p_view, *args, **params)
    q_copy, v_copy = bk.expected_q(np.ascontiguousarray(p_view), *args, **params)
    assert q_view.tobytes() == q_copy.tobytes()
    assert v_view.tobytes() == v_copy.tobytes()
