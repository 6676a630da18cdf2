import math

import numpy as np
import pytest

from colchunk.posenc import encode_batch
from colchunk.types import PatchGrid, grid_coords


def encode_point(dim, x, y):
    """The encoding of one point, as a one-row batch."""
    return encode_batch(dim, np.array([[x, y]]))[0]


class TestConfig:
    def test_dim_must_be_multiple_of_four(self):
        encode_point(4, 0.5, 0.5)
        for bad in (0, 2, 6, 9):
            with pytest.raises(ValueError, match="multiple of 4"):
                encode_point(bad, 0.5, 0.5)


class TestKnownValues:
    def test_origin_pattern(self):
        # sin slots 0, cos slots 1/sqrt(D/2)
        for dim in (4, 8, 64):
            enc = encode_point(dim, 0.0, 0.0)
            expected_cos = 1.0 / math.sqrt(dim / 2)
            assert np.all(enc[0::2] == 0.0)
            np.testing.assert_allclose(enc[1::2], expected_cos, rtol=0, atol=1e-15)

    def test_dim8_center_componentwise(self):
        # dim=8: H=4, frequencies 10000^(0) and 10000^(-1/2) per axis,
        # evaluated by hand at x = y = 0.5, then divided by the exact
        # raw norm sqrt(dim/2) = 2
        enc = encode_point(8, 0.5, 0.5)
        half = [
            math.sin(0.5),
            math.cos(0.5),
            math.sin(0.5 / math.sqrt(10000.0)),
            math.cos(0.5 / math.sqrt(10000.0)),
        ]
        expected = np.array(half + half) / 2.0
        np.testing.assert_allclose(enc, expected, rtol=0, atol=1e-15)

    def test_equal_coords_give_equal_halves(self):
        dim = 16
        for v in (0.0, 0.25, 1.0):
            enc = encode_point(dim, v, v)
            np.testing.assert_array_equal(enc[:8], enc[8:])


class TestInvariants:
    def test_unit_norm_everywhere(self):
        dim = 32
        coords = grid_coords(PatchGrid(rows=17, cols=13))
        enc = encode_batch(dim, coords)
        norms = np.linalg.norm(enc, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_injectivity_on_64x64_lattice(self, dim):
        coords = grid_coords(PatchGrid(rows=64, cols=64))
        enc = encode_batch(dim, coords)
        worst = 0.0
        block = 512
        for start in range(0, enc.shape[0], block):
            sims = enc[start : start + block] @ enc.T
            for local, absolute in enumerate(range(start, min(start + block, enc.shape[0]))):
                sims[local, absolute] = -np.inf
            worst = max(worst, float(sims.max()))
        assert worst < 1.0 - 1e-9

    @pytest.mark.parametrize("dim", [8, 128])
    @pytest.mark.parametrize("anchor", [(0, 0), (16, 16), (31, 5)])
    def test_locality_along_axis_rays(self, dim, anchor):
        grid = PatchGrid(rows=32, cols=32)
        coords = grid_coords(grid)
        enc = encode_batch(dim, coords)
        ar, ac = anchor
        base = enc[ar * 32 + ac]
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            sims = []
            r, c = ar + dr, ac + dc
            while 0 <= r < 32 and 0 <= c < 32:
                sims.append(float(base @ enc[r * 32 + c]))
                r += dr
                c += dc
            for prev, nxt in zip(sims, sims[1:]):
                assert nxt <= prev + 1e-12

    def test_batch_matches_scalar(self):
        dim = 12
        coords = grid_coords(PatchGrid(rows=3, cols=4))
        batch = encode_batch(dim, coords)
        for j, (x, y) in enumerate(coords):
            single = encode_point(dim, x, y)
            np.testing.assert_array_equal(batch[j], single)

    def test_rejects_out_of_range_coords(self):
        dim = 8
        encode_batch(dim, np.array([[0.0, 1.0], [1.0, 0.0]]))
        for bad in ([0.5, 1.5], [1.5, 0.5], [0.5, -0.1], [np.nan, 0.5]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                encode_batch(dim, np.array([[0.5, 0.5], bad]))
