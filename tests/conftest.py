import struct

import numpy as np
import pytest

from colchunk.types import PatchEmbeddingSet, PatchGrid

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # The same examples on every run, with no wall-clock deadline and no
    # example database, so tier-1 and CI results do not depend on history.
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_pset(rng, rows=4, cols=4, dim=8, doc_id="doc"):
    grid = PatchGrid(rows=rows, cols=cols)
    vectors = rng.normal(size=(grid.n_patches, dim))
    return PatchEmbeddingSet(doc_id=doc_id, dim=dim, grid=grid, vectors=vectors)


def with_trailer(blob: bytes, trailer: bytes) -> bytes:
    """An index file image with its metadata trailer replaced."""
    old_len = struct.unpack("<Q", blob[-8:])[0]
    return blob[: -8 - old_len] + trailer + struct.pack("<Q", len(trailer))
