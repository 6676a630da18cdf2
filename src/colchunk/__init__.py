"""Patch-embedding compression and late-interaction retrieval toolkit."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .chunker import (  # noqa: E402
    ChunkerConfig,
    cluster_hac,
    cluster_kmeans,
    compress,
    compress_ks,
    compress_many,
    cut_linkage,
    fuse,
    pool,
)
from .posenc import encode_batch  # noqa: E402
from .scorer import ScoredHit, maxsim, retrieve, retrieve_many  # noqa: E402
from .store import (  # noqa: E402
    BuildMeta,
    CorpusIndex,
    IndexFormatError,
    ManifestError,
    ingest_dump,
    ingest_queries,
    read_index,
    write_embedding_dump,
    write_index,
    write_query_dump,
)
from .types import (  # noqa: E402
    ChunkAssignment,
    CompressedDocument,
    FusedFeatureSet,
    PatchEmbeddingSet,
    PatchGrid,
    QueryEmbeddingSet,
    grid_coords,
)

# Every name imported above, without the submodules the imports bind.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
