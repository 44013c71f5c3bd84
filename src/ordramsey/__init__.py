"""Executable, certificate-producing searches for ordered Ramsey structure.

The package splits into small layers: core value types, the file formats,
greedy and exact embedding, skeleton extraction, the sparse-set and
copy-finding pipeline, tournament constructions, and a CLI that emits and
re-verifies JSON certificates for all of it.
"""

from .core import (
    Color,
    ColoredCompleteGraph,
    Digraph,
    OrderedGraph,
    Tournament,
    class_density,
    color_class,
    degeneracy,
    density_between,
    density_within,
    ordered_pair_from_digraph,
    remove_isolated,
)
from .embed import (
    Embedding,
    SlotSystem,
    SparsePair,
    count_embeddings,
    find_ordered_embedding,
    greedy_embed_or_sparse_pair,
    skeleton_embed_or_sparse_pair,
    verify_embedding,
)
from .errors import (
    DomainError,
    GenerationError,
    InternalContractError,
    OrdRamseyError,
    ParameterError,
    ParseError,
    TupleCapError,
)
from .io import (
    load_path,
    parse_dg,
    parse_og,
    parse_okc,
    parse_trn,
    save_path,
    write_dg,
    write_og,
    write_okc,
    write_trn,
)
from .pipeline import (
    Exhausted,
    MonoCopy,
    PipelineParams,
    RecursionParams,
    SparseSet,
    binary_tree_sparse,
    exact_ordered_ramsey,
    find_good_coloring,
    find_mono_copy,
    recursive_sparse_set,
    split_pattern,
    verify_mono_copy,
    verify_sparse_set,
)
from .skeleton import (
    CliqueTupleIndex,
    Skeleton,
    SkeletonReport,
    build_clique_tuple_index,
    es_bound,
    es_clique_or_independent,
    expand_clique_tuples,
    find_skeleton_from_cliques,
    find_skeleton_in_dense,
    sample_color_cliques,
    verify_skeleton,
)
from .constructions import (
    BlowupTournament,
    BucketReport,
    InjectionResult,
    Subdivision,
    blowup,
    build_subdivision_S,
    contains_subdivision,
    find_transitive_subtournament,
    iterated_lower_bound_tournament,
    lower_bound_parameters,
    random_tournament_avoiding,
    verify_bucket_claims,
    verify_subdivision_copy,
)
from .certificates import decode_certificate, encode_certificate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
