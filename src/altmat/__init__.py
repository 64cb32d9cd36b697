"""Recursive (0,1)-matrix families, incidence structure, isodual codes, encoder."""

from .bitmatrix import (
    BitMatrix,
    exact_rank,
    flip_transpose,
    gf2_matvec,
    gf2_mul,
    gf2_rank,
    gf2_solve,
)
from .codes import (
    CodePair,
    GleasonFit,
    IsodualWitness,
    WeightEnumerator,
    ZeroCodeError,
    distance_bound,
    gleason_fit,
    is_parity_check,
    isodual_witness,
    make_code,
    weight_enumerator,
)
from .encoder import (
    Encoder,
    GapSystemInconsistent,
    encode,
    make_encoder,
    split_sizes,
    verify_codeword,
    verify_codewords,
)
from .families import Fragmentation, build_a, build_b, dims_of, fragment_a
from .formats import MatrixParseError, export_matrix, import_matrix
from .incidence import (
    BlockReport,
    bipartite_isomorphism,
    build_l_oracle,
    build_m,
    decompose_blocks,
    inclusion_matrix,
    permutation_equivalent,
    symplectic_pairs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
