"""Information measures, solvers, and coding tools built on synonymous partitions.

A synonymous partition groups the symbols of a finite alphabet into blocks
that carry one meaning each.  Entropies, mutual-information companions,
capacity and rate-distortion solvers, Huffman-style source codes, grouped
channel codes, typical-set checks, and Gaussian closed forms all follow from
that single primitive.
"""

from .core import (
    ChannelModel,
    Distribution,
    JointDistribution,
    JointSynonymousPartition,
    SynonymousPartition,
    induced_semantic_distribution,
    induced_semantic_joint,
    marginals,
    validate_distribution,
    validate_partition,
)
from .measures import (
    conditional_entropy,
    down_smi,
    entropy,
    full_smi,
    joint_entropy,
    mutual_information,
    semantic_conditional_entropy,
    semantic_entropy,
    semantic_joint_entropy,
    semantic_relative_entropy,
    up_smi,
)
from .optimize import (
    CapacityResult,
    RateDistortionResult,
    SemanticDistortionMatrix,
    blahut_arimoto_capacity,
    blahut_arimoto_rd,
    expected_semantic_distortion,
    hamming_distortion,
    jscc_feasible,
    maximize_up_smi,
    semantic_capacity,
    semantic_rate_distortion,
)
from .srccode import (
    SemanticPrefixCode,
    average_length,
    build_semantic_huffman,
    decode_sequence,
    encode_sequence,
    optimal_length_bounds,
    semantic_kraft_check,
)
from .chancode import (
    AwgnConfig,
    GroupedCodebook,
    SimulationResult,
    build_grouped_codebook,
    classic_distance_spectrum,
    codeword_to_group_distance,
    coset_groups,
    gep_union_bound,
    group_hamming_distance,
    min_group_hamming_distance,
    ml_decode,
    mlg_decode,
    simulate_awgn,
    simulate_awgn_sweep,
    singleton_codebook,
)
from .typicality import (
    TypicalityReport,
    enumerate_typical_sets,
    estimate_joint_typicality,
    is_semantically_typical,
    is_synonymous_typical,
)
from .gaussian import (
    bandlimited_semantic_capacity,
    emit_curves,
    gaussian_semantic_capacity,
    gaussian_semantic_entropy,
    gaussian_semantic_rd,
    min_energy_per_sebit,
    spectral_efficiency,
    uniform_semantic_entropy,
)

__version__ = "0.1.0"
