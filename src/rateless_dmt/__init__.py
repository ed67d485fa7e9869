"""Diversity-multiplexing tradeoff of rateless codes over block fading.

Exact rational tradeoff curves, a Monte Carlo engine for the rateless
stopping protocol over Rayleigh MIMO channels, permutation codes with
sequential ML prefix decoding, and a CLI that reproduces the curves and
runs the verification suite.
"""

from .configs import RatelessConfig
from .permcode import (
    Constellation,
    PermutationCode,
    build_qam,
    identity_code,
    load_codebook,
    prefix_min_products,
    run_rateless_code_trials,
    save_codebook,
    search_permutation_code,
)
from .simulate import (
    SnrPoint,
    diversity_slope,
    effective_rate,
    outage_record,
    rank_one_outage,
    run_rateless_experiment,
)
from .tradeoff import (
    DmtCurve,
    GainPoint,
    default_r_n_grid,
    dmt_curves,
    rateless_segment,
    tradeoff_f,
)

__version__ = "0.1.0"
