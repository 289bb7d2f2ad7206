"""Multi-stage, multi-customer assortment optimization under inventory constraints.

LP relaxations with dual certificates, dependent randomized rounding, the
attenuation-based online policies, no-repeat permutation policies, column
generation with an MNL FPTAS, and a Monte Carlo verification lab.
"""

from .model import (
    AssortmentFamily,
    CustomerType,
    Instance,
    Item,
    Mnl,
    Product,
    Tabular,
    choice_prob,
    load_instance,
    save_instance,
    split_inventory,
    validate,
)
from .lpcore import LpModel, LpSolution, solve
from .mcdlp import (
    McdlpSolution,
    McdlpVariant,
    MonteCarloEstimate,
    build,
    integralize,
    solve_variant,
    verify_policy_upper_bound,
)
from .rounding import RoundingOutput, gkps_round
from .blackbox import CoinSet, FlipOutcome, f, run_blackbox, w_value
from .attenuate import (
    GammaSchedule,
    estimate_probabilities,
    gamma_schedule,
    h_limit,
    run_algorithm1,
    run_algorithm6,
)
from .norepeat import (
    ALPHA_STAR,
    run_algorithm3,
    run_algorithm3_random_patience,
    run_modified_algorithm3,
)
from .colgen import (
    BruteForceOracle,
    MnlExactOracle,
    MnlFptasOracle,
    column_generate,
    subproblem_bruteforce,
    subproblem_mnl_fptas,
    subproblem_mnl_repeated,
)
from . import simlab

__version__ = "0.1.0"
