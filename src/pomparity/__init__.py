"""Qualitative analysis of POMDPs with parity objectives.

Decides whether finite-memory almost-sure or positive winning strategies
exist, extracts witnesses and verifies them on the product Markov chain,
projects arbitrary finite-memory strategies onto bounded-memory ones, and
provides the model rewrites connecting parity to Buchi/co-Buchi analysis.
"""

from .model import (BUCHI, COBUCHI, MULLER, PARITY, REACH, SAFE,
                    ContractError, ExactnessError, Objective, ParseError,
                    Pomdp, PomparityError, ResourceLimitError,
                    StructuralError, UnsupportedConversionError, WinningMode,
                    belief_update, make_absorbing, objective_as_parity,
                    validate, validate_objective)
from .chain import (ProductChain, RecFunctions, build_product_chain,
                    compute_rec_functions, dump_chain, evaluate_qualitative,
                    full_product_graph, objective_colors, validate_strategy)
from .strategy import (FiniteMemoryStrategy, MemoryElement, ProjectionGraph,
                       SupportStrategy, build_projection_graph, memory_bound,
                       project_strategy, stationary_strategy, uniform)
from .modelio import (load_fixture, load_model_file, load_strategy_file,
                      parse_model, parse_strategy, save_strategy_file,
                      serialize_model, serialize_strategy)
from .reductions import (ReductionOutput, almost_parity_to_cobuchi,
                         parity_to_three, positive_parity_to_buchi,
                         restrict_strategy, three_to_cobuchi,
                         transfer_strategy)
from .beliefobs import (BeliefObsPomdp, almost_cobuchi_red,
                        is_belief_observation, positive_buchi_red)
from .solve import (DEFAULT_STATE_BUDGET, Decision, allow, almost_buchi,
                    almost_reach, almost_safe, apre, obs_cover, pre,
                    solve_almost_cobuchi_fm, solve_parity_fm,
                    solve_positive_buchi_fm)
from .oracle import OracleResult, enumerate_strategies, oracle_decide
from .cli import cli_main

__version__ = "0.1.0"
