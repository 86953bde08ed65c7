"""Occupation-measure LP toolkit for singularly controlled 1-d diffusions.

Pipeline: define a problem (model/problems), discretize the measure LP on
an atom grid with a B-spline test basis (basis/discretize), solve it with a
dense two-phase revised simplex (simplex), extract a feedback policy from
the optimal weights (policy), and verify by Monte Carlo simulation plus an
independent band-policy oracle (verify).  The cli module ties it together.
"""
from .basis import BasisFamily, C2Function, CubicBSpline, constant_one
from .discretize import (NORMALIZED, RESCALED, DiscreteLP, Grid, GridError,
                         assemble_discounted_lp, assemble_lta_lp, build_grid,
                         constraint_residual)
from .model import (DISCOUNTED, GRADIENT, JUMP, LONG_TERM_AVERAGE, Budget,
                    ControlSpace, CostSpec, Criterion, DomainError, GeneratorA,
                    GeneratorB, ProblemSpec, StateSpace, ValidationReport,
                    validate_conditions)
from .policy import (FeedbackPolicy, Kernel, MeasurePair,
                     boundary_mass_diagnostic, extract_strict,
                     marginals_and_kernels)
from .problems import (BUILTIN_PROBLEMS, ProblemFileError, finite_fuel_problem,
                       inventory_problem, load_problem)
from .simplex import (INFEASIBLE, ITER_LIMIT, NUMERICAL, OPTIMAL, UNBOUNDED,
                      LPSolution, SingularBasisError, export_mps, parse_mps,
                      solve)
from .verify import (BandCost, BandPolicy, OracleEstimate, SimConfig,
                     SimulationError, VerificationReport, band_policy_oracle,
                     band_search, exact_band_cost, exact_optimal_band, simulate)

__version__ = "0.1.0"
