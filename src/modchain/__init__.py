"""Representations of powers of 3 as sums of n distinct powers of 2 (and the
mirror problem) via congruence solving along a chain of moduli."""

from .chains import (
    Chain,
    ChainFile,
    ChainStep,
    bundled_chain,
    bundled_chain_text,
    direction_bases,
    load_chain_file,
    parse_chain_file,
)
from .errors import (
    BaseModulusTooLarge,
    ChainExhausted,
    FactorizationNeeded,
    InvalidInput,
    MemoryBudgetExceeded,
    ModchainError,
    NotCoprime,
    NotDivisible,
    PreconditionViolated,
    UnbalancedInapplicable,
)
from .modcore import (
    CycleShape,
    FactoredModulus,
    crt_pair,
    cycle_shape,
    modified_orders,
    multiplicative_order,
)
from .dlog import (
    DlogResult,
    PrimeDlog,
    log2_mod_3v,
    log3_mod_2u,
    power_membership,
    prime_context,
)
from .solver import (
    ExactSolution,
    LiftPlan,
    ProblemSpec,
    Progression,
    RunReport,
    SolutionModM,
    SolverConfig,
    StepStats,
    bit_count_table,
    compute_lift_plan,
    enumerate_base_solutions,
    lift_balanced,
    lift_progression,
    lift_unbalanced,
    make_solution,
    modular_solutions,
    solve_chain,
)

__version__ = "0.1.0"

# The chain planner is a separate tool that no solve calls, so its names load
# it on first access (PEP 562) rather than on `import modchain`.
_PLANNER = frozenset({
    "ChainValidation",
    "ExtraneousWitness",
    "FactorCandidate",
    "HazardEntry",
    "StepDiagnostics",
    "construct_extraneous",
    "search_factors",
    "step_diagnostics",
    "validate_chain",
})


def __getattr__(name: str):
    if name in _PLANNER:
        from . import planner

        return getattr(planner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BaseModulusTooLarge",
    "Chain",
    "ChainExhausted",
    "ChainFile",
    "ChainStep",
    "ChainValidation",
    "CycleShape",
    "DlogResult",
    "ExactSolution",
    "ExtraneousWitness",
    "FactorCandidate",
    "HazardEntry",
    "FactoredModulus",
    "FactorizationNeeded",
    "InvalidInput",
    "LiftPlan",
    "MemoryBudgetExceeded",
    "ModchainError",
    "NotCoprime",
    "PreconditionViolated",
    "NotDivisible",
    "PrimeDlog",
    "ProblemSpec",
    "Progression",
    "RunReport",
    "SolutionModM",
    "SolverConfig",
    "StepDiagnostics",
    "StepStats",
    "UnbalancedInapplicable",
    "bit_count_table",
    "bundled_chain",
    "bundled_chain_text",
    "compute_lift_plan",
    "construct_extraneous",
    "crt_pair",
    "cycle_shape",
    "enumerate_base_solutions",
    "lift_balanced",
    "lift_progression",
    "lift_unbalanced",
    "direction_bases",
    "load_chain_file",
    "log2_mod_3v",
    "log3_mod_2u",
    "modified_orders",
    "make_solution",
    "modular_solutions",
    "multiplicative_order",
    "parse_chain_file",
    "power_membership",
    "prime_context",
    "search_factors",
    "solve_chain",
    "step_diagnostics",
    "validate_chain",
]
