"""flatmc: reachability, repeated reachability, and flat freeze LTL model
checking for one-counter machines with parameterized tests.

Every solver ships an independently re-checkable witness: a parameter
instantiation plus a run or lasso (and, for model checking, the data word it
spells). The package exports the solvers, their witness and machine types,
the formula parser and renderer, the validators and the errors; everything
else is reached through its module.
"""

from flatmc.formulas import FormulaError, parse, render
from flatmc.machines import (
    ClassMismatch,
    Config,
    ConstTest,
    CounterMachine,
    LassoRun,
    MachineError,
    ParamTest,
    Run,
    Transition,
    Update,
    validate_lasso,
    validate_run,
)
from flatmc.reach import ReachWitness, parametric_reach
from flatmc.reductions import (
    BuchiWitness,
    McWitness,
    model_check,
    repeated_reach,
)

__all__ = [
    "BuchiWitness",
    "ClassMismatch",
    "Config",
    "ConstTest",
    "CounterMachine",
    "FormulaError",
    "LassoRun",
    "MachineError",
    "McWitness",
    "ParamTest",
    "ReachWitness",
    "Run",
    "Transition",
    "Update",
    "model_check",
    "parametric_reach",
    "parse",
    "render",
    "repeated_reach",
    "validate_lasso",
    "validate_run",
]
