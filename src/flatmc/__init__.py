"""flatmc: reachability, repeated reachability, and flat freeze LTL model
checking for one-counter machines with parameterized tests.

Every solver ships an independently re-checkable witness: a parameter
instantiation plus a run or lasso (and, for model checking, the data word it
spells). The package exports the solvers, their witness and machine types,
the formula parser and renderer, the validators and the errors; everything
else is reached through its module.

Exports resolve on first use, so `import flatmc` loads no solver. The
modules `flatmc.formulas` and `flatmc.reductions` are in `sys.modules` from
the start but run their code only on first attribute access: a command that
never reads them, such as `flatmc reach`, never compiles them.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The submodule `name`, registered to run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


formulas = _lazy("formulas")
reductions = _lazy("reductions")

# Each exported name, by the module that defines it.
_HOMES = {
    "formulas": ("parse", "render"),
    "machines": ("ClassMismatch", "Config", "ConstTest", "CounterMachine",
                 "FormulaError", "LassoRun", "MachineError", "ParamTest",
                 "Run", "Transition", "Update", "validate_lasso",
                 "validate_run"),
    "reach": ("ReachWitness", "parametric_reach"),
    "reductions": ("BuchiWitness", "McWitness", "model_check",
                   "repeated_reach"),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An exported name, read from its module on first use and kept."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
