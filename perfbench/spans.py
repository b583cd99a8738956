"""Tracing for the benchmark: spans around calls into each flatmc module,
recorded from outside the program.

`Tracer.install` replaces each listed function by a wrapper in every flatmc
module that imported it, so calls from inside the package are caught too,
and `uninstall` puts the originals back. A span records its name, start, end,
parent span and query id; spans stay in memory until the run ends. Counts are
read from the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Functions that get a span, per module: the entry points of each layer on
# the path of `reach`, `buchi` and `mc`.
SPANNED = {
    "cli": ("main", "build_parser", "cmd_reach", "cmd_buchi", "cmd_mc",
            "cmd_check"),
    "jsonio": ("machine_from_data", "machine_to_data", "witness_from_data",
               "witness_to_data", "run_to_data"),
    "formulas": ("parse", "nnf", "evaluate", "flat_violation", "is_sentence",
                 "rename_registers"),
    "reductions": ("model_check", "succinct_to_unary", "flat_mc_to_buchi",
                   "divergence_context", "buchi_to_reach",
                   "buchi_witness_to_lasso", "lasso_word"),
    "reach": ("parametric_reach", "fold_constants", "default_bound",
              "plain_rep_lasso"),
    "machines": ("validate_run", "validate_lasso", "rep_reach_oracle"),
}
LAYERS = tuple(SPANNED)


def _formula_nodes(phi) -> int:
    """Node count of a formula tree."""
    total, todo = 0, [phi]
    while todo:
        f = todo.pop()
        total += 1
        for attr in ("body", "left", "right"):
            child = getattr(f, attr, None)
            if child is not None:
                todo.append(child)
    return total


def _count_results(counts: Counter, name: str, result) -> None:
    if name == "reach.parametric_reach" and result is not None:
        counts["reach.parametric_reach_hits"] += 1
    elif name == "reductions.divergence_context":
        counts["reductions.divergence_configs"] += len(result.component)
    elif name == "reductions.succinct_to_unary":
        counts["reductions.unary_states"] += len(result.machine.states)
    elif name == "reductions.flat_mc_to_buchi":
        product = result.instance.machine
        counts["reductions.product_states"] += len(product.states)
        counts["reductions.product_transitions"] += len(product.transitions)
        counts["reductions.product_accepting"] += len(result.instance.accepting)
        counts["formulas.encoded_size"] += _formula_nodes(result.formula)


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or None, query id,
        # time covered by direct child spans].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.query = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, clock(), 0.0, parent, self.query, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += end - record[1]
            counts[name + "_calls"] += 1
            _count_results(counts, name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _drawn(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def install(self) -> None:
        import flatmc.cli  # noqa: F401  (loads every module on the path)

        plan = [(f"flatmc.{mod}", fn, self._spanned, f"{mod}.{fn}")
                for mod, fns in SPANNED.items() for fn in fns]
        plan.append(("flatmc.machines", "successors", self._counted,
                     "machines.successors_calls"))
        plan.append(("flatmc.reach", "enumerate_gammas", self._drawn,
                     "reach.instantiations"))
        modules = [m for n, m in sys.modules.items()
                   if n == "flatmc" or n.startswith("flatmc.")]
        for home, fn_name, make, name in plan:
            original = getattr(sys.modules[home], fn_name)
            wrapper = make(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def totals(self) -> tuple[dict, dict]:
        """Per span name: total time (outermost calls of that name only) and
        self time (duration minus the time of direct child spans)."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for name, start, end, parent, _query, children in self.spans:
            own[name] += end - start - children
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                total[name] += end - start
        return total, own

    def outermost(self, names) -> float:
        """Time inside spans named in `names` that have no ancestor named in
        `names`."""
        result = 0.0
        for name, start, end, parent, _query, _children in self.spans:
            if name not in names:
                continue
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] not in names:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                result += end - start
        return result
