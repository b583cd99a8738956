"""Tests for the package namespace: its exports resolve on first use, and a
command loads only the modules it runs."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import flatmc
from flatmc import formulas

SRC = pathlib.Path(flatmc.__file__).resolve().parents[1]

# Defines `ran()`, the flatmc modules that have run their code. A module
# loaded lazily holds only what its spec set until it runs, and is read
# without an attribute access, which would run it.
PRELUDE = """\
import json, sys

def ran():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("flatmc")
                  and "__builtins__" in object.__getattribute__(module,
                                                                "__dict__"))

"""


def _fresh(code: str, *argv: str):
    """The JSON value that `code`, run after PRELUDE in a fresh interpreter
    with `argv`, prints on its last line."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code, *argv],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(proc.stdout.splitlines()[-1])


class TestExports:
    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from flatmc import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(flatmc.__all__)

    @pytest.mark.parametrize("name", flatmc.__all__)
    def test_each_export_is_its_home_modules_object(self, name):
        value = getattr(flatmc, name)
        assert vars(sys.modules[value.__module__])[name] is value

    def test_formula_error_is_the_one_formulas_raises(self):
        assert flatmc.FormulaError is formulas.FormulaError
        with pytest.raises(flatmc.FormulaError):
            formulas.parse("((")

    def test_dir_lists_every_export(self):
        assert set(flatmc.__all__) <= set(dir(flatmc))

    def test_an_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'solve'"):
            flatmc.solve  # noqa: B018

    def test_exports_resolve_in_a_fresh_process(self):
        # `import flatmc` runs the package alone; `from flatmc import *`
        # then runs every module it exports from, and binds every name.
        before, after, unbound = _fresh(
            "import flatmc\n"
            "before = ran()\n"
            "from flatmc import *\n"
            "print(json.dumps([before, ran(),"
            " [n for n in flatmc.__all__ if n not in globals()]]))")
        assert before == ["flatmc"]
        assert after == ["flatmc", "flatmc.formulas", "flatmc.machines",
                         "flatmc.reach", "flatmc.reductions"]
        assert unbound == []


class TestLoading:
    def test_reach_runs_neither_formulas_nor_reductions(self, tmp_path):
        machine = tmp_path / "m.json"
        machine.write_text(json.dumps({
            "states": ["q", "q2"], "initial": "q", "params": ["x"],
            "transitions": [{"from": "q", "op": "+1", "to": "q"},
                            {"from": "q", "op": "=x:x", "to": "q2"}]}))
        code, ran, loaded = _fresh(
            "import flatmc.cli\n"
            "code = flatmc.cli.main(['reach', sys.argv[1], '--target', 'q2',"
            " '--bound', '3', '--json'])\n"
            "print(json.dumps([code, ran(), sorted(sys.modules)]))",
            str(machine))
        assert code == 0
        assert ran == ["flatmc", "flatmc.cli", "flatmc.jsonio",
                       "flatmc.machines", "flatmc.reach"]
        # Both are in sys.modules, to run on first use.
        assert {"flatmc.formulas", "flatmc.reductions"} <= set(loaded)
        assert "flatmc.alternating" not in loaded
