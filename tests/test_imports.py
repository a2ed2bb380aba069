"""The package loads lazily: a process imports only the modules it runs.

Each import check runs in a fresh interpreter, since the test session
itself has long since loaded every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qprime

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("qprime.signstats", "qprime.primedetect", "qprime.decompose", "qprime.macmahon")


def loaded_after(code: str) -> set:
    """The names in sys.modules once `code` has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = code + "\nimport sys\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return set(proc.stdout.split())


def test_import_loads_no_subcommand_module():
    loaded = loaded_after("import qprime, qprime.cli")
    assert loaded.isdisjoint(HEAVY + ("dataclasses", "csv"))


def test_expand_loads_only_what_it_runs(tmp_path):
    out = tmp_path / "out.json"
    argv = ["expand", "S16.0", "--precision", "400", "--output", str(out)]
    loaded = loaded_after(f"import qprime.cli\nassert qprime.cli.main({argv!r}) == 0")
    assert loaded.isdisjoint(HEAVY)
    assert {"qprime.formspec", "qprime.forms", "qprime.qseries", "qprime.exactnum"} <= loaded
    assert out.read_text().startswith("{")


@pytest.mark.parametrize(
    "argv",
    [
        ["signstats", "S16.0 - D DELTA", "--bound", "50"],
        ["deligne", "--weight", "16", "--bound", "50"],
        ["decide", "H8", "--bound", "50"],
        ["finite-check", "G4 - G6"],
        ["decompose", "G4 + DELTA"],
        ["macmahon", "--bound", "20"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_subcommands_load_no_dataclasses(tmp_path, argv):
    # their reports are named tuples, and every interpreter has loaded
    # collections by the time it runs main
    out = tmp_path / "out"
    argv = [*argv, "--output", str(out)]
    loaded = loaded_after(f"import qprime.cli\nassert qprime.cli.main({argv!r}) in (0, 1)")
    assert "dataclasses" not in loaded
    assert out.read_text()


def test_macmahon_json_loads_no_csv():
    # csv is imported only to write CSV
    argv = ["macmahon", "--bound", "10"]
    loaded = loaded_after(f"import qprime.cli\nassert qprime.cli.main({argv!r}) == 0")
    assert "qprime.macmahon" in loaded
    assert "csv" not in loaded


def test_every_public_name_resolves():
    for name in qprime.__all__:
        assert getattr(qprime, name) is not None, name
    assert set(qprime.__all__) <= set(dir(qprime))


def test_submodules_resolve_as_attributes():
    # in a fresh interpreter, where no import statement has bound them yet
    loaded = loaded_after("import qprime\nassert qprime.forms.QuasiForm is qprime.QuasiForm")
    assert "qprime.forms" in loaded
    assert "forms" in dir(qprime)


def test_star_import():
    namespace = {}
    exec("from qprime import *", namespace)
    assert {"QuasiForm", "split_eis_cusp", "macmahon_table", "__version__"} <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qprime.no_such_name
