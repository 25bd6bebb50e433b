"""Package hygiene: no module imports a name it never uses, reads the
process environment or imports scipy, only `laplace` and `simulator` import
numpy when they load, and the closed-form commands run without it, the
benchmark worker's set-up loads neither the thread pool nor numpy's random
generators and a FastChi2 `simulate` loads neither, only the
link model and the simulator read the link budget's linear gains, only the
link model names its config loader, the CLI computes no closed form, only
`analytic` computes the first-order outage model, the CLI reads no other
module's private name, every name an `__all__` lists resolves and is
defined in that module, every name one module uses of another is in that
module's `__all__`, and the package root imports nothing."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tiernet
from tiernet import linkmodel, sensing, specfun

MODULES = sorted(info.name for info in pkgutil.iter_modules(tiernet.__path__))
ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
LINK_GAINS = {"a_c", "a_fc", "a_fi", "a_cf", "a_ff"}
# linkmodel's JSON config loader, which every config dataclass there shares
CONFIG_LOADER = {"_JsonConfig", "_check_fields"}
# what the first-order outage model is computed from, which only `analytic`
# (and `specfun`, which defines the special functions) reads
OUTAGE_MODEL = {"inv_reg_inc_beta", "reg_inc_beta", "shot_noise_c_f"}


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module
    reads; `__future__` imports and names listed in `__all__` are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def test_unused_import_detector():
    source = "import math\nimport os\nfrom enum import Enum\nx = math.pi\n"
    assert _unused_imports(source) == ["line 2: os", "line 3: Enum"]
    assert _unused_imports("from . import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    path = Path(tiernet.__path__[0]) / f"{module}.py"
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _environment_reads(source: str) -> list[str]:
    """Uses of the process environment through `os`: attribute reads such as
    `os.environ` and `from os import getenv`-style imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENV_NAMES
        ):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"line {node.lineno}: from os import {alias.name}"
                for alias in node.names
                if alias.name in ENV_NAMES
            ]
    return found


def test_environment_read_detector():
    source = "import os\nfrom os import getenv\nn = os.environ.get('N')\nos.cpu_count()\n"
    assert _environment_reads(source) == ["line 2: from os import getenv", "line 3: os.environ"]


def test_no_module_reads_the_environment():
    """Behaviour is set by arguments and config documents only: an
    environment variable would be a knob that no CLI option or config key
    shows."""
    found = [
        f"{path.name} {use}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        for use in _environment_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def _import_time_nodes(tree: ast.Module):
    """The nodes that run when the module is imported: every node but those
    inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _package_imports(source: str, package: str, import_time: bool = False) -> list[str]:
    """Import statements that bind `package` or any of its submodules, in
    line order; with `import_time`, only those that run when the module is
    imported."""
    tree = ast.parse(source)
    found = []
    for node in _import_time_nodes(tree) if import_time else ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] == package]
    return [f"line {line}: {m}" for line, m in sorted(found)]


def test_scipy_import_detector():
    source = (
        "import numpy\nimport scipy.special as sp\nfrom scipy import stats\n"
        "from . import scipyish\n"
    )
    assert _package_imports(source, "scipy") == ["line 2: scipy.special", "line 3: scipy"]


def test_import_time_detector():
    source = (
        "import numpy as np\nfrom numpy.linalg import inv\ndef f():\n    import numpy\n"
        "class C:\n    import numpy.random\nif True:\n    from numpy import pi\n"
    )
    assert _package_imports(source, "numpy", import_time=True) == [
        "line 1: numpy", "line 2: numpy.linalg", "line 6: numpy.random", "line 8: numpy",
    ]
    assert _package_imports(source, "numpy")[2] == "line 4: numpy"


def test_no_module_imports_scipy():
    """The runtime dependencies are numpy and click; scipy is a test oracle.
    Importing scipy.special alone costs about 0.3 s, more than the whole CLI."""
    found = [
        f"{path.name} {use}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        for use in _package_imports(path.read_text(encoding="utf-8"), "scipy")
    ]
    assert found == []


def test_only_laplace_and_simulator_import_numpy():
    """The closed forms compute with `math` alone: numpy loads with the
    Monte Carlo modules, and `specfun.chi2_cdf` imports it for its arrays
    only when called."""
    found = [
        f"{path.name} {use}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        if path.stem not in ("laplace", "simulator")
        for use in _package_imports(path.read_text(encoding="utf-8"), "numpy", import_time=True)
    ]
    assert found == []


# code run in a fresh interpreter, after which numpy must not be loaded
NUMPY_FREE_RUNS = {
    "analytic": "from tiernet import cli\n"
                "cli.main(['analytic', '--sweep', 'D:0.2:1:3'], standalone_mode=False)",
    "sensing": "from tiernet import cli\n"
               "cli.main(['sensing', '--sweep', 'D:0.2:1:3'], standalone_mode=False)",
    "imports": "import tiernet.linkmodel, tiernet.analytic, tiernet.sensing, tiernet.specfun",
}


# code run in a fresh interpreter, and the modules it must leave unloaded:
# the benchmark worker's set-up loads neither the thread pool (which pulls in
# `logging`) nor numpy's random generators, and a FastChi2 `simulate` draws
# nothing and runs no KS check, so it loads neither of them either; it and
# `validate` build the Legendre rule by recurrence, without numpy.polynomial
LAZY_IMPORT_RUNS = {
    "bench-setup": ("import tiernet.cli, tiernet.simulator",
                    ["concurrent.futures", "numpy.random"]),
    "fastchi2-simulate": ("from tiernet import cli\n"
                          "cli.main(['simulate', '--sweep', 'D:0.4:1:2'], standalone_mode=False)",
                          ["concurrent.futures", "numpy.random", "numpy.polynomial"]),
    "validate": ("from tiernet import cli\ncli.main(['validate'], standalone_mode=False)",
                 ["numpy.polynomial"]),
}


def _loaded_after(code: str, modules: list[str]) -> list[str]:
    """Those of modules that a fresh interpreter has loaded after running code."""
    src = str(Path(tiernet.__path__[0]).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    code += f"\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return ast.literal_eval(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("run", sorted(NUMPY_FREE_RUNS))
def test_closed_forms_load_no_numpy(run):
    """`tiernet analytic` and `tiernet sensing` start and run without
    importing numpy, which costs about as much as the rest of their start-up."""
    assert _loaded_after(NUMPY_FREE_RUNS[run], ["numpy"]) == []


@pytest.mark.parametrize("run", sorted(LAZY_IMPORT_RUNS))
def test_lazy_imports_stay_unloaded(run):
    """What is imported only where it is used stays unloaded until then."""
    code, modules = LAZY_IMPORT_RUNS[run]
    assert _loaded_after(code, modules) == []


def _loader_uses(source: str) -> list[str]:
    """Imports and attribute reads of a CONFIG_LOADER name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name in CONFIG_LOADER
            ]
        elif isinstance(node, ast.Attribute) and node.attr in CONFIG_LOADER:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_loader_use_detector():
    source = (
        "from .linkmodel import SystemParams, _JsonConfig\n"
        "linkmodel._check_fields(cfg)\nx = _check_levels_db\n"
    )
    assert _loader_uses(source) == ["line 1: import _JsonConfig", "line 2: ._check_fields"]


def test_only_linkmodel_names_its_config_loader():
    """Every config dataclass is defined in `linkmodel`, next to the JSON
    loader and field check they share, which stay private to it."""
    found = [
        f"{path.name} {use}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        if path.stem != "linkmodel"
        for use in _loader_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def _gain_reads(source: str) -> list[str]:
    """Attribute reads of a LinkBudget linear gain (`.a_c`, `.a_fc`, ...);
    the dB losses (`.a_c_db`, ...) are other names."""
    return [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in LINK_GAINS
    ]


def test_gain_read_detector():
    source = "lb = link_budget(p)\nx = lb.a_fi / lb.a_fc\ny = lb.a_c_db\n"
    assert _gain_reads(source) == ["line 2: .a_fi", "line 2: .a_fc"]


def test_only_linkmodel_and_simulator_read_link_gains():
    """linkmodel.location_coeffs is the one place where the closed forms'
    link budget is composed into kappa and q_c; every inversion rescales
    those. The simulator prices the exact model in watts on its own."""
    found = [
        f"{path.name} {use}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        if path.stem not in ("linkmodel", "simulator")
        for use in _gain_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def _closed_form_uses(source: str, cli: bool = True) -> list[str]:
    """What a module needs to compute a first-order closed form itself: any
    import or read of an OUTAGE_MODEL name and, with `cli`, also any name
    imported from `specfun` or the `specfun` module itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            from_specfun = (node.module or "").split(".")[-1] == "specfun"
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name in OUTAGE_MODEL
                or (cli and from_specfun)
                or (cli and alias.name == "specfun")
            ]
        elif cli and isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[-1] == "specfun"
            ]
        elif isinstance(node, ast.Attribute) and node.attr in OUTAGE_MODEL:
            found.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, ast.Name) and node.id in OUTAGE_MODEL:
            found.append(f"line {node.lineno}: {node.id}")
    return found


def test_closed_form_use_detector():
    source = (
        "from .specfun import chi2_cdf, reg_inc_beta\nfrom . import specfun\n"
        "import tiernet.specfun\nfrom .analytic import shot_noise_c_f\n"
        "c_f = analytic.shot_noise_c_f(p)\nx = chi2_cdf(2, 1.0)\n"
    )
    assert _closed_form_uses(source) == [
        "line 1: import chi2_cdf", "line 1: import reg_inc_beta", "line 2: import specfun",
        "line 3: import tiernet.specfun", "line 4: import shot_noise_c_f",
        "line 5: shot_noise_c_f",
    ]
    assert _closed_form_uses(source, cli=False) == [
        "line 1: import reg_inc_beta", "line 4: import shot_noise_c_f",
        "line 5: shot_noise_c_f",
    ]


def test_cli_computes_no_closed_form():
    """Every density cap, window edge and radius the CLI prints or checks
    comes from `analytic` or `sensing`, each formula written once there:
    the CLI imports nothing from `specfun` and never reads C_f itself."""
    path = Path(tiernet.__path__[0]) / "cli.py"
    assert _closed_form_uses(path.read_text(encoding="utf-8")) == []


def test_only_analytic_computes_the_outage_model():
    """The density caps, the power window's load and every outage-odds
    threshold come from `analytic`'s helpers: no other module imports the
    incomplete beta or its inverse, or reads C_f. `sensing`'s detector keeps
    its incomplete-gamma imports."""
    found = [
        f"{path.name} {use}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        if path.stem not in ("analytic", "specfun")
        for use in _closed_form_uses(path.read_text(encoding="utf-8"), cli=False)
    ]
    assert found == []


def _private_reads(source: str) -> list[str]:
    """`_`-prefixed names (dunders aside) that the module imports from
    another tiernet module, or reads off one as `<module>._name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "tiernet"
        ):
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_private_read_detector():
    source = (
        "from .linkmodel import SystemParams, _check_levels_db\n"
        "from tiernet.specfun import _budget\nfrom os import _exit\n"
        "rng = simulator._drop_rng(1, 2)\nname = simulator.__name__\nx = obj._cache\n"
    )
    assert _private_reads(source) == [
        "line 1: import _check_levels_db", "line 2: import _budget", "line 4: simulator._drop_rng",
    ]


def test_cli_reads_no_private_name():
    """The CLI is a front end over each module's public names: what it
    needs of another module is public there, so a module's private helpers
    can change without the CLI."""
    path = Path(tiernet.__path__[0]) / "cli.py"
    assert _private_reads(path.read_text(encoding="utf-8")) == []


def _public_uses(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) of each name without a leading `_` that the
    source imports from a tiernet module, or reads off one as
    `<module>.<name>`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "tiernet"
        ):
            module = (node.module or "").rpartition(".")[2]
            if module in MODULES:
                found += [
                    (node.lineno, module, alias.name)
                    for alias in node.names
                    if not alias.name.startswith("_")
                ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
            and not node.attr.startswith("_")
        ):
            found.append((node.lineno, node.value.id, node.attr))
    return sorted(found)


def test_public_use_detector():
    source = (
        "from .linkmodel import SystemParams, _check_levels_db\n"
        "from tiernet.specfun import newton\nfrom . import analytic\nfrom os import path\n"
        "lam = analytic.k_c(1)\nc = analytic._memo\nx = obj.attr\n"
    )
    assert _public_uses(source) == [
        (1, "linkmodel", "SystemParams"), (2, "specfun", "newton"), (5, "analytic", "k_c"),
    ]


def test_names_used_across_modules_are_exported():
    """What one tiernet module uses of another is public there, and so
    listed in that module's `__all__`."""
    found = [
        f"{path.name} line {line}: {module}.{name}"
        for path in sorted(Path(tiernet.__path__[0]).glob("*.py"))
        for line, module, name in _public_uses(path.read_text(encoding="utf-8"))
        if name not in importlib.import_module(f"tiernet.{module}").__all__
    ]
    assert found == []


def _undefined_exports(source: str) -> list[str]:
    """Names that the module's `__all__` lists but its top level does not
    define by a `def`, a `class` or an assignment: an imported name is
    another module's, reachable from there."""
    defined: set[str] = set()
    exported: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


def test_undefined_export_detector():
    source = (
        "from .a import f\nimport math\ndef g(): pass\nclass C: pass\nK = 1\n"
        "T: int = 2\n__all__ = ['f', 'math', 'g', 'C', 'K', 'T']\n"
    )
    assert _undefined_exports(source) == ["f", "math"]


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_exports_are_defined_where_listed(module):
    """Each public name has one path, its own module: no module lists in
    `__all__` a name it only imports."""
    path = Path(tiernet.__path__[0]) / f"{module}.py"
    assert _undefined_exports(path.read_text(encoding="utf-8")) == []


def test_package_root_imports_nothing():
    """`tiernet/__init__.py` is the package's docstring: importing a
    submodule loads only what that submodule needs."""
    tree = ast.parse((Path(tiernet.__path__[0]) / "__init__.py").read_text(encoding="utf-8"))
    assert [
        node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ] == []


@pytest.mark.parametrize("module", ["tiernet"] + [f"tiernet.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []


def test_memos_return_what_their_functions_compute():
    """Each scalar memo, cold and then warm, returns exactly what its
    function computes on the same arguments, at random design points."""
    rng = np.random.default_rng(7)
    base = linkmodel.SystemParams()
    for _ in range(20):
        t_f = int(rng.integers(1, 5))
        p = dataclasses.replace(
            base, t_f=t_f, u_f=int(rng.integers(1, t_f + 1)),
            alpha_fo=float(rng.uniform(2.1, 6.0)), wall_db=float(rng.uniform(0.0, 20.0)),
            f_c_mhz=float(rng.uniform(500.0, 6000.0)),
        )
        m_tw = int(rng.integers(1, 2000))
        cases = [
            (specfun.inv_reg_inc_beta,
             (float(rng.uniform(0.0, 1.0)), int(rng.integers(1, 6)), float(rng.uniform(0.2, 5.0)))),
            (sensing.false_alarm_probability, (m_tw, float(rng.uniform(0.0, 4.0 * m_tw)))),
            (linkmodel.link_budget, (p,)),
        ]
        for memo, args in cases:
            want = memo.__wrapped__(*args)
            assert memo(*args) == want and memo(*args) == want, (memo.__name__, args)
