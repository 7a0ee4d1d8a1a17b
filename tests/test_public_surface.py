"""The public surface of the package: every ``__all__`` name that no other
module of the package and no benchmark file uses is a paper construction or
check kept public on purpose.

A helper that only tests call belongs in ``tests/oracles.py``; the frozen set
below makes one that comes back into ``src/`` fail here.
"""

import ast
import pathlib
import sys

import rackalg

PACKAGE = pathlib.Path(rackalg.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"

# ``module:name`` for each public name that nothing in the package and nothing in
# bench/ uses: the paper's constructions and checks, their data types, and the
# serializers and fixture readers of the public API.
KEPT_PUBLIC = frozenset({
    "rackalg:__version__",
    "fixtures:fixture_names", "fixtures:load_raw",
    "exact_core:series_exp",
    "symcoalg:filtration_order", "symcoalg:is_connected", "symcoalg:is_group_like",
    "leibniz:squares_ideal",
    "env_hopf:EnvelopingHopf", "env_hopf:symmetrize",
    "jsonio:leibniz_to_json", "jsonio:rack_to_json",
    "rack_bialg:augmented_rack_algebra", "rack_bialg:certify_augmented",
    "rack_bialg:check_rack", "rack_bialg:conjugation_rack", "rack_bialg:filtration_stable",
    "rack_bialg:gauge", "rack_bialg:primitives_leibniz", "rack_bialg:rack_group_algebra",
    "rack_bialg:set_like_elements", "rack_bialg:set_likes", "rack_bialg:trivial_augmented",
    "rack_bialg:yang_baxter_check", "rack_bialg:yetter_drinfeld_check",
    "right_hopf_dialg:DialgebraDecomposition", "right_hopf_dialg:HopfDialgebra",
    "right_hopf_dialg:SuschkewitschDecomposition",
    "right_hopf_dialg:augmented_idempotent_basis", "right_hopf_dialg:certify_one_sided",
    "right_hopf_dialg:dialgebra_leibniz", "right_hopf_dialg:dialgebra_rack_product",
    "right_hopf_dialg:from_group_hopf", "right_hopf_dialg:hopf_dialgebra_rack",
    "right_hopf_dialg:hopf_part_projector", "right_hopf_dialg:idempotent_projector",
    "right_hopf_dialg:right_group_hopf", "right_hopf_dialg:suschkewitsch",
    "right_hopf_dialg:trivial_one_sided_hopf", "right_hopf_dialg:universal_dialgebra",
    "right_hopf_dialg:universal_property_instance",
    "deformation:Cochain", "deformation:DeformationComplex",
    "deformation:coderivation_report", "deformation:coderivation_space",
    "deformation:differential", "deformation:equivalence_check",
    "deformation:infinitesimal_selfdist", "deformation:star_mu1",
    "star_product:ExpFunction", "star_product:PolyFunction", "star_product:ad_tilde",
    "star_product:check_hat_morphism", "star_product:exp_hat", "star_product:hat_function",
    "star_product:lie_rack_product", "star_product:monomial_function",
    "star_product:psi_function", "star_product:rack_exp",
})


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def module_name(path):
    """``exact_core`` for exact_core.py, ``fixtures`` for fixtures/__init__.py,
    ``rackalg`` for the package's own __init__.py."""
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "rackalg"


def exported(tree):
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def used(tree):
    """Names a module uses: names, attributes, and names imported from a module.

    Names are matched as strings, so a name that two modules share counts as
    used for both; the scan can miss an unused export but never invents one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_exports(modules, others):
    """``module:name`` for each ``__all__`` name of ``modules`` (name -> tree)
    that no other module and none of ``others`` (trees) uses."""
    out = set()
    for mod, tree in modules.items():
        seen = set().union(*(used(t) for m, t in modules.items() if m != mod),
                           *(used(t) for t in others))
        out.update(f"{mod}:{name}" for name in exported(tree) - seen)
    return out


def test_every_public_name_is_used_or_kept_on_purpose():
    modules = {module_name(path): _tree(path) for path in sorted(PACKAGE.rglob("*.py"))}
    bench = [_tree(path) for path in sorted(BENCH.rglob("*.py"))]
    assert len(modules) == len(list(PACKAGE.rglob("*.py"))) and bench
    assert unused_exports(modules, bench) == KEPT_PUBLIC


def test_the_surface_scan_sees_imports_attributes_and_names():
    modules = {"a": ast.parse("__all__ = ['f', 'g', 'h', 'k']\n"),
               "b": ast.parse("from a import f\nimport a\nx = a.g\n"),
               "c": ast.parse("__all__ = ['m']\nh(1)\n")}
    assert unused_exports(modules, [ast.parse("def run(): return k\n")]) == {"c:m"}
    assert unused_exports(modules, []) == {"a:k", "c:m"}
    assert module_name(PACKAGE / "fixtures" / "__init__.py") == "fixtures"
    assert module_name(PACKAGE / "__init__.py") == "rackalg"


def unused_imports(tree):
    """The names a module imports (``from __future__`` aside) and neither
    reads nor lists in ``__all__``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - exported(tree)


def test_no_module_imports_a_name_it_never_uses():
    found = {f"{module_name(path)}:{name}" for path in sorted(PACKAGE.rglob("*.py"))
             for name in unused_imports(_tree(path))}
    assert found == set()


def test_the_import_scan_sees_reads_annotations_and_exports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport a.b as ab\n"
                     "from m import f, g as h, k, T, E\n__all__ = ['E']\n"
                     "def run(x: T) -> None: return os.path.join(f(x), ab)\n"
                     "'k'\n")
    assert unused_imports(tree) == {"h", "k"}


def foreign_imports(tree):
    """The top-level packages a module imports, at any depth (a lazy import
    inside a function too), that are neither in the standard library nor
    ``rackalg``; relative imports stay inside the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found - sys.stdlib_module_names - {"rackalg"}


def test_the_package_imports_only_the_standard_library():
    found = {f"{module_name(path)}:{name}" for path in sorted(PACKAGE.rglob("*.py"))
             for name in foreign_imports(_tree(path))}
    assert found == set()


def test_the_dependency_scan_sees_lazy_and_dotted_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                     "from fractions import Fraction\nfrom rackalg.exact_core import div\n"
                     "from . import groups\n"
                     "def solve():\n    import sympy\n    from scipy.linalg import det\n")
    assert foreign_imports(tree) == {"numpy", "sympy", "scipy"}
