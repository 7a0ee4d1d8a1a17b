"""Per-layer metrics of one traced pass, measured from outside the package.

Times and call counts come from a ``cProfile`` pass (builtins off, so time
in builtins is charged to the Python function that called them):

* ``<module>.self_s`` is the summed ``tottime`` of every function whose code
  lives in the module's file.  Methods that ``dataclasses`` generates have
  no file and belong to no module.
* An inclusive time (``*.incl_s``, ``exact_core.elim_s``) counts the time
  spent inside a set of functions entered from outside the set: the summed
  ``cumtime`` of the call edges into the set whose caller is not in it.  For
  a module the set is its top-level functions and class-body methods;
  closures are left out, so a callback that another module runs inside one
  of the set's calls is not counted twice.
* ``*_s`` of a named function is its ``cumtime``; ``*_calls`` are ``ncalls``.

Rows and rank of elimination are data, not calls, so :class:`ElimCounter`
wraps the public elimination entry points and counts them at the outermost
call only.
"""

from __future__ import annotations

import fractions
import inspect
import sys
from types import ModuleType
from typing import Any, Callable, Iterable

Key = tuple[str, int, str]

ELIM_FUNCTIONS = ("span_basis", "nullspace", "rank_of", "kernel_basis", "rank")


def _code(obj: Any):
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    return getattr(obj, "__code__", None)


def _key(code) -> Key:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _package_modules() -> list[ModuleType]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rackalg" or name.startswith("rackalg."))]


class ElimCounter:
    """Rows fed to elimination and the rank it found, outermost calls only.

    A row is one generating vector (``span_basis``, ``SpanSolver``), one row
    of a sparse system (``nullspace``, ``rank_of``) or one stored column of a
    map (``kernel_basis``, ``rank``).  ``install`` rebinds the entry points in
    every package module that imported them; ``uninstall`` restores them.
    """

    def __init__(self, exact_core: ModuleType) -> None:
        self.exact_core = exact_core
        self.rows = 0
        self.rank = 0
        self._depth = 0
        self._originals = {name: getattr(exact_core, name) for name in ELIM_FUNCTIONS}
        self._installed: dict[str, Callable] = {}
        self._init = exact_core.SpanSolver.__init__

    def _call(self, fn: Callable, args: tuple, rows: int, rank: Callable[[Any], int]) -> Any:
        self._depth += 1
        try:
            result = fn(*args)
        finally:
            self._depth -= 1
        if self._depth == 0:
            self.rows += rows
            self.rank += rank(result)
        return result

    def _wrappers(self) -> dict[str, Callable]:
        o = self._originals

        def span_basis(vectors):
            return self._call(o["span_basis"], (vectors,), len(vectors), len)

        def nullspace(rows, ncols):
            rows = list(rows)
            return self._call(o["nullspace"], (rows, ncols), len(rows),
                              lambda basis: ncols - len(basis))

        def rank_of(rows, ncols):
            rows = list(rows)
            return self._call(o["rank_of"], (rows, ncols), len(rows), int)

        def kernel_basis(m):
            return self._call(o["kernel_basis"], (m,), len(m.columns),
                              lambda basis: m.domain.dim - len(basis))

        def rank(m):
            return self._call(o["rank"], (m,), len(m.columns), int)

        return {"span_basis": span_basis, "nullspace": nullspace, "rank_of": rank_of,
                "kernel_basis": kernel_basis, "rank": rank}

    def _rebind(self, table: dict[str, tuple[Callable, Callable]]) -> None:
        for mod in _package_modules():
            for name, (old, new) in table.items():
                if getattr(mod, name, None) is old:
                    setattr(mod, name, new)

    def install(self) -> None:
        wrappers = self._wrappers()
        self._rebind({name: (self._originals[name], wrappers[name]) for name in wrappers})
        self._installed = wrappers
        init = self._init

        def span_solver_init(solver, vectors):
            self._call(init, (solver, vectors), len(vectors), lambda _: solver.dim)

        self.exact_core.SpanSolver.__init__ = span_solver_init

    def uninstall(self) -> None:
        self._rebind({name: (self._installed[name], self._originals[name])
                      for name in self._installed})
        self.exact_core.SpanSolver.__init__ = self._init


class Profile:
    """Lookups over ``pstats`` data: {key: (cc, nc, tt, ct, callers)}."""

    def __init__(self, stats: dict) -> None:
        self.stats = stats
        self.missing: list[str] = []

    def self_s(self, filename: str) -> float:
        return sum((v[2] for k, v in self.stats.items() if k[0] == filename), 0.0)

    def file_calls(self, filename: str) -> int:
        return sum(v[1] for k, v in self.stats.items() if k[0] == filename)

    def calls(self, keys: Iterable[Key]) -> int:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def cum(self, keys: Iterable[Key]) -> float:
        return sum((self.stats[k][3] for k in keys if k in self.stats), 0.0)

    def incl(self, keys: Iterable[Key]) -> float:
        inside = set(keys)
        total = 0.0
        for k in inside:
            if k in self.stats:
                for caller, edge in self.stats[k][4].items():
                    if caller not in inside:
                        total += edge[3]
        return total

    def edge_cum(self, caller: list[Key], callee: list[Key]) -> float:
        return sum((self.stats[k][4].get(c, (0, 0, 0, 0.0))[3]
                    for k in callee if k in self.stats for c in caller), 0.0)


def defined(mod: ModuleType) -> list[Key]:
    """Top-level functions and class-body methods whose code is in ``mod``'s file."""
    keys = []
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else (obj,)
        for member in members:
            code = _code(member)
            if code is not None and code.co_filename == mod.__file__:
                keys.append(_key(code))
    return keys


def resolve(prof: Profile, mod: ModuleType | None, *paths: str) -> list[Key]:
    """Keys of dotted names such as ``certify`` or ``FinVec.*`` in ``mod``.

    A name the module no longer has is listed in ``prof.missing`` and counts
    zero, so a renamed function shows up in the context, not as a crash.
    """
    if mod is None:
        return []
    keys = []
    for path in paths:
        head, _, member = path.partition(".")
        obj = vars(mod).get(head)
        if obj is not None and member == "*":
            keys += [_key(c) for c in map(_code, vars(obj).values()) if c is not None
                     and c.co_filename == mod.__file__]
            continue
        if obj is not None and member:
            obj = vars(obj).get(member)
        code = _code(obj)
        if code is None:
            prof.missing.append(f"{mod.__name__}.{path}")
        else:
            keys.append(_key(code))
    return keys


def layer_metrics(prof: Profile, elim: ElimCounter) -> dict[str, float]:
    """Every per-layer metric except the set-up and overhead ones."""
    mods = {name: sys.modules.get(f"rackalg.{name}") for name in (
        "exact_core", "symcoalg", "env_hopf", "groups", "rack_bialg", "right_hopf_dialg",
        "deformation", "star_product")}

    def file_of(name: str) -> str:
        return mods[name].__file__ if mods[name] is not None else ""

    def r(name: str, *paths: str) -> list[Key]:
        return resolve(prof, mods[name], *paths)

    ec = mods["exact_core"]
    elim_keys = r("exact_core", *ELIM_FUNCTIONS, "SpanSolver.*")
    elim_keys += [k for k in prof.stats if k[0] == __file__]  # the ElimCounter wrappers
    dialg = r("right_hopf_dialg", "dialgebra_from_augmented", "hopf_as_dialgebra")
    certify_dialgebra = r("right_hopf_dialg", "certify_dialgebra")
    return {
        "exact_core.self_s": prof.self_s(file_of("exact_core")),
        "exact_core.finvec_calls": prof.calls(r("exact_core", "FinVec.*")),
        "exact_core.scalar_s": prof.self_s(fractions.__file__),
        "exact_core.scalar_calls": prof.file_calls(fractions.__file__),
        "exact_core.elim_s": prof.incl(elim_keys) if ec is not None else 0.0,
        "exact_core.elim_rows": elim.rows,
        "exact_core.elim_rank": elim.rank,
        "exact_core.elim_yield": elim.rank / elim.rows if elim.rows else 0.0,
        "exact_core.tensor_basis_calls": prof.calls(r("exact_core", "tensor_basis")),
        "exact_core.series_calls": prof.calls(r("exact_core", "SeriesScalar.*", "series_exp")),
        "symcoalg.incl_s": prof.incl(defined(mods["symcoalg"])) if mods["symcoalg"] else 0.0,
        "symcoalg.square_calls": prof.calls(r("symcoalg", "Coalgebra.square")),
        "symcoalg.sweedler_calls": prof.calls(r("symcoalg", "Coalgebra.sweedler")),
        "env_hopf.incl_s": prof.incl(defined(mods["env_hopf"])) if mods["env_hopf"] else 0.0,
        "env_hopf.product_calls": prof.calls(r("env_hopf", "EnvelopingHopf.product")),
        "env_hopf.straighten_calls": prof.calls(r("env_hopf", "EnvelopingHopf.straighten")),
        "groups.incl_s": prof.incl(defined(mods["groups"])) if mods["groups"] else 0.0,
        "rack_bialg.self_s": prof.self_s(file_of("rack_bialg")),
        "rack_bialg.certify_s": prof.cum(r("rack_bialg", "certify")),
        "rack_bialg.certify_augmented_s": prof.cum(r("rack_bialg", "certify_augmented")),
        "rack_bialg.act_calls": prof.calls(r("rack_bialg", "AugmentedRackBialgebra.act")),
        "right_hopf_dialg.self_s": prof.self_s(file_of("right_hopf_dialg")),
        "right_hopf_dialg.build_s": prof.cum(dialg) - prof.edge_cum(dialg, certify_dialgebra),
        "right_hopf_dialg.certify_dialgebra_s": prof.cum(certify_dialgebra),
        "right_hopf_dialg.decomposition_s": prof.cum(r("right_hopf_dialg",
                                                       "structure_decomposition")),
        "right_hopf_dialg.product_calls": prof.calls(r("right_hopf_dialg", "HopfDialgebra.vprod",
                                                       "HopfDialgebra.dprod")),
        "deformation.self_s": prof.self_s(file_of("deformation")),
        "deformation.verify_complex_s": prof.cum(r("deformation", "verify_complex")),
        "deformation.h2_s": prof.cum(r("deformation", "h2")),
        "deformation.face_calls": prof.calls(r("deformation", "_Faces.face",
                                               "_Faces.extra_face")),
        "star_product.self_s": prof.self_s(file_of("star_product")),
        "star_product.star_s": prof.cum(r("star_product", "star")),
        "star_product.star_calls": prof.calls(r("star_product", "star")),
        "star_product.ad_tilde_calls": prof.calls(r("star_product", "ad_tilde")),
    }
