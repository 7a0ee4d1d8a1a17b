"""The benchmark's workloads: set-up, valid phase, corrupted inputs, and the
summaries that are compared against ``reference.json``.

Each workload imports the package modules it uses inside ``setup`` so that
the set-up time of a fresh interpreter covers them.  ``valid`` runs the
paper's constructions as top-level operations and stores each result in
``out`` under the operation's name as soon as it returns, so a failure part
way through still leaves the earlier results to check.  ``summarize`` turns
one result into plain JSON data; the harness compares that with the
reference entry of the same name.  ``corrupted`` builds the reject-phase
inputs from the valid results; each one must make its certifier raise a
``RackalgError``.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import random
import re
import time
from types import SimpleNamespace
from typing import Any, Callable, Iterable

import corrupt

STAR_ORDER = 3
SELFDIST_ORDER = 2
STAR_TRIPLES = 3


# ---------------------------------------------------------------------------
# output summaries
# ---------------------------------------------------------------------------


def float_count(coeffs: Iterable[Any]) -> int:
    """Number of float coefficients; series coefficients are looked into."""
    n = 0
    for c in coeffs:
        inner = getattr(c, "coeffs", None)
        if inner is not None:
            n += sum(isinstance(x, float) for x in inner)
        else:
            n += isinstance(c, float)
    return n


def _vec_text(v) -> str:
    return ";".join(sorted(f"{lab!r}:{c}" for lab, c in v.entries.items() if c))


def table_digest(labels: Iterable, product: Callable) -> tuple[str, int]:
    """SHA-256 of a bilinear product on basis labels, and its float count.

    Lines are sorted by their text, so the digest does not depend on basis
    order or on how the product is stored, only on its values.
    """
    lines = []
    floats = 0
    labels = list(labels)
    for la in labels:
        for lb in labels:
            v = product(la, lb)
            floats += float_count(v.entries.values())
            text = _vec_text(v)
            if text:
                lines.append(f"{la!r}|{lb!r}|{text}")
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16], floats


def map_digest(labels: Iterable, fn: Callable) -> tuple[str, int]:
    """Same as :func:`table_digest` for a linear map on basis labels."""
    lines = []
    floats = 0
    for lab in labels:
        v = fn(lab)
        floats += float_count(v.entries.values())
        text = _vec_text(v)
        if text:
            lines.append(f"{lab!r}|{text}")
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16], floats


def skip_counts(detail: str) -> dict[str, int]:
    """Skip counts by kind from a report detail such as 'pairs skipped=0';
    a count with no kind in front is listed as 'all'."""
    return {kind or "all": int(n)
            for kind, n in re.findall(r"(?:(\w+) )?skipped=(\d+)", detail)}


def report_summary(rep) -> dict:
    return {"passed": rep.passed, "checked": rep.checked, "skipped": skip_counts(rep.detail)}


def dialgebra_summary(m, d) -> dict:
    def unit(lab):
        return m.FinVec.unit(d.basis, lab)

    labels = d.basis.labels
    vdash, f1 = table_digest(labels, lambda a, b: d.vprod(unit(a), unit(b)))
    dashv, f2 = table_digest(labels, lambda a, b: d.dprod(unit(a), unit(b)))
    anti, f3 = map_digest(labels, lambda a: d.s(unit(a)))
    return {"certified": d.certified, "dim": d.basis.dim, "report": report_summary(d.report),
            "vdash": vdash, "dashv": dashv, "antipode": anti, "floats": f1 + f2 + f3}


def rack_summary(m, rb) -> dict:
    def unit(lab):
        return m.FinVec.unit(rb.basis, lab)

    mu, floats = table_digest(rb.basis.labels, lambda a, b: rb.apply(unit(a), unit(b)))
    return {"certified": rb.certified, "dim": rb.basis.dim, "mu": mu, "floats": floats}


def augmented_summary(m, arb) -> dict:
    hb, cb = arb.hopf.coalgebra.basis, arb.carrier.basis
    action, f1 = map_digest(arb.action.domain.labels, arb.action.column)
    phi, f2 = map_digest(cb.labels, arb.phi.column)
    rack = rack_summary(m, arb.rack)
    return {"certified": arb.certified, "hopf_dim": hb.dim, "rack": rack,
            "action": action, "phi": phi, "floats": f1 + f2}


def decomposition_summary(dec) -> dict:
    vecs = list(dec.idempotent_part) + list(dec.hopf_part)
    vecs += [dec.psi.column(lab) for lab in dec.psi.domain.labels]
    floats = sum(float_count(v.entries.values()) for v in vecs)
    return {"idempotent_dim": len(dec.idempotent_part), "hopf_dim": len(dec.hopf_part),
            "report": report_summary(dec.report), "floats": floats}


def complex_summary(cx) -> dict:
    """Cochain space dimensions of a deformation complex, and float count."""
    floats = sum(float_count(col.entries.values()) for space in cx.spaces
                 for f in space for col in f.map.columns.values())
    return {"dims": [len(space) for space in cx.spaces], "floats": floats}


def poly_summary(f) -> dict:
    """Seed-independent facts of exp(hat x) |> exp(hat y): constant term 1."""
    const = f.terms.get((0,) * f.nvars)
    return {"constant": str(const.coeffs[0]) if const is not None else "0",
            "floats": float_count(f.terms.values())}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _modules(*names: str) -> SimpleNamespace:
    """Import the named package modules and flatten their public names."""
    ns = SimpleNamespace()
    for name in names:
        mod = importlib.import_module(f"rackalg.{name}")
        for attr in mod.__all__:
            setattr(ns, attr, getattr(mod, attr))
    return ns


def corrupt_dialgebra(m, d, c: corrupt.Corruption) -> tuple[str, Callable]:
    """A |- or -| table entry changed; certify_dialgebra must reject it."""
    basis = d.basis
    keys = [(a, b) for a in basis.labels for b in basis.labels]
    key, table = corrupt.apply(c, getattr(d, c.table), keys, basis.labels,
                               m.FinVec.zero(basis))
    bad = dataclasses.replace(d, certified=False, report=None, **{c.table: table})
    return f"{c.table}{key}", lambda: m.certify_dialgebra(bad)


def corrupt_augmented(m, arb, c: corrupt.Corruption) -> tuple[str, Callable]:
    """A column of the product ``mu`` (through certify) or of the ``action``
    (through augmented_from_action) changed."""
    basis = arb.carrier.basis
    # A primitive target can leave every coalgebra identity intact, so the
    # extra term goes to the unit or to a monomial of degree >= 2.
    targets = [lab for lab in basis.labels if len(lab) != 1]
    fmap = arb.rack.mu if c.table == "mu" else arb.action
    key, cols = corrupt.apply(c, fmap.columns, fmap.domain.labels, targets,
                              m.FinVec.zero(basis))
    bad = m.FinMap(fmap.domain, fmap.codomain, cols)
    if c.table == "mu":
        return f"mu{key}", lambda: m.certify(m.RackBialgebra(arb.carrier, bad))
    return f"action{key}", lambda: m.augmented_from_action(arb.carrier, arb.hopf, arb.phi, bad)


def corrupt_bracket(m, h, c: corrupt.Corruption) -> tuple[str, Callable]:
    """A bracket entry changed; ur() must reject it by the Leibniz check."""
    basis = h.basis
    keys = [(j, k) for j in basis.labels for k in basis.labels]
    key, bracket = corrupt.apply(c, h.bracket, keys, basis.labels, m.FinVec.zero(basis))
    bad = m.LeibnizAlgebra(basis, bracket)
    return f"bracket{key}", lambda: m.ur(bad)


class Workload:
    """One named workload; see the module docstring for the protocol."""

    name = ""
    ops: tuple[str, ...] = ()  # top-level operations of the valid phase, in order
    tables: tuple[str, ...] = ()  # product tables the corruptions hit
    per_table = 0  # corruptions per table

    def setup(self, seed: int) -> SimpleNamespace:
        raise NotImplementedError

    def valid(self, inp: SimpleNamespace, out: dict) -> None:
        raise NotImplementedError

    def summarize(self, inp: SimpleNamespace, name: str, result: Any) -> Any:
        raise NotImplementedError

    def corrupted(self, inp: SimpleNamespace, out: dict) -> list[tuple[str, Callable]]:
        """(description, call) pairs; each call must raise a RackalgError."""
        raise NotImplementedError


class DialgS3(Workload):
    """Hopf dialgebras over S3 and its subgroups Z2 and Z3, and their
    decompositions."""

    name = "dialg_s3"
    ops = ("augmented_conjugation.S3", "hopf_as_dialgebra.S3", "structure_decomposition.S3",
           "augmented_conjugation.Z2", "dialgebra_from_augmented.Z2",
           "structure_decomposition.Z2", "hopf_as_dialgebra.Z3")
    tables = ("vdash", "dashv")
    per_table = 9  # every entry of the 3-dim dialgebra's tables once

    def setup(self, seed):
        m = _modules("exact_core", "groups", "rack_bialg", "right_hopf_dialg")
        return SimpleNamespace(m=m, corruptions=corrupt.draw(seed, self.tables, self.per_table))

    def valid(self, inp, out):
        m = inp.m
        out["augmented_conjugation.S3"] = m.augmented_conjugation(m.symmetric_group(3))
        d = out["hopf_as_dialgebra.S3"] = m.hopf_as_dialgebra(m.group_hopf(m.symmetric_group(3)))
        out["structure_decomposition.S3"] = m.structure_decomposition(d)
        arb = out["augmented_conjugation.Z2"] = m.augmented_conjugation(m.cyclic_group(2))
        d = out["dialgebra_from_augmented.Z2"] = m.dialgebra_from_augmented(arb)
        out["structure_decomposition.Z2"] = m.structure_decomposition(d)
        out["hopf_as_dialgebra.Z3"] = m.hopf_as_dialgebra(m.group_hopf(m.cyclic_group(3)))

    def summarize(self, inp, name, result):
        if name.startswith("augmented_conjugation."):
            return augmented_summary(inp.m, result)
        if name.startswith("structure_decomposition."):
            return decomposition_summary(result)
        return dialgebra_summary(inp.m, result)

    def corrupted(self, inp, out):
        d = out["hopf_as_dialgebra.Z3"]
        return [corrupt_dialgebra(inp.m, d, c) for c in inp.corruptions]


class UarHeis3(Workload):
    """UAR(heis3) and UAR(sq2) at degree 1, and the adjoint rack of U(heis3)
    capped at 3."""

    name = "uar_heis3"
    ops = ("uar_infinity.heis3", "uar_infinity.sq2", "hopf_adjoint.heis3")
    tables = ("mu", "action")
    per_table = 9  # every column of UAR(sq2)'s mu and action once

    def setup(self, seed):
        m = _modules("exact_core", "env_hopf", "rack_bialg")
        fixtures = importlib.import_module("rackalg.fixtures")
        return SimpleNamespace(m=m, heis3=fixtures.load("heis3"), sq2=fixtures.load("sq2"),
                               corruptions=corrupt.draw(seed, self.tables, self.per_table))

    def valid(self, inp, out):
        m = inp.m
        out["uar_infinity.heis3"] = m.uar_infinity(inp.heis3, 1)
        out["uar_infinity.sq2"] = m.uar_infinity(inp.sq2, 1)
        out["hopf_adjoint.heis3"] = m.hopf_adjoint(m.enveloping_hopf(inp.heis3, 3))

    def summarize(self, inp, name, result):
        if name.startswith("uar_infinity."):
            return augmented_summary(inp.m, result)
        return rack_summary(inp.m, result)

    def corrupted(self, inp, out):
        arb = out["uar_infinity.sq2"]
        return [corrupt_augmented(inp.m, arb, c) for c in inp.corruptions]


class DeformStar(Workload):
    """Deformation complexes of UR(h), H^2 of UR(abelian1), and the sl2 star
    product."""

    name = "deform_star"
    ops = ("verify_complex.abelian1", "h2.abelian1", "deformation_complex.lie2",
           *(f"{op}.{i}" for i in range(STAR_TRIPLES) for op in ("star_exp", "star_selfdist")))
    tables = ("bracket",)
    per_table = 90  # ten per bracket entry

    def setup(self, seed):
        m = _modules("exact_core", "leibniz", "rack_bialg", "deformation")
        fixtures = importlib.import_module("rackalg.fixtures")
        t0 = time.perf_counter()
        star = _modules("star_product")
        import_s = time.perf_counter() - t0
        algebras = {name: fixtures.load(name) for name in ("abelian1", "lie2", "sl2")}
        sl2 = algebras["sl2"]
        rng = random.Random(seed)

        def vec():
            # every coordinate nonzero, so each triple expands the full jet
            return m.FinVec.build(sl2.basis, {lab: rng.choice(corrupt.COEFFS)
                                              for lab in sl2.basis.labels})

        triples = [(vec(), vec(), vec()) for _ in range(STAR_TRIPLES)]
        return SimpleNamespace(m=m, star=star, algebras=algebras, triples=triples,
                               corruptions=corrupt.draw(seed, self.tables, self.per_table),
                               import_s={"star_product": import_s})

    def valid(self, inp, out):
        m, star, alg = inp.m, inp.star, inp.algebras
        out["verify_complex.abelian1"] = m.verify_complex(m.ur(alg["abelian1"]), 1)
        out["h2.abelian1"] = m.h2(m.ur(alg["abelian1"]))
        out["deformation_complex.lie2"] = m.deformation_complex(m.ur(alg["lie2"]), 1)
        for i, (x, y, z) in enumerate(inp.triples):
            out[f"star_exp.{i}"] = star.star_exp(alg["sl2"], x, y, STAR_ORDER)
            out[f"star_selfdist.{i}"] = star.star_rack_selfdist_check(
                alg["sl2"], x, y, z, SELFDIST_ORDER)

    def summarize(self, inp, name, result):
        if name.startswith("verify_complex."):
            return {"passed": result.passed, "checked": result.checked, "detail": result.detail}
        if name.startswith("h2."):
            return dict(result)
        if name.startswith("deformation_complex."):
            return complex_summary(result)
        if name.startswith("star_exp."):
            return poly_summary(result)
        return {"passed": result.passed, "checked": result.checked}

    def corrupted(self, inp, out):
        # sl2 has no nonzero left-central element, so every single-entry
        # change breaks the Leibniz identity.
        sl2 = inp.algebras["sl2"]
        return [corrupt_bracket(inp.m, sl2, c) for c in inp.corruptions]


class Smoke(Workload):
    """Seconds-long harness self-test on the smallest inputs; not benchmarked."""

    name = "smoke"
    ops = ("hopf_as_dialgebra", "uar_infinity")
    tables = ("vdash", "mu")
    per_table = 2

    def setup(self, seed):
        m = _modules("exact_core", "groups", "rack_bialg", "right_hopf_dialg")
        fixtures = importlib.import_module("rackalg.fixtures")
        return SimpleNamespace(m=m, sq2=fixtures.load("sq2"),
                               corruptions=corrupt.draw(seed, self.tables, self.per_table))

    def valid(self, inp, out):
        m = inp.m
        out["hopf_as_dialgebra"] = m.hopf_as_dialgebra(m.group_hopf(m.symmetric_group(3)))
        out["uar_infinity"] = m.uar_infinity(inp.sq2, 2)

    def summarize(self, inp, name, result):
        if name == "hopf_as_dialgebra":
            return dialgebra_summary(inp.m, result)
        return augmented_summary(inp.m, result)

    def corrupted(self, inp, out):
        d, arb = out["hopf_as_dialgebra"], out["uar_infinity"]
        return [corrupt_dialgebra(inp.m, d, c) if c.table == "vdash"
                else corrupt_augmented(inp.m, arb, c) for c in inp.corruptions]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DialgS3(), UarHeis3(), DeformStar(), Smoke())}
