"""Every per-layer metric of the benchmark resolves the package names it reads.

``bench/layers.py`` looks functions up by name, and a name it cannot find
counts zero and is listed in ``Profile.missing``; this test keeps a rename in
the package from silently zeroing a metric.
"""

import importlib
import importlib.util
import pathlib

import rackalg.exact_core as exact_core

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"
MODULES = ("exact_core", "symcoalg", "env_hopf", "groups", "rack_bialg", "right_hopf_dialg",
           "deformation", "star_product")


def test_every_layer_metric_resolves():
    for name in MODULES:
        importlib.import_module(f"rackalg.{name}")
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    prof = layers.Profile({})
    metrics = layers.layer_metrics(prof, layers.ElimCounter(exact_core))
    assert prof.missing == []
    assert len(metrics) == 34
