"""The package's module-level caches: which exist, and that a run with fresh
seeds on the shapes of an earlier run adds nothing to them."""

import importlib
import pkgutil

import pytest

import qelm_lab
from qelm_lab.cli import main

# Keyed on shapes (qubit counts, targets, gate shapes) or on the noise
# profile only. A cache keyed on values, such as gate angles or reservoir
# specs, grows with every fresh seed in a process.
SHAPE_KEYED = {
    "qelm_lab.simulator._axis_orders",
    "qelm_lab.simulator._pauli_basis",
    "qelm_lab.simulator._part_ptm",
    "qelm_lab.simulator.noise_ptm",
    "qelm_lab.simulator._fusion_plan",
    "qelm_lab.simulator._z_signs",
}


def _caches() -> dict:
    """Every callable with cache_info in the package's modules and their
    classes, by qualified name."""
    found = {}
    for module in pkgutil.iter_modules(qelm_lab.__path__):
        values = list(vars(importlib.import_module(f"qelm_lab.{module.name}")).values())
        values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
        for value in values:
            if callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_the_package_keeps_only_shape_keyed_caches():
    assert set(_caches()) == SHAPE_KEYED


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "--scenario", "C1_1", "--dataset", "classification8", "--feature-map", "probabilities",
         "--readout", "logistic", "--dataset-size", "20", "--repeats", "2"],
        ["scenario", "--scenario", "C2_2", "--mitigator", "zne", "--dataset-size", "20", "--repeats", "2"],
        ["uq", "--scenario", "C1_2", "--uq-method", "ensemble", "--uq-samples", "2", "--dataset-size", "20"],
    ],
)
def test_a_run_with_fresh_seeds_on_the_same_shapes_grows_no_cache(capsys, tmp_path, argv):
    sizes = []
    for seed in ("1", "2"):
        assert main([*argv, "--profile", "device-a", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        sizes.append({name: cache.cache_info().currsize for name, cache in _caches().items()})
    assert sizes[0] == sizes[1]
