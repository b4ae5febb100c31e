"""Every name a package lists in ``__all__`` resolves on that package."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.transforms",
    "repro.evaluation",
    "repro.datasets",
    "repro.index",
    "repro.parallel",
    "repro.baselines",
    "repro.obs",
    "repro.serve",
    "repro.cluster",
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
