"""The measuring seam of ``perf/`` still resolves against the program.

``perf/spans.py`` times the layers from outside by replacing functions and
methods *by name*; a refactor that renames or moves one would silently zero
that layer's budget (only ``engine_single_hf`` is smoke-traced in
``perf/tests``).  This resolves every patch target exactly the way
``spans.installed`` looks it up, without installing anything.
"""

import importlib

import pytest

from perf import spans


@pytest.mark.parametrize("module_name, attribute",
                         [patch[:2] for patch in spans.FUNCTION_PATCHES])
def test_function_patch_targets_resolve(module_name, attribute):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute))
    assert attribute in vars(module)  # what the restore reads back


@pytest.mark.parametrize("module_name, class_name, method",
                         [patch[:3] for patch in spans.METHOD_PATCHES])
def test_method_patch_targets_are_defined_on_the_class_itself(
        module_name, class_name, method):
    owner = getattr(importlib.import_module(module_name), class_name)
    original = vars(owner)[method]  # not inherited: the shim reads vars()
    function = original.__func__ if isinstance(original, classmethod) \
        else original
    assert callable(function)


def test_rpc_client_connection_class_is_patchable():
    client = importlib.import_module("repro.cluster.client")
    assert isinstance(vars(client)["HTTPConnection"], type)
