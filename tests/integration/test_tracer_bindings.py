"""The benchmark tracer's bindings still exist in the program.

``perfbench/tracing.py`` wraps each traced callee through
``owner.__dict__[attribute]`` and raises ``KeyError`` on a missing one,
so renaming or moving a traced function (a repair evaluator, a solver
method) breaks ``perfbench/run.py --trace 1``.  This test reads the
tracer's target list and fails at once instead.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "perfbench", "tracing.py")


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._targets()


TARGETS = tracer_targets()


def owner_name(owner):
    """``package.module`` or ``package.module.Class``."""
    if isinstance(owner, type):
        return "%s.%s" % (owner.__module__, owner.__qualname__)
    return owner.__name__


@pytest.mark.parametrize(
    "owner, attribute",
    [(owner, attribute) for owner, attribute, _ in TARGETS],
    ids=["%s.%s" % (owner_name(owner), attribute)
         for owner, attribute, _ in TARGETS])
def test_traced_binding_exists(owner, attribute):
    assert attribute in owner.__dict__, \
        "%s has no %r for the tracer to wrap" % (owner, attribute)

