"""bench/hooks.py names sbpu functions by string; a deleted or renamed one breaks
only a traced benchmark run.  These checks import the hooks file as it is."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "hooks.py"
_spec = importlib.util.spec_from_file_location("bench_hooks", _PATH)
hooks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hooks)

TARGETS = sorted({t for table in (hooks.UNIT_TARGETS, hooks.SPANS)
                  for targets in table.values() for t in targets}
                 | set(hooks.COUNTERS.values()))


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    assert callable(hooks.resolve(target)[2])


def test_every_reported_span_is_installed():
    # Tracer.metrics looks up each CALLS and SELF_S name, params.* spans included
    tracer = hooks.Tracer()
    try:
        tracer.install()
        assert set(hooks.CALLS) | set(hooks.SELF_S) <= set(tracer.name_ids)
    finally:
        tracer.uninstall()
