"""The benchmark's span recorder must find every name it patches, and put it back.

``perfbench/tracing.py`` times galpha from outside the package by replacing
module attributes such as ``stability.amplification_matrix`` and
``amplification.build_lr``.  A refactor that drops one of those names breaks
every benchmark run; this test breaks first.
"""

import importlib.util
from pathlib import Path

from galpha import amplification, cli, integrator, numkit, orderlab, stability

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (amplification, cli, integrator, numkit, orderlab, stability)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched(before):
    return {
        (module.__name__, name)
        for module, names in zip(MODULES, before)
        for name, value in names.items()
        if vars(module).get(name) is not value
    }


def test_tracing_install_restores_every_patched_name():
    tracing = _load_tracing()
    before = [dict(vars(module)) for module in MODULES]
    restore = tracing.install(tracing.Tracer())
    try:
        patched = _patched(before)
    finally:
        restore()
    assert {
        ("galpha.stability", "amplification_matrix"),
        ("galpha.stability", "limit_matrix_zero"),
        ("galpha.stability", "limit_matrix_inf"),
        ("galpha.stability", "numkit"),
        ("galpha.stability", "np"),
        ("galpha.amplification", "build_lr"),
    } <= patched
    assert _patched(before) == set()
    assert [set(vars(module)) for module in MODULES] == [set(names) for names in before]
