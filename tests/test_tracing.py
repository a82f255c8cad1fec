"""The benchmark's tracer wraps package functions by name from outside the
package: each name it lists must resolve, and leaving the tracer must put
every original back."""

import importlib
import importlib.util
from pathlib import Path

import spinmagic
from spinmagic import cli, xyz

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for layer, names in load_tracing().TRACED.items():
        module = importlib.import_module(f"spinmagic.{layer}")
        assert [n for n in names if not callable(getattr(module, n, None))] == [], layer


def test_tracer_restores_the_originals():
    originals = (spinmagic.sre_brute, cli.find_hstar, xyz.translate)
    with load_tracing().Tracer():
        assert spinmagic.sre_brute is not originals[0] and xyz.translate is not originals[2]
    restored = (spinmagic.sre_brute, cli.find_hstar, xyz.translate)
    assert all(now is before for now, before in zip(restored, originals))
