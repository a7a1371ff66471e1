"""The benchmark tracer wraps program functions by module attribute; a
refactor that drops or renames one of them must fail here, not silently
break a traced benchmark run."""
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracer = _load_tracer()
    names = ([(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
             + [(owner, attr) for owner, attr, _ in tracer.COUNTED])
    missing = [f"{owner}.{attr}" for owner, attr in names
               if not callable(getattr(tracer._resolve(owner), attr, None))]
    assert names and missing == []
