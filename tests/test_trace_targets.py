"""Every probe point of the benchmark tracer names a live similekit attribute.

`perfbench/tracer.py` patches functions by `module:attr` (or
`module:Class.method`) name, so renaming one breaks traced benchmark runs.
The tracer is loaded read-only, by file path, and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = load_probes()


@pytest.mark.parametrize("target", sorted({probe[0] for probe in PROBES}))
def test_probe_target_resolves(target):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in owner.__dict__, f"{target}: {cls_name} defines no {attr}"
    assert callable(getattr(owner, attr)), f"{target} is not callable"
