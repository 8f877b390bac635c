"""The benchmark's layer probe patches named program functions.

``perfbench/layers.py`` wraps each entry of its ``WRAPPED`` table in a
span, reading class attributes from the owner's ``__dict__``: a renamed
or deleted method makes ``perfbench/run.py --trace 1`` raise
``KeyError``.  This keeps every name it patches defined.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).parent.parent / "perfbench" / "layers.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WRAPPED


def test_every_wrapped_name_is_defined_on_its_owner():
    missing = []
    for module_name, cls_name, attr, _span in _wrapped():
        module = importlib.import_module(module_name)
        if cls_name is None:
            ok = callable(getattr(module, attr, None))
        else:
            ok = callable(getattr(module, cls_name).__dict__.get(attr))
        if not ok:
            missing.append(f"{module_name}.{cls_name or ''}.{attr}")
    assert missing == []
