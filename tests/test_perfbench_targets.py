"""perfbench's tracing shims patch mathgrid functions by module attribute
name (``perfbench/tracing.py``); a name that is gone fails here, not only in
a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_mathgrid_name_perfbench_patches_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [
        (module, path) for module, path, _ in tracing.SPANS + tracing.COUNTS
        if module.split(".")[0] == "mathgrid"
    ]
    assert len(targets) > 20
    missing = []
    for module, path in targets:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert missing == []
