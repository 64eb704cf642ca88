"""Prompt building, endpoint driving, and dataset/run persistence.

Each export is imported from its module on first use (PEP 562), so that
importing ``mathgrid.harness.prompts`` does not load the endpoint client.
"""

from importlib import import_module

__all__ = [
    "EndpointConfig",
    "run_benchmark",
    "score_run",
    "Modality",
    "build_prompt",
]

# export -> the submodule that defines it
_HOMES = {"EndpointConfig": "client", "run_benchmark": "client", "score_run": "client",
          "Modality": "prompts", "build_prompt": "prompts"}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads find it without this call
    return value
