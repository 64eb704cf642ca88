"""Prompt building, endpoint driving, and dataset/run persistence."""

from .client import EndpointConfig, run_benchmark, score_run
from .prompts import Modality, build_prompt

__all__ = [
    "EndpointConfig",
    "run_benchmark",
    "score_run",
    "Modality",
    "build_prompt",
]
