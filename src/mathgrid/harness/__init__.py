"""Prompt building, endpoint driving, and dataset/run persistence."""

from .client import (
    ConfigError,
    EndpointConfig,
    ManifestMismatch,
    RunRecord,
    build_chat_payload,
    bundle_to_messages,
    load_run_records,
    request_fingerprint,
    run_benchmark,
    score_run,
)
from .prompts import (
    ImagePart,
    MissingStyleArtifact,
    Modality,
    TEMPLATE_VERSION,
    TextPart,
    build_prompt,
    load_template,
    template_for,
)
from .sft import answer_line, export_sft_trajectories, format_solution_steps

__all__ = [
    "ConfigError",
    "EndpointConfig",
    "ManifestMismatch",
    "RunRecord",
    "build_chat_payload",
    "bundle_to_messages",
    "load_run_records",
    "request_fingerprint",
    "run_benchmark",
    "score_run",
    "ImagePart",
    "MissingStyleArtifact",
    "Modality",
    "TEMPLATE_VERSION",
    "TextPart",
    "build_prompt",
    "load_template",
    "template_for",
    "answer_line",
    "export_sft_trajectories",
    "format_solution_steps",
]
