"""Command-line entry point: generate, render, solve, export-sft, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core import Difficulty, Grid, MathGridError, Operator, SolutionTrace, check_type, located, shown
from .generator import GenParams, generate_batch, write_example_images
from .harness.prompts import Modality
from .manifest import load_manifest, parse_json, write_manifest
from .render.markdown import _OP_ALIASES, parse_markdown
from .render.svg import RenderView, STYLE_IDS, render_image
from .solver import deduce

# The endpoint client, the scorer and the SFT exporter are imported by the commands
# that run them, so that generate, solve and render start without socket, ssl or hashlib.
if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .evaluation import EvalReport
    from .harness.client import EndpointConfig


def _parse_ops(text: str) -> tuple[Operator, ...]:
    ops = []
    for ch in text:
        if ch not in _OP_ALIASES:
            raise argparse.ArgumentTypeError(f"unknown operator {ch!r}")
        op = _OP_ALIASES[ch]
        if op not in ops:
            ops.append(op)
    if not ops:
        raise argparse.ArgumentTypeError("need at least one operator")
    return tuple(ops)


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from exc


def _solved(grid: Grid) -> SolutionTrace:
    """``deduce``'s trace; a ValueError names a cell whose answer ``str`` cannot convert."""
    trace, _ = deduce(grid)
    for coord, value, _ in trace.resolved:
        if (text := shown(value)).startswith("<"):  # the int's size in bits: repr failed
            raise ValueError(f"cell {tuple(coord)} solves to {text}, too many digits to print")
    return trace


def _read_grid(path: str | None) -> Grid:
    """The markdown grid in the file ``path``, or on stdin without one; an
    error reading or parsing a file names it."""
    if not path:
        return parse_markdown(sys.stdin.read())
    with located(path):
        return parse_markdown(Path(path).read_text(encoding="utf-8"))


def score_run(run_path: Path | str, manifest_path: Path | str) -> EvalReport:
    """``harness.client.score_run``, imported when ``bench score`` calls it.
    This forwarder keeps the name at module level, where
    ``perfbench/tracing.py`` wraps it, without loading the client at start-up."""
    from .harness import client

    return client.score_run(run_path, manifest_path)


def _cmd_generate(args: argparse.Namespace) -> int:
    params = GenParams(
        difficulty=Difficulty(args.difficulty),
        operators=args.ops,
        value_range=args.range,
        equation_count=args.eq_count,
        max_hop=args.max_hop,
        seed=args.seed,
    )
    out_dir = Path(args.out)
    examples = generate_batch(
        params, args.count, out_dir=None if args.no_images else out_dir
    )
    manifest_path = write_manifest(examples, out_dir / "manifest.jsonl")
    n_targets = sum(len(ex.gold_answers) for ex in examples)
    print(
        f"wrote {len(examples)} {params.difficulty.value} examples "
        f"({n_targets} target cells) to {manifest_path}"
    )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    default = STYLE_IDS[:1] if args.markdown else STYLE_IDS
    styles = tuple(args.styles.split(",")) if args.styles else default
    for style_id in styles:
        if style_id not in STYLE_IDS:
            raise MathGridError(f"unknown style {style_id!r}; choose from {STYLE_IDS}")
    if args.markdown:
        if len(styles) > 1:
            raise MathGridError(f"--markdown renders one style, got {args.styles!r}")
        grid = _read_grid(args.markdown)
        view = RenderView(args.view or "query")
        answers = _solved(grid).answers if view is RenderView.SOLUTION else None
        out = Path(args.out)
        out.write_bytes(render_image(grid, styles[0], view, args.seed or 0, answers=answers))
        print(f"wrote {out}")
        return 0
    if args.view is not None or args.seed is not None:
        raise MathGridError("--view and --seed apply to --markdown only")
    out_dir = Path(args.out)
    count = 0
    for example in load_manifest(args.manifest):
        write_example_images(out_dir, example.id, example.grid, example.gold_answers, styles)
        count += 2 * len(styles)
    print(f"wrote {count} images under {out_dir / 'images'}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    trace = _solved(_read_grid(args.markdown))
    print(
        json.dumps(
            {
                "answers": list(trace.answers),
                "hop_depths": list(trace.hop_depths),
                "trace": trace.to_json(),
            },
            ensure_ascii=False,
        )
    )
    return 0


def _cmd_export_sft(args: argparse.Namespace) -> int:
    from .harness.sft import export_sft_trajectories

    n = export_sft_trajectories(args.manifest, args.out)
    print(f"wrote {n} trajectory records to {Path(args.out)}")
    return 0


def _read_json_file(path: str) -> object:
    return parse_json(Path(path).read_text(encoding="utf-8"))


def _endpoint_from_args(args: argparse.Namespace) -> EndpointConfig:
    from .harness.client import EndpointConfig

    flags = dict(base_url=args.endpoint, model_name=args.model, auth_token_env=args.auth_env,
                 max_concurrency=args.concurrency, timeout_s=args.timeout)
    flags = {key: value for key, value in flags.items() if value not in (None, "")}
    if not args.config:
        return EndpointConfig.from_json(flags)
    # the flags alone first, so that an error in one does not name the file
    EndpointConfig.from_json({"base_url": "http://localhost", "model_name": "m", **flags})
    with located(args.config):
        data = check_type(_read_json_file(args.config), dict, "endpoint config")
        return EndpointConfig.from_json({**data, **flags})


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .harness.client import run_benchmark

    endpoint = _endpoint_from_args(args)
    modality = Modality(args.modality)
    if modality is not Modality.TEXT_ONLY and args.style not in STYLE_IDS:
        raise MathGridError(f"unknown style {args.style!r}; choose from {STYLE_IDS}")
    out = run_benchmark(args.manifest, endpoint, modality, args.style, args.out)
    print(f"run records in {out}")
    return 0


def _cmd_bench_score(args: argparse.Namespace) -> int:
    from .evaluation import format_metrics_table

    report = score_run(args.run, args.manifest)
    data = report.to_json()
    if args.out:
        Path(args.out).write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.out}")
    if args.table or not args.out:
        print(format_metrics_table(data))
    return 0


def _cmd_bench_table(args: argparse.Namespace) -> int:
    from .evaluation import format_metrics_table

    with located(args.report):
        table = format_metrics_table(_read_json_file(args.report))
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathgrid",
        description="Generate, solve, render, and benchmark cross-math puzzles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset with images")
    gen.add_argument("--difficulty", choices=[d.value for d in Difficulty], required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--ops", type=_parse_ops, default=_parse_ops("+-x/"))
    gen.add_argument("--range", type=_parse_pair, default=(50, 250), metavar="LO:HI")
    gen.add_argument("--eq-count", type=_parse_pair, default=(5, 15), metavar="MIN:MAX")
    gen.add_argument("--max-hop", type=int, default=0, help="0 = difficulty default")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--no-images", action="store_true")
    gen.set_defaults(func=_cmd_generate)

    ren = sub.add_parser("render", help="render images from a manifest or markdown")
    source = ren.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", help="render every example's images under --out")
    source.add_argument("--markdown", help="render one markdown grid file to --out")
    ren.add_argument("--styles", help="comma-separated subset of styles (one with --markdown)")
    ren.add_argument(
        "--view", choices=["query", "solution"], help="with --markdown (default query)"
    )
    ren.add_argument("--seed", type=int, help="texture seed with --markdown (default 0)")
    ren.add_argument("--out", required=True)
    ren.set_defaults(func=_cmd_render)

    sol = sub.add_parser("solve", help="solve a markdown grid (file or stdin)")
    sol.add_argument("--markdown")
    sol.set_defaults(func=_cmd_solve)

    sft = sub.add_parser("export-sft", help="emit trajectory JSONL from a manifest")
    sft.add_argument("--manifest", required=True)
    sft.add_argument("--out", required=True)
    sft.set_defaults(func=_cmd_export_sft)

    bench = sub.add_parser("bench", help="run and score endpoint benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser("run", help="drive a chat-completions endpoint")
    run.add_argument("--manifest", required=True)
    run.add_argument("--out", required=True, help="run-record JSONL path")
    run.add_argument("--endpoint", help="endpoint base URL")
    run.add_argument("--model", help="model name")
    run.add_argument(
        "--modality", choices=[m.value for m in Modality], default="text"
    )
    run.add_argument("--style", default="original", help="image style; text prompts use none")
    run.add_argument("--concurrency", type=int, default=None)
    run.add_argument("--timeout", type=float, default=None)
    run.add_argument("--auth-env", help="env var holding the bearer token")
    run.add_argument("--config", help="endpoint config JSON file")
    run.set_defaults(func=_cmd_bench_run)

    score = bench_sub.add_parser("score", help="score a run against its manifest")
    score.add_argument("--run", required=True)
    score.add_argument("--manifest", required=True)
    score.add_argument("--out", help="write report JSON here")
    score.add_argument("--table", action="store_true", help="print the text table")
    score.set_defaults(func=_cmd_bench_score)

    table = bench_sub.add_parser("table", help="print the table for a stored report")
    table.add_argument("--report", required=True)
    table.set_defaults(func=_cmd_bench_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MathGridError, ValueError, OSError) as exc:
        # ValueError covers bad parameter combinations and json.JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: bench run has kept the records written so far
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
