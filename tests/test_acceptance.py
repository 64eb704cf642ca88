"""Acceptance suite: every release criterion, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from mathgrid import Difficulty, GenParams, generate
from mathgrid.core import CellKind, target_order
from mathgrid.cli import main
from mathgrid.evaluation import CellScore, build_report, weighted_reward
from mathgrid.generator import mix_seed
from mathgrid.harness import Modality, build_prompt, run_benchmark, score_run
from mathgrid.harness.prompts import TextPart
from mathgrid.manifest import write_manifest
from mathgrid.render import RenderView, STYLE_IDS, parse_markdown, render_image, to_markdown
from mathgrid.render.svg import extract_text_cells
from mathgrid.render.markdown import cell_text
from mathgrid.solver import brute_force_oracle, deduce, detect_equations, verify_solution

from conftest import REFERENCE_MARKDOWN, coords, scored
from endpointmock import MockEndpoint


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def oracle_corpus():
    """Small-layout puzzles whose target count fits the oracle caps."""
    recipes = [
        (Difficulty.EASY, (2, 5), (1, 100)),
        (Difficulty.MEDIUM, (3, 5), (1, 100)),
        (Difficulty.EASY, (2, 5), (50, 250)),
        (Difficulty.MEDIUM, (3, 5), (50, 250)),
        (Difficulty.HARD, (4, 6), (1, 100)),
    ]
    kept, attempted = [], 0
    index = 0
    while len(kept) < 520:
        difficulty, eq_count, value_range = recipes[index % len(recipes)]
        params = GenParams(
            difficulty=difficulty,
            equation_count=eq_count,
            value_range=value_range,
            seed=mix_seed(2024, index),
        )
        index += 1
        attempted += 1
        example = generate(params)
        if len(example.gold_answers) <= 6:
            kept.append(example)
    assert len(kept) / attempted > 0.7, "generator yields too many oversized puzzles"
    return kept


@pytest.fixture(scope="module")
def stratified_dataset(tmp_path_factory):
    """250 examples, 90/85/75 easy/medium/hard, with images and a manifest."""
    root = tmp_path_factory.mktemp("acceptance_dataset")
    examples = []
    for difficulty, count in (
        (Difficulty.EASY, 90),
        (Difficulty.MEDIUM, 85),
        (Difficulty.HARD, 75),
    ):
        for i in range(count):
            params = GenParams(difficulty=difficulty, seed=mix_seed(777, 1000 * ord(difficulty.value[0]) + i))
            examples.append(
                generate(
                    params,
                    out_dir=root,
                    example_id=f"{difficulty.value}_{i:04d}",
                )
            )
    write_manifest(examples, root / "manifest.jsonl")
    return root, examples


def test_criterion_1_reference_fixture():
    with criterion(1, "reference puzzle: 6 equations, answers [6, 93, 45, 8], all 1-hop"):
        grid = parse_markdown(REFERENCE_MARKDOWN)
        equations = detect_equations(grid)
        assert len(equations) == 6
        oracle = brute_force_oracle(grid, (1, 100))
        assert oracle == [[6, 93, 45, 8]]  # independent derivation of the answers
        trace, hops = deduce(grid)
        answers = trace.answers
        assert answers == (6, 93, 45, 8)
        assert [hops[c] for c in target_order(grid)] == [1, 1, 1, 1]
        assert verify_solution(grid, answers) is True


def test_criterion_2_oracle_equivalence(oracle_corpus):
    with criterion(2, "brute-force oracle finds exactly one assignment equal to deduce on 500+ puzzles"):
        started = time.monotonic()
        assert len(oracle_corpus) >= 500
        for example in oracle_corpus:
            lo, hi = example.gen_params.value_range
            solutions = brute_force_oracle(example.grid, (lo, hi))
            assert solutions == [list(example.gold_answers)], example.id
        assert time.monotonic() - started < 300


def test_criterion_3_markdown_round_trip(oracle_corpus, stratified_dataset):
    with criterion(3, "markdown round-trip is the identity on 1000+ generated grids"):
        _, examples = stratified_dataset
        grids = [ex.grid for ex in oracle_corpus + examples]
        grids += [ex.answer_grid for ex in oracle_corpus]
        assert len(grids) >= 1000
        for grid in grids:
            assert parse_markdown(to_markdown(grid)) == grid


def test_criterion_4_difficulty_stratification(stratified_dataset):
    with criterion(4, "easy is exactly 1-hop; hard averages 8-13 problems incl. 3-hop and 4+"):
        _, examples = stratified_dataset
        easy = [ex for ex in examples if ex.difficulty is Difficulty.EASY]
        hard = [ex for ex in examples if ex.difficulty is Difficulty.HARD]
        assert len(easy) == 90 and len(hard) == 75
        assert all(set(ex.hop_depths) == {1} for ex in easy)  # exactly zero beyond 1 hop
        hard_sizes = [len(ex.gold_answers) for ex in hard]
        mean_problems = sum(hard_sizes) / len(hard_sizes)
        assert 8 <= mean_problems <= 13
        overall = [len(ex.gold_answers) for ex in examples]
        assert 8 <= sum(overall) / len(overall) <= 13
        all_hard_hops = [h for ex in hard for h in ex.hop_depths]
        assert any(h == 3 for h in all_hard_hops)
        assert any(h >= 4 for h in all_hard_hops)


def test_criterion_5_metric_formulas():
    with criterion(5, "micro/macro formulas exact on fixtures; macro <= micro on 10,000 masks"):
        fixture = [scored("a", [True] * 4), scored("b", [True, True, False, False])]
        report = build_report(fixture)
        assert report.micro == 0.75
        assert report.macro == 0.5
        rng = random.Random(0)
        for _ in range(10_000):
            n_examples = rng.randint(1, 6)
            results = []
            for j in range(n_examples):
                mask = [rng.random() < 0.5 for _ in range(rng.randint(1, 8))]
                results.append(scored(str(j), mask))
            report = build_report(results)
            assert report.macro <= report.micro + 1e-12


def test_criterion_6_reward_formula():
    with criterion(6, "hop-weighted reward: fixture 0.5 exact, monotone, all-correct gives 1.0"):
        fixture = [CellScore(1, True), CellScore(1, True), CellScore(2, False)]
        assert weighted_reward(fixture) == 0.5
        rng = random.Random(1)
        for _ in range(2_000):
            n = rng.randint(1, 10)
            hops = [rng.randint(1, 6) for _ in range(n)]
            mask = [rng.random() < 0.5 for _ in range(n)]
            if all(mask):
                mask[rng.randrange(n)] = False
            flip = rng.choice([i for i, ok in enumerate(mask) if not ok])
            improved = list(mask)
            improved[flip] = True
            before = weighted_reward(
                [CellScore(h, ok) for h, ok in zip(hops, mask)]
            )
            after = weighted_reward(
                [CellScore(h, ok) for h, ok in zip(hops, improved)]
            )
            assert after > before
            assert 0.0 <= before < 1.0
        perfect = [CellScore(h, True) for h in (1, 2, 5)]
        assert weighted_reward(perfect) == 1.0


def test_criterion_7_modality_equivalence(stratified_dataset):
    with criterion(7, "prompt markdown matches manifest bytes; SVG text reproduces every cell"):
        root, examples = stratified_dataset
        for example in examples:
            text_bundle = build_prompt(example, Modality.TEXT_ONLY)
            both_bundle = build_prompt(example, Modality.IMAGE_TEXT, "original", root)
            for bundle in (text_bundle, both_bundle):
                body = next(p.text for p in bundle if isinstance(p, TextPart))
                # templates contain no table rows: the grid lines of the
                # prompt must BE the manifest markdown, byte for byte
                grid_lines = [l for l in body.splitlines() if l.startswith("|")]
                assert "\n".join(grid_lines) + "\n" == example.markdown
            expected_cells = {
                coord: cell_text(example.grid.at(coord))
                for coord in coords(example.grid)
                if example.grid.at(coord).kind is not CellKind.EMPTY
            }
            for style_id in STYLE_IDS:
                svg = render_image(
                    example.grid, style_id, RenderView.QUERY, rng_seed=1
                )
                assert dict(extract_text_cells(svg)) == expected_cells


def test_criterion_8_closed_loop_harness(dataset_dir, tmp_path):
    with criterion(8, "mock-endpoint loop: gold echo scores 1.0; hop-limited splits k-hop; concurrency bounded"):
        from mathgrid.harness import EndpointConfig

        manifest = dataset_dir / "manifest.jsonl"

        with MockEndpoint(manifest, latency_s=0.02) as server:
            config = EndpointConfig(
                base_url=server.base_url,
                model_name="mock",
                max_concurrency=3,
                backoff_s=0.01,
            )
            run_path = run_benchmark(
                manifest, config, Modality.TEXT_ONLY, None, tmp_path / "gold.jsonl"
            )
            assert server.max_inflight <= 3
        report = score_run(run_path, manifest)
        assert report.micro == 1.0 and report.macro == 1.0

        with MockEndpoint(manifest, mode="hop1") as server:
            config = EndpointConfig(
                base_url=server.base_url, model_name="mock", backoff_s=0.01
            )
            run_path = run_benchmark(
                manifest, config, Modality.TEXT_ONLY, None, tmp_path / "hop1.jsonl"
            )
        report = score_run(run_path, manifest)
        assert report.khop[1] == 1.0
        deep_buckets = [k for k in (2, 3, 4) if k in report.khop]
        assert deep_buckets, "fixture dataset must contain multi-hop cells"
        assert all(report.khop[k] == 0.0 for k in deep_buckets)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "generate --seed twice yields byte-identical manifests and images"):
        args = [
            "generate",
            "--difficulty",
            "hard",
            "--count",
            "4",
            "--seed",
            "31337",
            "--out",
        ]
        assert main(args + [str(tmp_path / "a")]) == 0
        assert main(args + [str(tmp_path / "b")]) == 0
        manifest_a = (tmp_path / "a" / "manifest.jsonl").read_bytes()
        manifest_b = (tmp_path / "b" / "manifest.jsonl").read_bytes()
        assert manifest_a == manifest_b
        images_a = sorted((tmp_path / "a" / "images").iterdir())
        images_b = sorted((tmp_path / "b" / "images").iterdir())
        assert [p.name for p in images_a] == [p.name for p in images_b]
        assert len(images_a) == 4 * 8
        for pa, pb in zip(images_a, images_b):
            assert pa.read_bytes() == pb.read_bytes()
