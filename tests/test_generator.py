from __future__ import annotations

import random
from dataclasses import replace

import pytest

from mathgrid import Difficulty, GenParams, generate
from mathgrid.core import Cell, CellKind, Operator, target_order
from mathgrid import generator
from mathgrid.generator import (
    LayoutFailure,
    MAX_VALUE,
    PROFILES,
    RangeInfeasible,
    build_solved_layout,
    generate_batch,
    mix_seed,
    punch_blanks,
    sample_equation,
    sample_equation_at,
)
from mathgrid.manifest import dumps_line
from mathgrid.solver import brute_force_oracle, deduce, detect_equations

from conftest import SLOT_IDS, coords

ALL_OPS = (Operator.ADD, Operator.SUB, Operator.MUL, Operator.DIV)


class TestSampleEquation:
    @pytest.mark.parametrize("op", ALL_OPS)
    @pytest.mark.parametrize("value_range", [(1, 20), (1, 100), (50, 2600)])
    def test_triples_hold_and_stay_in_range(self, op, value_range):
        rng = random.Random(42)
        lo, hi = value_range
        for _ in range(200):
            a, b, c = sample_equation(op, value_range, rng)
            assert op.holds(a, b, c)
            assert all(lo <= v <= hi for v in (a, b, c))

    def test_subtraction_needs_room_above_lo(self):
        with pytest.raises(RangeInfeasible):
            sample_equation(Operator.SUB, (5, 5), random.Random(0))

    def test_multiplication_needs_lo_squared(self):
        with pytest.raises(RangeInfeasible):
            sample_equation(Operator.MUL, (50, 250), random.Random(0))

    def test_tight_addition_range_has_one_triple(self):
        rng = random.Random(7)
        for _ in range(20):
            assert sample_equation(Operator.ADD, (1, 2), rng) == (1, 1, 2)

    def test_division_triples_are_exact(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b, c = sample_equation(Operator.DIV, (1, 100), rng)
            assert a == b * c and a % b == 0


# Triple and next 32-bit draw at seed 2026, range [1, 100] (value 12 where a
# slot is pinned), recorded from samplers that spelled out every operator.
# Layouts stay byte-identical only while each sampler draws the same values
# in the same order.
PINNED_AT = [
    (Operator.ADD, 0, (12, 16, 28), 1372175472),
    (Operator.ADD, 1, (16, 12, 28), 1372175472),
    (Operator.ADD, 2, (2, 10, 12), 1372175472),
    (Operator.SUB, 0, (12, 2, 10), 1372175472),
    (Operator.SUB, 1, (28, 12, 16), 1372175472),
    (Operator.SUB, 2, (28, 16, 12), 1372175472),
    (Operator.MUL, 0, (12, 2, 24), 1372175472),
    (Operator.MUL, 1, (2, 12, 24), 1372175472),
    (Operator.MUL, 2, (1, 12, 12), 1372175472),
    (Operator.DIV, 0, (12, 1, 12), 1372175472),
    (Operator.DIV, 1, (24, 12, 2), 1372175472),
    (Operator.DIV, 2, (24, 2, 12), 1372175472),
]
PINNED_FREE = [
    (Operator.ADD, (16, 41, 57), 2158288730),
    (Operator.SUB, (57, 16, 41), 2158288730),
    (Operator.MUL, (16, 3, 48), 2158288730),
    (Operator.DIV, (48, 16, 3), 2158288730),
]


class TestExactRngUse:
    @pytest.mark.parametrize(
        "op, slot, triple, next_draw",
        PINNED_AT,
        ids=[f"{op}-{SLOT_IDS[slot]}-triple{i}-{draw}" for i, (op, slot, _, draw) in enumerate(PINNED_AT)],
    )
    def test_sample_equation_at(self, op, slot, triple, next_draw):
        rng = random.Random(2026)
        assert sample_equation_at(op, slot, 12, (1, 100), rng) == triple
        assert rng.getrandbits(32) == next_draw

    @pytest.mark.parametrize("op, triple, next_draw", PINNED_FREE)
    def test_sample_equation(self, op, triple, next_draw):
        rng = random.Random(2026)
        assert sample_equation(op, (1, 100), rng) == triple
        assert rng.getrandbits(32) == next_draw


class TestSampleEquationAt:
    @pytest.mark.parametrize("op", ALL_OPS)
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=SLOT_IDS)
    def test_pinned_triples_hold(self, op, slot):
        rng = random.Random(11)
        lo, hi = 1, 100
        produced = 0
        for _ in range(300):
            value = rng.randint(lo, hi)
            triple = sample_equation_at(op, slot, value, (lo, hi), rng)
            if triple is None:
                continue
            produced += 1
            a, b, c = triple
            assert op.holds(a, b, c)
            assert all(lo <= v <= hi for v in (a, b, c))
            assert triple[slot] == value
        assert produced > 100  # feasibility is the common case on [1, 100]

    def test_infeasible_pin_returns_none(self):
        rng = random.Random(0)
        # 97 is prime: no divisor pair inside [2, 96]
        assert sample_equation_at(Operator.MUL, 2, 97, (2, 96), rng) is None
        assert sample_equation_at(Operator.ADD, 2, 3, (2, 96), rng) is None
        assert sample_equation_at(Operator.ADD, 0, 95, (2, 96), rng) is None


class TestBuildSolvedLayout:
    def test_two_equation_cross(self):
        params = GenParams(
            difficulty=Difficulty.EASY,
            operators=(Operator.ADD,),
            value_range=(1, 20),
            equation_count=(2, 2),
            seed=5,
        )
        grid, equations = build_solved_layout(params, random.Random(5))
        assert len(equations) == 2
        assert len(detect_equations(grid)) == 2
        orientations = {eq.orientation for eq in equations}
        assert len(orientations) == 2  # one horizontal, one vertical

    def test_single_equation_layout_is_a_line(self):
        params = GenParams(
            difficulty=Difficulty.EASY,
            value_range=(1, 50),
            equation_count=(1, 1),
            seed=9,
        )
        grid, equations = build_solved_layout(params, random.Random(9))
        assert len(equations) == 1
        assert {grid.rows, grid.cols} == {1, 5}

    def test_reference_topology_class_is_reachable(self):
        # six equations, three per orientation, every horizontal crossed
        from mathgrid.core import Orientation

        params = GenParams(
            difficulty=Difficulty.EASY,
            value_range=(1, 100),
            equation_count=(6, 6),
            seed=0,
        )
        _, equations = build_solved_layout(params, random.Random(0))
        horizontal = [e for e in equations if e.orientation is Orientation.HORIZONTAL]
        vertical = [e for e in equations if e.orientation is Orientation.VERTICAL]
        assert len(horizontal) == 3 and len(vertical) == 3
        vertical_cells = {c for e in vertical for c in e.operands}
        assert all(
            any(c in vertical_cells for c in e.operands) for e in horizontal
        )

    def test_detected_equations_match_layout_exactly(self, mixed_corpus):
        for example in mixed_corpus[:20]:
            n_min, n_max = example.gen_params.equation_count
            assert n_min <= len(detect_equations(example.answer_grid)) <= n_max

    def test_equations_form_a_connected_graph(self, mixed_corpus):
        for example in mixed_corpus:
            equations = detect_equations(example.answer_grid)
            cell_owner = {}
            parent = list(range(len(equations)))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for eq in equations:
                for coord in eq.operands:
                    if coord in cell_owner:
                        parent[find(eq.id)] = find(cell_owner[coord])
                    else:
                        cell_owner[coord] = eq.id
            roots = {find(i) for i in range(len(equations))}
            assert len(roots) == 1

    def test_grid_cropped_to_content(self, mixed_corpus):
        for example in mixed_corpus[:20]:
            grid = example.answer_grid
            edges = [
                [grid.at((0, c)) for c in range(grid.cols)],
                [grid.at((grid.rows - 1, c)) for c in range(grid.cols)],
                [grid.at((r, 0)) for r in range(grid.rows)],
                [grid.at((r, grid.cols - 1)) for r in range(grid.rows)],
            ]
            for edge in edges:
                assert any(cell.kind is not CellKind.EMPTY for cell in edge)

    def test_numbers_respect_value_range(self, mixed_corpus):
        for example in mixed_corpus:
            lo, hi = example.gen_params.value_range
            for coord in coords(example.answer_grid):
                cell = example.answer_grid.at(coord)
                if cell.kind is CellKind.NUMBER:
                    assert lo <= cell.value <= hi

    def test_infeasible_operator_set_raises(self):
        params = GenParams(
            difficulty=Difficulty.EASY,
            operators=(Operator.MUL, Operator.DIV),
            value_range=(50, 250),
            seed=1,
        )
        with pytest.raises(RangeInfeasible):
            build_solved_layout(params, random.Random(1))

    def test_a_failed_layout_is_retried_on_the_next_rounds_seed(self, monkeypatch):
        params = GenParams(difficulty=Difficulty.MEDIUM, seed=3)
        round_1 = generate(replace(params, seed=mix_seed(params.seed, 1)))
        try_layout, calls = generator._try_layout, []

        def fail_first(*args):
            calls.append(args)
            return None if len(calls) == 1 else try_layout(*args)

        monkeypatch.setattr(generator, "_try_layout", fail_first)
        example = generate(params)
        assert len(calls) == 2
        assert (example.grid, example.trace) == (round_1.grid, round_1.trace)
        calls.clear()
        assert generate(params) == example

    def test_a_layout_that_fails_every_round_raises_layout_failure(self, monkeypatch):
        calls = []
        monkeypatch.setattr(generator, "_try_layout", lambda *args: calls.append(args))
        with pytest.raises(LayoutFailure):
            generate(GenParams(difficulty=Difficulty.EASY, seed=3))
        assert len(calls) == 30


class TestPunchBlanks:
    def test_direct_call_produces_deducible_query(self):
        params = GenParams(difficulty=Difficulty.HARD, seed=1234)
        rng = random.Random(1234)
        answer_grid, equations = build_solved_layout(params, rng)
        query, trace = punch_blanks(
            answer_grid,
            equations,
            PROFILES[Difficulty.HARD],
            rng,
            max_hop=params.max_hop,
        )
        assert trace == deduce(query)[0]  # the accepted attempt's deduction
        assert target_order(query)  # at least one blank punched
        assert max(trace.hop_depths) == len(trace.steps) <= params.max_hop
        filled = {coord: Cell.number(value) for coord, value, _ in trace.resolved}
        assert query.with_cells(filled) == answer_grid  # deduction recovers the layout

    def test_easy_gives_every_equation_exactly_one_blank(self, mixed_corpus):
        for example in mixed_corpus:
            if example.difficulty is not Difficulty.EASY:
                continue
            equations = detect_equations(example.grid)
            targets = set(target_order(example.grid))
            for eq in equations:
                blanks = [c for c in eq.operands if c in targets]
                assert len(blanks) == 1

    def test_easy_deduces_in_a_single_step(self, mixed_corpus):
        for example in mixed_corpus:
            if example.difficulty is Difficulty.EASY:
                trace, _ = deduce(example.grid)
                assert len(trace.steps) == 1

    def test_hop_depths_never_exceed_max_hop(self, mixed_corpus):
        for example in mixed_corpus:
            assert max(example.hop_depths) <= example.gen_params.max_hop

    def test_hard_produces_multiple_steps(self):
        for seed in range(30):
            params = GenParams(
                difficulty=Difficulty.HARD, equation_count=(10, 10), seed=seed
            )
            example = generate(params)
            trace, _ = deduce(example.grid)
            assert len(trace.steps) >= 2

    def test_every_equation_touches_the_task(self, mixed_corpus):
        # each equation carries a blank of its own or crosses one that does
        for example in mixed_corpus:
            targets = set(target_order(example.grid))
            for eq in detect_equations(example.grid):
                assert any(c in targets for c in eq.operands)

    def test_rejects_full_blanking_of_isolated_equation(self, appendix_grid):
        # blanking all three operands of one equation leaves < 2 knowns, so
        # the punch never emits such a set; simulate directly via deduce
        from mathgrid.render import parse_markdown

        grid = parse_markdown("| ? | + | ? | = | ? |")
        with pytest.raises(Exception):
            deduce(grid)


class TestGenerate:
    def test_same_seed_same_example(self, tmp_path):
        params = GenParams(difficulty=Difficulty.MEDIUM, seed=4242)
        a = generate(params, out_dir=tmp_path / "a")
        b = generate(params, out_dir=tmp_path / "b")
        assert dumps_line(a) == dumps_line(b)
        for style, rel in a.images.items():
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / b.images[style]
            ).read_bytes()

    def test_different_seeds_differ(self):
        a = generate(GenParams(difficulty=Difficulty.EASY, seed=1))
        b = generate(GenParams(difficulty=Difficulty.EASY, seed=2))
        assert a.markdown != b.markdown or a.gold_answers != b.gold_answers

    def test_gold_answers_in_range(self, mixed_corpus):
        for example in mixed_corpus:
            lo, hi = example.gen_params.value_range
            assert all(lo <= v <= hi for v in example.gold_answers)

    def test_easy_examples_are_all_one_hop(self, mixed_corpus):
        for example in mixed_corpus:
            if example.difficulty is Difficulty.EASY:
                assert set(example.hop_depths) == {1}

    def test_without_out_dir_no_images(self):
        example = generate(GenParams(difficulty=Difficulty.EASY, seed=77))
        assert example.images == {}

    def test_with_out_dir_writes_eight_images(self, tmp_path):
        example = generate(GenParams(difficulty=Difficulty.EASY, seed=78), out_dir=tmp_path)
        assert set(example.images) == {"original", "borderless", "background", "altfontcolor"}
        files = sorted(p.name for p in (tmp_path / "images").iterdir())
        assert len(files) == 8
        for rel in example.images.values():
            assert (tmp_path / rel).exists()

    def test_unique_solution_via_oracle(self):
        for seed in range(25):
            params = GenParams(
                difficulty=Difficulty.MEDIUM,
                equation_count=(2, 5),
                value_range=(1, 100),
                seed=seed,
            )
            example = generate(params)
            if len(example.gold_answers) <= 6:
                solutions = brute_force_oracle(example.grid, (1, 100))
                assert solutions == [list(example.gold_answers)]

    def test_difficulty_monotonicity(self):
        means = {}
        for difficulty in Difficulty:
            max_hops = [
                max(
                    generate(
                        GenParams(difficulty=difficulty, seed=mix_seed(5, i))
                    ).hop_depths
                )
                for i in range(100)
            ]
            means[difficulty] = sum(max_hops) / len(max_hops)
        assert means[Difficulty.EASY] == 1.0
        assert means[Difficulty.MEDIUM] > means[Difficulty.EASY]
        assert means[Difficulty.HARD] > means[Difficulty.MEDIUM]

    def test_generate_batch_ids_and_seeds(self):
        batch = generate_batch(GenParams(difficulty=Difficulty.EASY, seed=13), 4)
        assert [ex.id for ex in batch] == [f"easy_13_{i:04d}" for i in range(4)]
        assert len({ex.seed for ex in batch}) == 4
        again = generate_batch(GenParams(difficulty=Difficulty.EASY, seed=13), 4)
        assert [dumps_line(e) for e in batch] == [dumps_line(e) for e in again]


class TestGenParamsValidation:
    def test_easy_forces_single_hop(self):
        with pytest.raises(ValueError):
            GenParams(difficulty=Difficulty.EASY, max_hop=3)

    def test_default_max_hops(self):
        assert GenParams(difficulty=Difficulty.EASY).max_hop == 1
        assert GenParams(difficulty=Difficulty.MEDIUM).max_hop == 4
        assert GenParams(difficulty=Difficulty.HARD).max_hop == 6

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            GenParams(difficulty=Difficulty.EASY, value_range=(0, 10))
        with pytest.raises(ValueError):
            GenParams(difficulty=Difficulty.EASY, value_range=(9, 3))
        with pytest.raises(ValueError, match="above 1000000000"):
            GenParams(difficulty=Difficulty.EASY, value_range=(1, MAX_VALUE + 1))
        with pytest.raises(ValueError):
            GenParams(difficulty=Difficulty.EASY, equation_count=(0, 4))
        with pytest.raises(ValueError):
            GenParams(difficulty=Difficulty.EASY, operators=())

    def test_profiles_are_normalized(self):
        for profile in PROFILES.values():
            assert abs(sum(profile.target_hop_histogram.values()) - 1) < 1e-9
            assert abs(sum(profile.blanks_per_equation_weights.values()) - 1) < 1e-9

    def test_params_json_round_trip(self):
        params = GenParams(
            difficulty=Difficulty.HARD,
            operators=(Operator.ADD, Operator.DIV),
            value_range=(2, 99),
            equation_count=(4, 9),
            seed=123,
        )
        assert GenParams.from_json(params.to_json()) == params
