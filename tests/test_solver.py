from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from mathgrid.core import Coord, Operator, Orientation, target_order
from mathgrid.render import parse_markdown
from mathgrid.solver import (
    ArityMismatch,
    CapExceeded,
    Contradiction,
    MalformedGrid,
    NoIntegerSolution,
    Slot,
    Unsolvable,
    brute_force_oracle,
    deduce,
    detect_equations,
    solve_missing,
    verify_solution,
)


from conftest import answered_reference_grid, coords


def grid_of(text: str):
    return parse_markdown(text)


class TestDetectEquations:
    def test_reference_grid_topology(self, appendix_grid):
        eqs = detect_equations(appendix_grid)
        assert len(eqs) == 6
        signature = {(eq.orientation, tuple(eq.a), eq.op) for eq in eqs}
        assert signature == {
            (Orientation.HORIZONTAL, (2, 2), Operator.DIV),
            (Orientation.HORIZONTAL, (4, 0), Operator.DIV),
            (Orientation.HORIZONTAL, (6, 2), Operator.ADD),
            (Orientation.VERTICAL, (2, 0), Operator.ADD),
            (Orientation.VERTICAL, (4, 2), Operator.MUL),
            (Orientation.VERTICAL, (0, 4), Operator.ADD),
        }

    def test_ids_scan_horizontal_first_then_vertical(self, appendix_grid):
        eqs = detect_equations(appendix_grid)
        kinds = [eq.orientation for eq in eqs]
        assert kinds == [Orientation.HORIZONTAL] * 3 + [Orientation.VERTICAL] * 3
        assert [eq.id for eq in eqs] == list(range(6))
        starts_h = [tuple(eq.a) for eq in eqs[:3]]
        starts_v = [tuple(eq.a) for eq in eqs[3:]]
        assert starts_h == sorted(starts_h)
        assert starts_v == sorted(starts_v)

    def test_all_empty_grid_has_no_equations(self):
        grid = grid_of("\n".join(["|  |  |  |  |  |"] * 5))
        assert detect_equations(grid) == []

    def test_minimal_horizontal_pattern(self):
        grid = grid_of("| 7 | + | 5 | = | 12 |")
        (eq,) = detect_equations(grid)
        assert (eq.a, eq.b, eq.c) == (Coord(0, 0), Coord(0, 2), Coord(0, 4))
        assert eq.op is Operator.ADD
        assert eq.op_cell == Coord(0, 1) and eq.eq_cell == Coord(0, 3)

    def test_query_and_answer_grids_have_identical_topology(self, mixed_corpus):
        for example in mixed_corpus[:15]:
            fingerprint = lambda g: [
                (eq.id, eq.orientation, eq.a, eq.b, eq.c, eq.op)
                for eq in detect_equations(g)
            ]
            assert fingerprint(example.grid) == fingerprint(example.answer_grid)

    def test_stray_operator_is_malformed(self):
        grid = grid_of("| 3 | + | 4 |")
        with pytest.raises(MalformedGrid):
            detect_equations(grid)

    def test_six_cell_run_is_malformed(self):
        grid = grid_of("| 3 | + | 4 | = | 7 | 9 |")
        with pytest.raises(MalformedGrid):
            detect_equations(grid)

    def test_chained_equation_run_is_malformed(self):
        grid = grid_of("| 3 | + | 4 | = | 7 | + | 2 | = | 9 |")
        with pytest.raises(MalformedGrid):
            detect_equations(grid)


class TestSolveMissing:
    def test_reference_equations(self):
        assert solve_missing(Operator.ADD, Slot.A, 3, 9) == 6
        assert solve_missing(Operator.DIV, Slot.A, 3, 31) == 93
        assert solve_missing(Operator.MUL, Slot.B, 5, 40) == 8
        assert solve_missing(Operator.ADD, Slot.B, 28, 73) == 45

    def test_range_checks_live_elsewhere(self):
        # 28 = 4 x 7 even if a caller would consider 28 out of bounds
        assert solve_missing(Operator.DIV, Slot.A, 4, 7) == 28

    @pytest.mark.parametrize(
        "op, slot, k1, k2",
        [
            (Operator.DIV, Slot.C, 7, 3),  # 7 / 3 is not an integer
            (Operator.SUB, Slot.C, 3, 5),  # 3 - 5 < 1
            (Operator.ADD, Slot.A, 9, 9),  # ? + 9 = 9 forces 0
            (Operator.MUL, Slot.A, 4, 10),  # ? x 4 = 10 is fractional
            (Operator.DIV, Slot.B, 10, 4),  # 10 / ? = 4 is fractional
            (Operator.SUB, Slot.B, 4, 9),  # 4 - ? = 9 forces negative
            (Operator.MUL, Slot.A, 0, 5),  # ? x 0 = 5 has no solution
            (Operator.DIV, Slot.B, 5, 0),  # 5 / ? = 0 has no solution
        ],
    )
    def test_no_integer_solution(self, op, slot, k1, k2):
        with pytest.raises(NoIntegerSolution):
            solve_missing(op, slot, k1, k2)

    @given(
        op=st.sampled_from(list(Operator)),
        b=st.integers(1, 40),
        c=st.integers(1, 40),
    )
    def test_round_trip_each_slot(self, op, b, c):
        # build an exact triple, then recover each slot from the other two
        if op is Operator.ADD:
            a, bb, cc = b, c, b + c
        elif op is Operator.SUB:
            a, bb, cc = b + c, b, c
        elif op is Operator.MUL:
            a, bb, cc = b, c, b * c
        else:
            a, bb, cc = b * c, b, c
        assert solve_missing(op, Slot.A, bb, cc) == a
        assert solve_missing(op, Slot.B, a, cc) == bb
        assert solve_missing(op, Slot.C, a, bb) == cc


class TestDeduce:
    def test_reference_grid_single_iteration(self, appendix_grid):
        trace, hops = deduce(appendix_grid)
        assert len(trace.steps) == 1
        resolutions = {(r.coord, r.value) for r in trace.steps[0]}
        assert resolutions == {
            (Coord(0, 4), 6),
            (Coord(2, 2), 93),
            (Coord(4, 0), 45),
            (Coord(6, 2), 8),
        }
        assert trace.answers == (6, 93, 45, 8)
        assert all(hops[c] == 1 for c in target_order(appendix_grid))

    def test_duplicate_resolution_attributed_to_lower_id(self, appendix_grid):
        trace, _ = deduce(appendix_grid)
        by_coord = {r.coord: r.eq_id for r in trace.steps[0]}
        # (4,0) is solvable by horizontal eq 1 and vertical eq 4; (6,2) by 2 and 5
        assert by_coord[Coord(4, 0)] == 1
        assert by_coord[Coord(6, 2)] == 2

    def test_answer_grid_equations_give_the_same_deduction(self, mixed_corpus):
        for example in mixed_corpus:
            equations = detect_equations(example.answer_grid)
            assert deduce(example.grid, equations) == deduce(example.grid)

    def test_single_equation_with_two_unknowns_is_unsolvable(self):
        grid = grid_of("| ? | + | ? | = | 12 |")
        with pytest.raises(Unsolvable):
            deduce(grid)

    def test_target_free_grid_verifies_and_yields_no_steps(self):
        answered = answered_reference_grid()
        trace, hops = deduce(answered)
        assert trace.steps == ()
        assert hops == {}

    def test_false_equation_raises_contradiction(self):
        grid = grid_of("| 3 | + | 4 | = | 8 |")
        with pytest.raises(Contradiction):
            deduce(grid)

    def test_disagreeing_equations_raise_contradiction(self):
        grid = grid_of(
            """
            | ? | + | 2 | = | 7 |
            | - |   |   |   |   |
            | 1 |   |   |   |   |
            | = |   |   |   |   |
            | 3 |   |   |   |   |
            """
        )
        with pytest.raises(Contradiction):
            deduce(grid)

    def test_fractional_forced_value_raises_contradiction(self):
        grid = grid_of("| 10 | ÷ | ? | = | 4 |")
        with pytest.raises(Contradiction):
            deduce(grid)

    def test_causality_and_hop_depths(self, mixed_corpus):
        # every resolution depends only on originals and earlier steps, and
        # its hop depth is one more than the deepest dependency
        for example in mixed_corpus:
            trace, hops = deduce(example.grid)
            equations = {eq.id: eq for eq in detect_equations(example.grid)}
            resolved_at = {}
            for i, step in enumerate(trace.steps, start=1):
                for res in step:
                    resolved_at[res.coord] = i
            originals = {
                coord
                for coord in coords(example.grid)
                if example.grid.at(coord).kind.value == "number"
            }
            for i, step in enumerate(trace.steps, start=1):
                for res in step:
                    eq = equations[res.eq_id]
                    dep_hops = []
                    for operand in eq.operands:
                        if operand == res.coord:
                            continue
                        if operand in originals:
                            dep_hops.append(0)
                        else:
                            assert resolved_at[operand] < i
                            dep_hops.append(resolved_at[operand])
                    assert len(dep_hops) == 2
                    assert 1 + max(dep_hops) == i == hops[res.coord]


class TestVerifySolution:
    def test_reference_accept_and_reject(self, appendix_grid):
        assert verify_solution(appendix_grid, [6, 93, 45, 8]) is True
        assert verify_solution(appendix_grid, [6, 93, 45, 9]) is False

    def test_arity_mismatch(self, appendix_grid):
        with pytest.raises(ArityMismatch):
            verify_solution(appendix_grid, [6, 93])

    def test_target_free_grid(self):
        assert verify_solution(answered_reference_grid(), []) is True
        wrong = grid_of("| 3 | + | 4 | = | 8 |")
        assert verify_solution(wrong, []) is False

    def test_deduced_answers_always_verify(self, mixed_corpus):
        for example in mixed_corpus:
            assert verify_solution(example.grid, example.gold_answers) is True


class TestBruteForceOracle:
    def test_reference_unique_assignment(self, appendix_grid):
        assert brute_force_oracle(appendix_grid, (1, 100)) == [[6, 93, 45, 8]]

    def test_single_equation_in_and_out_of_range(self):
        grid = grid_of("| ? | + | 2 | = | 5 |")
        assert brute_force_oracle(grid, (1, 10)) == [[3]]
        assert brute_force_oracle(grid, (5, 10)) == []

    def test_underconstrained_grid_enumerates_everything(self):
        grid = grid_of("| ? | + | ? | = | 5 |")
        assert brute_force_oracle(grid, (1, 10)) == [
            [1, 4],
            [2, 3],
            [3, 2],
            [4, 1],
        ]

    def test_span_cap(self, appendix_grid):
        with pytest.raises(CapExceeded):
            brute_force_oracle(appendix_grid, (1, 500))

    def test_target_cap(self, mixed_corpus):
        big = next(ex for ex in mixed_corpus if len(ex.gold_answers) > 6)
        with pytest.raises(CapExceeded):
            brute_force_oracle(big.grid, (50, 250))
        # raising the cap makes the same call legal
        solutions = brute_force_oracle(
            big.grid, (50, 250), max_targets=len(big.gold_answers)
        )
        assert solutions == [list(big.gold_answers)]

    def test_inconsistent_fixed_equation_short_circuits(self):
        grid = grid_of(
            """
            | 3 | + | 4 | = | 8 |
            |   |   |   |   |   |
            | ? | + | 1 | = | 2 |
            """
        )
        assert brute_force_oracle(grid, (1, 10)) == []
