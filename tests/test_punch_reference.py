"""The punch stage draws the same random numbers as the stage it replaced.

Blank punching once kept its blanks twice, as a set per equation and then
their union, counted what the chain plan already gave in three counters
beside the plan, and decided whether a puzzle needs depth in three places.
The reference below keeps that stage (``deduce`` is called through the
``generator`` module, as the live stage calls it, so a test can replace
it in both). Given the same RNG state, the two must return the same query
and trace, or both fail, and leave the RNG in the same state: that is what
keeps every manifest and SVG byte-identical.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import replace

import pytest

from mathgrid import generator
from mathgrid.core import Coord, Difficulty, Equation, Grid, SolutionTrace, TARGET
from mathgrid.generator import (
    PROFILES,
    DifficultyProfile,
    GenParams,
    ProfileInfeasible,
    _PUNCH_RETRIES,
    _build_eq_graph,
    build_solved_layout,
    generate_batch,
)
from mathgrid.solver import Contradiction, Unsolvable

from test_golden import GRID
from test_layout_reference import _params

# -- reference implementation -----------------------------------------------


def reference_plan_chains(
    profile: DifficultyProfile, n_eq: int, max_hop: int, rng: random.Random
) -> list[int]:
    """Chain lengths to carve, deepest first; one blank lands on each hop
    level up to the chain's length.

    A chain of length L makes L-1 equations carry two blanks, so the
    profile's two-blank weight caps the total chain mass.
    """
    hist = profile.target_hop_histogram
    deep_mass = sum(hist.get(k, 0.0) for k in (2, 3, 4))
    if deep_mass == 0 or n_eq < 2 or max_hop < 2:
        return []
    two_blank_cap = int(n_eq * profile.blanks_per_equation_weights.get(2, 0.0) * 1.4) + 1
    contrib = defaultdict(int)
    plan: list[int] = []
    budget = n_eq
    two_blank_used = 0
    for level in (4, 3, 2):
        if level > max_hop:
            continue
        deficit = hist.get(level, 0.0) * n_eq - contrib[level]
        count = int(deficit) + (1 if rng.random() < deficit - int(deficit) else 0)
        for _ in range(count):
            if level < 4:
                length = level
            else:  # mostly plain 4-chains; longer ones inflate the 4+ bucket
                length = min(4 + (1 if rng.random() < 0.25 else 0), max_hop)
            length = min(length, budget, two_blank_cap - two_blank_used + 1)
            if length < 2:
                break
            plan.append(length)
            budget -= length
            two_blank_used += length - 1
            for j in range(2, length + 1):
                contrib[min(j, 4)] += 1
    if not plan:
        plan = [min(2, max_hop, n_eq)] if min(max_hop, n_eq) >= 2 else []
    return sorted(plan, reverse=True)


def reference_carve_chain(
    length: int,
    equations: list[Equation],
    cell_eqs: dict[Coord, list[int]],
    neighbors: dict[int, dict[int, Coord]],
    eq_blanks: dict[int, set[Coord]],
    rng: random.Random,
) -> list[Coord] | None:
    """Pick a path of blank-free equations and blank its junction cells.

    The tail equation of the path resolves first; each junction then enables
    the next equation, and a private cell of the head resolves last, at a
    hop depth equal to the path length.
    """
    eligible = [eq.id for eq in equations if not eq_blanks[eq.id]]
    for _ in range(30):
        if not eligible:
            return None
        path = [rng.choice(eligible)]
        while len(path) < length:
            options = [
                nxt
                for nxt in neighbors[path[-1]]
                if nxt not in path and not eq_blanks[nxt]
            ]
            if not options:
                break
            path.append(rng.choice(sorted(options)))
        if len(path) < length:
            continue
        head = equations[path[0]]
        private = [c for c in head.operands if len(cell_eqs[c]) == 1]
        if not private:
            continue
        blanks = [rng.choice(sorted(private))]
        for i in range(length - 1):
            blanks.append(neighbors[path[i]][path[i + 1]])
        # path[i] owns its private-or-incoming junction plus the outgoing one
        for i, eq_id in enumerate(path):
            eq_blanks[eq_id].add(blanks[i])
            if i + 1 < len(blanks):
                eq_blanks[eq_id].add(blanks[i + 1])
        return blanks
    return None


def reference_cover_remaining(
    equations: list[Equation],
    cell_eqs: dict[Coord, list[int]],
    eq_blanks: dict[int, set[Coord]],
    rng: random.Random,
) -> bool:
    """Give every blank-free equation exactly one blank (possibly shared)."""
    order = rng.sample(equations, len(equations))
    for eq in order:
        if eq_blanks[eq.id]:
            continue
        candidates = [
            c
            for c in eq.operands
            if all(not eq_blanks[other] for other in cell_eqs[c])
        ]
        if not candidates:
            return False
        # prefer non-shared cells so the blank count tracks the equation count
        private = [c for c in candidates if len(cell_eqs[c]) == 1]
        pool = private if private and rng.random() < 0.95 else candidates
        chosen = rng.choice(pool)
        for other in cell_eqs[chosen]:
            eq_blanks[other].add(chosen)
    return True


def reference_punch_blanks(
    answer_grid: Grid,
    equations: list[Equation],
    profile: DifficultyProfile,
    rng: random.Random,
    *,
    max_hop: int,
) -> tuple[Grid, SolutionTrace]:
    """Blank number cells so deduction recovers all of them within max_hop.

    Chains are carved first to hit the profile's deep-hop proportions
    (best effort), then every remaining equation receives one blank that
    resolves immediately. A full deduction check gates every candidate set;
    the accepted query is returned with that check's trace.
    """
    cell_eqs, neighbors = _build_eq_graph(equations)
    wants_depth = any(profile.target_hop_histogram.get(k, 0) > 0 for k in (2, 3, 4))
    can_deepen = len(equations) >= 2 and max_hop >= 2

    for attempt in range(_PUNCH_RETRIES):
        plan = reference_plan_chains(profile, len(equations), max_hop, rng)
        if attempt > _PUNCH_RETRIES // 2:
            plan = plan[: len(plan) // 2] or plan[:1]
        if attempt > (3 * _PUNCH_RETRIES) // 4 and can_deepen and wants_depth:
            plan = [2]
        eq_blanks: dict[int, set[Coord]] = defaultdict(set)
        carved_all = True
        for length in plan:
            if reference_carve_chain(length, equations, cell_eqs, neighbors, eq_blanks, rng) is None:
                carved_all = False
                break
        if not carved_all:
            continue
        if not reference_cover_remaining(equations, cell_eqs, eq_blanks, rng):
            continue
        blanks = set().union(*eq_blanks.values()) if eq_blanks else set()
        query = answer_grid.with_cells(dict.fromkeys(blanks, TARGET))
        try:
            trace, _ = generator.deduce(query, equations)  # blanking cannot change the equations
        except (Unsolvable, Contradiction):
            continue
        realized_max = len(trace.steps)
        if realized_max > max_hop:
            continue
        if wants_depth and can_deepen and realized_max < 2:
            continue
        return query, trace
    raise ProfileInfeasible(
        f"no blank set matching the profile after {_PUNCH_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------


def _outcome(punch, answer_grid, equations, profile, rng, max_hop):
    """What ``punch`` returns, or the type of what it raises."""
    try:
        return punch(answer_grid, equations, profile, rng, max_hop=max_hop)
    except ProfileInfeasible as exc:
        return type(exc)


def test_punch_blanks_agrees_with_the_reference_on_every_call(monkeypatch):
    live = generator.punch_blanks
    calls, no_depth, disagreements = 0, 0, []

    def compared(answer_grid, equations, profile, rng, *, max_hop):
        nonlocal calls, no_depth
        twin = random.Random()
        twin.setstate(rng.getstate())
        result = _outcome(live, answer_grid, equations, profile, rng, max_hop)
        expected = _outcome(reference_punch_blanks, answer_grid, equations, profile, twin, max_hop)
        if result != expected or rng.getstate() != twin.getstate():
            disagreements.append((answer_grid, profile, max_hop))
        calls += 1
        no_depth += reference_plan_chains(profile, len(equations), max_hop, random.Random(0)) == []
        if result is ProfileInfeasible:
            raise ProfileInfeasible("no blank set matching the profile")
        return result

    monkeypatch.setattr(generator, "punch_blanks", compared)
    configs = [(*config, 0) for config in GRID]
    configs += [(*config, max_hop) for config in GRID if config[0] != "easy" for max_hop in (2, 3)]
    for difficulty, value_range, equation_count, max_hop in configs:
        params = _params(difficulty, value_range, equation_count, 20261020)
        generate_batch(replace(params, max_hop=max_hop), 10)
    assert disagreements == []
    assert calls >= 840
    assert no_depth >= 100, (calls, no_depth)


@pytest.mark.parametrize("difficulty", list(Difficulty))
def test_plan_chains_agrees_with_the_reference(difficulty):
    profile = PROFILES[difficulty]
    for n_eq in range(1, 26):
        for max_hop in range(1, 8):
            for seed in range(5):
                rng, twin = random.Random(seed), random.Random(seed)
                plan = generator._plan_chains(profile, n_eq, max_hop, rng)
                assert plan == reference_plan_chains(profile, n_eq, max_hop, twin), (n_eq, max_hop, seed)
                assert rng.getstate() == twin.getstate(), (n_eq, max_hop, seed)


def test_the_late_retry_schedule_agrees_with_the_reference(monkeypatch):
    """With every deduction failing, all attempts run, the halved plans of
    attempts 101-150 and the forced 2-chains after them included."""

    def unsolvable(grid, equations=None):
        raise Unsolvable("every deduction fails here")

    monkeypatch.setattr(generator, "deduce", unsolvable)
    for difficulty in Difficulty:
        for seed in range(3):
            params = GenParams(difficulty=difficulty, equation_count=(8, 14), seed=seed)
            answer_grid, equations = build_solved_layout(params, random.Random(seed))
            rng, twin = random.Random(seed), random.Random(seed)
            profile = PROFILES[difficulty]
            for punch, side in ((generator.punch_blanks, rng), (reference_punch_blanks, twin)):
                with pytest.raises(ProfileInfeasible):
                    punch(answer_grid, equations, profile, side, max_hop=params.max_hop)
            assert rng.getstate() == twin.getstate(), (difficulty, seed)
