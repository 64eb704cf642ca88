"""Answer extraction and accuracy/reward metrics for model predictions.

Predictions are ordered integer lists read from the last ``<answer>`` block
of a response. Scoring is positional against the gold answers; metrics are
micro (mean of per-example fractions), macro (all-correct rate), K-hop
(pooled accuracy per deduction depth), and a hop-weighted reward.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, NamedTuple

from .core import DatasetExample, MathGridError, check_type

KHOP_BUCKETS = (1, 2, 3, 4)  # bucket 4 pools every depth >= 4


class UnknownExample(MathGridError):
    """Prediction and gold example ids do not match."""


class EmptyReport(MathGridError):
    """Metrics need at least one scored example."""


class EmptyScores(MathGridError):
    """Reward needs at least one cell score."""


_ANSWER_BLOCK = re.compile(r"<answer>(.*?)</answer>", re.DOTALL | re.IGNORECASE)
_WRAPPING = ".,;:!?()[]{}<>\"'`"


def extract_answers(raw_text: str) -> list[str]:
    """Tokens of the last well-formed answer block; [] when none exists."""
    blocks = _ANSWER_BLOCK.findall(raw_text or "")
    if not blocks:
        return []
    return blocks[-1].split()


def parse_token(token: str) -> int | None:
    """Integer value of a token, or None when it is not a plain number.

    Wrapping punctuation and thousands separators are tolerated; anything
    else (signs, decimals, words), and a number too long for ``int()``,
    does not count as a valid answer.
    """
    cleaned = token.strip().strip(_WRAPPING).replace(",", "")
    if cleaned.isascii() and cleaned.isdigit():
        try:
            return int(cleaned)
        except ValueError:  # more digits than int() converts
            return None
    return None


def _sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, the one ``sum()`` gives before Python 3.12;
    3.12's compensated ``sum()`` would move a report's last digits with the
    interpreter."""
    return reduce(operator.add, values, 0)


@dataclass(frozen=True)
class Prediction:
    """One model response reduced to the parsed tokens of its last answer
    block, in order; None where a token is not a plain number."""

    example_id: str
    parsed: tuple[int | None, ...]

    @staticmethod
    def from_text(example_id: str, raw_text: str) -> Prediction:
        return Prediction(example_id, tuple(parse_token(t) for t in extract_answers(raw_text)))


class CellScore(NamedTuple):
    """One gold cell: its hop depth and whether the prediction got it."""

    hop: int
    correct: bool


@dataclass(frozen=True)
class ExampleResult:
    """Per-example scoring: cell-level correctness plus the strict flag."""

    example_id: str
    scores: tuple[CellScore, ...]
    all_correct: bool


def evaluate_prediction(pred: Prediction, gold: DatasetExample) -> ExampleResult:
    """Positional comparison of parsed answers against the gold list.

    Position i is correct iff a valid integer was produced there and equals
    the gold value; missing positions are wrong. Surplus tokens do not
    affect cell scores, but they fail the all-correct flag.
    """
    if pred.example_id != gold.id:
        raise UnknownExample(f"prediction for {pred.example_id!r}, gold is {gold.id!r}")
    padded = pred.parsed + (None,) * len(gold.gold_answers)
    scores = tuple(
        CellScore(hop, value == answer)
        for answer, hop, value in zip(gold.gold_answers, gold.hop_depths, padded)
    )
    all_correct = all(s.correct for s in scores) and len(pred.parsed) == len(
        gold.gold_answers
    )
    return ExampleResult(gold.id, scores, all_correct)


def weighted_reward(scores: Iterable[CellScore]) -> float:
    """Hop-weighted fraction of correct cells: each cell weighs its hop
    depth, so later-chain cells count more. Both sums are of ints, so exact."""
    scores = list(scores)
    if not scores:
        raise EmptyScores("reward needs at least one cell")
    if min(hop for hop, _ in scores) < 1:
        raise ValueError("weights must be positive")
    return sum(hop for hop, correct in scores if correct) / sum(hop for hop, _ in scores)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics over a scored run."""

    examples: int
    micro: float
    macro: float
    khop: dict[int, float]
    mean_reward: float

    def to_json(self) -> dict:
        khop_json = {}
        for k in KHOP_BUCKETS:
            if k in self.khop:
                khop_json["4plus" if k == 4 else str(k)] = self.khop[k]
        return {
            "micro": self.micro,
            "macro": self.macro,
            "khop": khop_json,
            "mean_reward": self.mean_reward,
            "examples": self.examples,
        }


def format_metrics_table(report_json: object) -> str:
    """Fixed-width text table of the headline metrics, in percent.

    A metric that is absent or null shows as "-". Raises ValueError naming
    a key whose value has the wrong JSON type.
    """
    check_type(report_json, dict, "report")
    khop = check_type(report_json.get("khop", {}), dict, "khop")

    def pct(key: str, value: object) -> str:
        if value is None:
            return "   -  "
        return f"{100 * check_type(value, float, key):6.2f}"

    headers = ["Micro Acc", "Macro Acc", "1 Hop", "2 Hops", "3 Hops", "4+ Hops"]
    values = [pct(key, report_json.get(key)) for key in ("micro", "macro")]
    values += [pct(f"khop.{key}", khop.get(key)) for key in ("1", "2", "3", "4plus")]
    widths = [max(len(h), 6) for h in headers]
    head = " | ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = " | ".join(v.rjust(w) for v, w in zip(values, widths))
    rule = "-+-".join("-" * w for w in widths)
    return "\n".join([head, rule, row])


def build_report(results: Iterable[ExampleResult]) -> EvalReport:
    """Micro, macro, K-hop and mean reward from one pass over the results.

    K-hop is one flat sum per depth across the run, with no per-example
    averaging; bucket 4 pools depths >= 4, and buckets absent from gold are
    omitted.
    """
    fractions: list[float] = []
    rewards: list[float] = []
    perfect = 0
    # cells seen and cells right per bucket; index 0 stays unused, as
    # weighted_reward rejects a hop below 1 before its cells are tallied
    seen = [0] * 5
    right = [0] * 5
    for res in results:
        rewards.append(weighted_reward(res.scores))  # EmptyScores for a result without cells
        fractions.append(sum(s.correct for s in res.scores) / len(res.scores))
        perfect += res.all_correct
        for hop, correct in res.scores:
            bucket = hop if hop < 4 else 4
            seen[bucket] += 1
            right[bucket] += correct
    if not fractions:
        raise EmptyReport("no examples to aggregate")
    return EvalReport(
        examples=len(fractions),
        micro=_sum(fractions) / len(fractions),
        macro=perfect / len(fractions),
        khop={k: right[k] / seen[k] for k in KHOP_BUCKETS if seen[k]},
        mean_reward=_sum(rewards) / len(rewards),
    )
