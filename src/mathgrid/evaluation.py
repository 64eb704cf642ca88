"""Answer extraction and accuracy/reward metrics for model predictions.

Predictions are ordered integer lists read from the last ``<answer>`` block
of a response. Scoring is positional against the gold answers; metrics are
micro (mean of per-example fractions), macro (all-correct rate), K-hop
(pooled accuracy per deduction depth), and a hop-weighted reward.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import DatasetExample, MathGridError

KHOP_BUCKETS = (1, 2, 3, 4)  # bucket 4 pools every depth >= 4


class UnknownExample(MathGridError):
    """Prediction and gold example ids do not match."""


class EmptyReport(MathGridError):
    """Metrics need at least one scored example."""


class NoSuchHop(MathGridError):
    """No gold cell has the requested hop depth."""


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


@dataclass(frozen=True)
class Prediction:
    """One model response reduced to ordered answer tokens."""

    example_id: str
    raw_text: str
    extracted: tuple[str, ...]
    parsed: tuple[int | None, ...]

    @staticmethod
    def from_text(example_id: str, raw_text: str) -> Prediction:
        tokens = tuple(extract_answers(raw_text))
        return Prediction(
            example_id=example_id,
            raw_text=raw_text,
            extracted=tokens,
            parsed=tuple(parse_token(t) for t in tokens),
        )


@dataclass(frozen=True)
class CellScore:
    index: int
    hop: int
    correct: bool


@dataclass(frozen=True)
class ExampleResult:
    """Per-example scoring: cell-level correctness plus the strict flag."""

    example_id: str
    scores: tuple[CellScore, ...]
    all_correct: bool


def score_example(pred: Prediction, gold: DatasetExample) -> list[CellScore]:
    """Positional comparison of parsed answers against the gold list.

    Position i is correct iff a valid integer was produced there and equals
    the gold value; missing positions are wrong. Surplus tokens do not
    affect cell scores (see :func:`evaluate_prediction` for the strict flag).
    """
    if pred.example_id != gold.id:
        raise UnknownExample(f"prediction for {pred.example_id!r}, gold is {gold.id!r}")
    scores = []
    for i, (answer, hop) in enumerate(zip(gold.gold_answers, gold.hop_depths)):
        value = pred.parsed[i] if i < len(pred.parsed) else None
        scores.append(CellScore(index=i, hop=hop, correct=value == answer))
    return scores


def evaluate_prediction(pred: Prediction, gold: DatasetExample) -> ExampleResult:
    """Cell scores plus the all-correct flag (surplus answers fail it)."""
    scores = score_example(pred, gold)
    all_correct = all(s.correct for s in scores) and len(pred.parsed) == len(
        gold.gold_answers
    )
    return ExampleResult(gold.id, tuple(scores), all_correct)


def micro_accuracy(results: Iterable[ExampleResult]) -> float:
    """Mean over examples of the per-example fraction of correct cells."""
    results = list(results)
    if not results:
        raise EmptyReport("no examples to aggregate")
    fractions = []
    for res in results:
        if not res.scores:
            raise EmptyReport(f"example {res.example_id} has no target cells")
        fractions.append(sum(s.correct for s in res.scores) / len(res.scores))
    return sum(fractions) / len(fractions)


def macro_accuracy(results: Iterable[ExampleResult]) -> float:
    """Fraction of examples answered completely correctly."""
    results = list(results)
    if not results:
        raise EmptyReport("no examples to aggregate")
    return sum(res.all_correct for res in results) / len(results)


def _khop_counts(results: Iterable[ExampleResult]) -> dict[int, tuple[int, int]]:
    """Right and seen cells of each K-hop bucket that has any, in bucket
    order, from one pass over the cell scores; bucket 4 pools depths >= 4."""
    right: Counter[int] = Counter()
    seen: Counter[int] = Counter()
    for res in results:
        for s in res.scores:
            seen[s.hop] += 1
            right[s.hop] += s.correct
    bucket_right: Counter[int] = Counter()
    bucket_seen: Counter[int] = Counter()
    for hop, n in seen.items():
        bucket_right[min(hop, 4)] += right[hop]
        bucket_seen[min(hop, 4)] += n
    return {k: (bucket_right[k], bucket_seen[k]) for k in KHOP_BUCKETS if bucket_seen[k]}


def khop_accuracy(results: Iterable[ExampleResult], k: int) -> float:
    """Pooled accuracy over all cells of hop depth k (k=4 pools depths >= 4).

    One flat sum across the dataset; no per-example averaging.
    """
    if k not in KHOP_BUCKETS:
        raise ValueError(f"k must be one of {KHOP_BUCKETS}")
    counts = _khop_counts(results)
    if k not in counts:
        raise NoSuchHop(f"no cells with hop depth {'4+' if k == 4 else k}")
    right, seen = counts[k]
    return right / seen


def weighted_reward(
    scores: Iterable[CellScore],
    weight_fn: Callable[[int], float] = lambda hop: float(hop),
) -> float:
    """Hop-weighted fraction of correct cells: sum(w*correct) / sum(w).

    The default weight equals the hop depth, so later-chain cells count
    more; any positive weight function may be substituted.
    """
    scores = list(scores)
    if not scores:
        raise EmptyScores("reward needs at least one cell")
    weights = [weight_fn(s.hop) for s in scores]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    total = sum(weights)
    return sum(w for w, s in zip(weights, scores) if s.correct) / total


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics over a scored run."""

    per_example: tuple[ExampleResult, ...]
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
            "examples": len(self.per_example),
        }


def format_metrics_table(report_json: dict) -> str:
    """Fixed-width text table of the headline metrics, in percent."""

    def pct(value: float | None) -> str:
        return "   -  " if value is None else f"{100 * value:6.2f}"

    khop = report_json.get("khop", {})
    headers = ["Micro Acc", "Macro Acc", "1 Hop", "2 Hops", "3 Hops", "4+ Hops"]
    values = [
        pct(report_json.get("micro")),
        pct(report_json.get("macro")),
        pct(khop.get("1")),
        pct(khop.get("2")),
        pct(khop.get("3")),
        pct(khop.get("4plus")),
    ]
    widths = [max(len(h), 6) for h in headers]
    head = " | ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = " | ".join(v.rjust(w) for v, w in zip(values, widths))
    rule = "-+-".join("-" * w for w in widths)
    return "\n".join([head, rule, row])


def build_report(results: Iterable[ExampleResult]) -> EvalReport:
    """Assemble the full report; K-hop buckets absent from gold are omitted."""
    results = tuple(results)
    if not results:
        raise EmptyReport("no examples to aggregate")
    khop = {k: right / seen for k, (right, seen) in _khop_counts(results).items()}
    rewards = [weighted_reward(res.scores) for res in results]
    return EvalReport(
        per_example=results,
        micro=micro_accuracy(results),
        macro=macro_accuracy(results),
        khop=khop,
        mean_reward=sum(rewards) / len(rewards),
    )
