"""The three workloads: inputs made from the seed, one timed pass, its checks.

Every pass goes through ``mathgrid.cli.main`` in process, the path users
run. A workload's ``build`` makes its inputs in a child interpreter, so
that building them (``mathgrid generate``) leaves no mark on the
benchmark process's peak memory:

    python3 perfbench/workloads.py WORKLOAD SEED EXAMPLES WORK_DIR

``setup`` then does the light in-process part (reading what ``build``
wrote, starting the endpoint), ``run_pass`` does the timed work and
returns its figures, and ``check`` verifies that pass's outputs and
returns (operations, failed, problems). A pass's time is the sum of its
commands' times, so the calibration reference timed between them
(``calibration.py``) is not part of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from endpoint import grid_key

HERE = Path(__file__).resolve().parent

# The paper's 250-example split.
SPLIT = (("easy", 90), ("medium", 85), ("hard", 75))
STYLES = ("original", "borderless", "background", "altfontcolor")
CONCURRENCY = 2
SCORE_RUN_FILES = 8


# Set while timing: times the calibration reference before and during each
# command (see calibration.py); its time is not part of the command's.
calibrator = None


def run_cli(*argv) -> float:
    """Run one ``mathgrid`` command in process, discarding what it prints;
    return the seconds it took."""
    from mathgrid.cli import main

    argv = [str(a) for a in argv]
    sampling = contextlib.nullcontext()
    spent_s = 0.0
    if calibrator is not None:
        calibrator.sample()
        sampling, spent_s = calibrator.running(), calibrator.spent_s
    start = time.perf_counter()
    with sampling, contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    elapsed = time.perf_counter() - start
    if calibrator is not None:
        elapsed -= calibrator.spent_s - spent_s
    if code != 0:
        raise RuntimeError(f"mathgrid {' '.join(argv)} exited with {code}")
    return elapsed


def split_sizes(examples: int) -> list[tuple[str, int]]:
    """The split scaled to ``examples`` in all, at least one per difficulty."""
    total = sum(n for _, n in SPLIT)
    return [(d, max(1, round(n * examples / total))) for d, n in SPLIT]


def split_seeds(seed: int) -> dict[str, int]:
    rng = random.Random(f"perfbench-split:{seed}")
    return {difficulty: rng.randrange(2**31) for difficulty, _ in SPLIT}


def generate_split(out: Path, sizes, seeds, *, images: bool) -> Path:
    """``mathgrid generate`` per difficulty into ``out``; one merged manifest."""
    parts = []
    for difficulty, count in sizes:
        extra = () if images else ("--no-images",)
        run_cli(
            "generate", "--difficulty", difficulty, "--count", count,
            "--seed", seeds[difficulty], "--out", out, *extra,
        )
        part = out / f"manifest.{difficulty}.jsonl"
        (out / "manifest.jsonl").replace(part)
        parts.append(part)
    merged = out / "manifest.jsonl"
    merged.write_bytes(b"".join(p.read_bytes() for p in parts))
    return merged


def read_lines(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def answer_line(values) -> str:
    return "<answer>" + " ".join(str(v) for v in values) + "</answer>"


class DatasetBuild:
    """``mathgrid generate`` of the split with all 8 SVGs per example."""

    name = "dataset-build"

    def __init__(self, seed: int, examples: int):
        self.sizes = split_sizes(examples)
        self.seeds = split_seeds(seed)
        self.examples = sum(n for _, n in self.sizes)
        self.digest: str | None = None

    def build(self, work: Path) -> None:
        """Nothing to build: the timed passes make the dataset."""

    def setup(self, work: Path) -> None:
        self.work = work

    def inputs(self) -> dict:
        return {"examples": self.examples, "split": dict(self.sizes), "seeds": self.seeds}

    def run_pass(self) -> dict:
        out = self.work / "dataset"
        shutil.rmtree(out, ignore_errors=True)
        self.failed_difficulties = []
        wall = 0.0
        for difficulty, count in self.sizes:
            try:
                wall += run_cli(
                    "generate", "--difficulty", difficulty, "--count", count,
                    "--seed", self.seeds[difficulty], "--out", out / difficulty,
                )
            except Exception as exc:  # counted as failed examples by check()
                self.failed_difficulties.append(f"{difficulty}: {type(exc).__name__}: {exc}")
        return {"wall_s": wall, "ops": self.examples, "gen_examples_per_s": self.examples / wall}

    def check(self) -> tuple[int, int, list[str]]:
        """Verify the first pass in full. Every later pass must be
        byte-identical to it (manifests and SVGs), so its verdict holds."""
        out = self.work / "dataset"
        digest = tree_digest(out)
        if self.digest is None:
            self.digest, self.verdict = digest, self.verify(out)
        if digest != self.digest:
            return self.examples, self.examples, ["manifest/SVG digest differs from the first pass"]
        failed, problems = self.verdict
        return self.examples, failed, problems

    def verify(self, out: Path) -> tuple[int, list[str]]:
        from mathgrid.core import target_order
        from mathgrid.manifest import load_manifest
        from mathgrid.solver import deduce, verify_solution

        problems = list(self.failed_difficulties)
        good = 0
        for difficulty, count in self.sizes:
            if any(p.startswith(difficulty + ":") for p in problems):
                continue
            examples = load_manifest(out / difficulty / "manifest.jsonl")
            if len(examples) != count:
                problems.append(f"{difficulty}: {len(examples)} examples, expected {count}")
            images = out / difficulty / "images"
            for ex in examples:
                _, hops = deduce(ex.grid)
                svgs = [
                    images / f"{ex.id}.{view}.{style}.svg"
                    for view in ("query", "solution")
                    for style in STYLES
                ]
                if not verify_solution(ex.grid, ex.gold_answers):
                    problems.append(f"{ex.id}: gold answers do not solve the grid")
                elif tuple(hops[c] for c in target_order(ex.grid)) != ex.hop_depths:
                    problems.append(f"{ex.id}: deduce does not reproduce hop_depths")
                elif not all(p.is_file() and p.stat().st_size > 0 for p in svgs):
                    problems.append(f"{ex.id}: fewer than 8 SVGs")
                else:
                    good += 1
        return self.examples - min(good, self.examples), problems

    def close(self) -> None:
        pass


class EndpointProcess:
    """The benchmark's own endpoint, in a child process."""

    def __init__(self, table: Path, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), "--table", str(table), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.close()
            raise RuntimeError("endpoint did not start")
        self.base_url = f"http://127.0.0.1:{int(line[1])}"

    def stats(self) -> dict:
        """Counters since the last call (the endpoint resets them)."""
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("endpoint exited")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class EvalLoop:
    """``bench run`` (image-text, every style) then ``bench score`` per run file."""

    name = "eval-loop"

    def __init__(self, seed: int, examples: int):
        self.seed = seed
        self.sizes = split_sizes(examples)
        self.seeds = split_seeds(seed)
        self.examples = sum(n for _, n in self.sizes)
        self.requests = self.examples * len(STYLES)
        self.endpoint: EndpointProcess | None = None
        self.rejected: int | None = None

    def build(self, work: Path) -> None:
        manifest = generate_split(work / "data", self.sizes, self.seeds, images=True)
        table = {
            grid_key(ex["markdown"]): answer_line(ex["gold_answers"])
            for ex in read_lines(manifest)
        }
        (work / "table.json").write_text(json.dumps(table), encoding="utf-8")

    def setup(self, work: Path) -> None:
        self.work = work
        self.manifest = work / "data" / "manifest.jsonl"
        self.endpoint = EndpointProcess(work / "table.json", self.seed)
        self.config = work / "endpoint.json"
        self.config.write_text(
            json.dumps(
                {
                    "base_url": self.endpoint.base_url,
                    "model_name": "perfbench-gold",
                    "max_concurrency": CONCURRENCY,
                    "backoff_s": 0.002,
                    "timeout_s": 30,
                }
            ),
            encoding="utf-8",
        )

    def inputs(self) -> dict:
        return {
            "examples": self.examples,
            "requests": self.requests,
            "run_files": len(STYLES),
            "concurrency": CONCURRENCY,
            "split": dict(self.sizes),
            "seeds": self.seeds,
        }

    def run_pass(self) -> dict:
        runs = self.work / "runs"
        shutil.rmtree(runs, ignore_errors=True)
        runs.mkdir()
        run_s = score_s = 0.0
        for style in STYLES:
            run_s += run_cli(
                "bench", "run", "--manifest", self.manifest, "--out", runs / f"{style}.jsonl",
                "--modality", "image-text", "--style", style, "--config", self.config,
            )
        for style in STYLES:
            score_s += run_cli(
                "bench", "score", "--run", runs / f"{style}.jsonl",
                "--manifest", self.manifest, "--out", runs / f"{style}.report.json",
            )
        self.served = self.endpoint.stats()
        return {
            "wall_s": run_s + score_s,
            "ops": self.requests,
            "requests_per_s": self.requests / (run_s + score_s),
            "bench_run_s": run_s,
            "bench_score_s": score_s,
            "endpoint": self.served,
        }

    def check(self) -> tuple[int, int, list[str]]:
        runs = self.work / "runs"
        problems = []
        errors = 0
        for style in STYLES:
            records = read_lines(runs / f"{style}.jsonl")
            errors += sum(r["status"] != "ok" for r in records)
            if len(records) != self.examples:
                problems.append(f"{style}: {len(records)} records, expected {self.examples}")
            report = json.loads((runs / f"{style}.report.json").read_text(encoding="utf-8"))
            if not (report["micro"] == report["macro"] == 1.0 and report["examples"] == self.examples):
                problems.append(f"{style}: report {report} is not all-correct")
        if errors:
            problems.append(f"{errors} error records")
        served = self.served
        if served["requests"] != self.requests + served["rejected_503"]:
            problems.append(
                f"endpoint served {served['requests']} requests, expected "
                f"{self.requests} + {served['rejected_503']} retries"
            )
        if self.rejected is None:
            self.rejected = served["rejected_503"]
        elif served["rejected_503"] != self.rejected:
            problems.append("the number of 503s differs from the first pass")
        # Without error records, a failed check discredits the whole pass.
        return self.requests, errors or (self.requests if problems else 0), problems

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None


# Kinds of response in score-sweep's run files. Each record draws one
# uniformly: nothing in the paper or the repo gives the share of each kind
# in real model output, so none is favoured and every scoring path gets
# the same share. The drawn shares and response sizes go into the record.
RESPONSE_KINDS = (
    "gold",
    "hop1",  # right only at hop 1
    "short",  # one answer missing
    "surplus",  # one answer too many
    "no_block",  # no <answer> block
    "long_cot",  # multi-KB chain of thought before the gold answer
    "error",  # an error record
)


def synth_response(kind: str, gold, hops, rng: random.Random) -> tuple[str, list[bool], bool]:
    """Response text, the intended per-cell correctness and all-correct flag."""
    n = len(gold)
    if kind in ("gold", "long_cot"):
        tokens, cells = list(gold), [True] * n
    elif kind == "hop1":
        tokens = [g if h == 1 else g + 1 for g, h in zip(gold, hops)]
        cells = [h == 1 for h in hops]
    elif kind == "short":
        tokens, cells = list(gold[:-1]), [True] * (n - 1) + [False]
    elif kind == "surplus":
        tokens, cells = list(gold) + [rng.randint(1, 999)], [True] * n
    else:  # no_block, error
        return "I could not finish the grid.", [False] * n, False
    text = answer_line(tokens)
    if kind == "long_cot":
        steps = [
            f"Step {i + 1}: the equation through cell ({rng.randint(0, 20)}, "
            f"{rng.randint(0, 20)}) has two known operands, {rng.randint(1, 999)} and "
            f"{rng.randint(1, 999)}, so its third operand follows directly."
            for i in range(rng.randint(20, 60))
        ]
        text = "\n".join(steps) + "\n" + text
    else:
        text = "Solving each equation in turn.\n" + text
    return text, cells, all(cells) and len(tokens) == n


class ScoreSweep:
    """``bench score`` over synthetic run files, plus ``export-sft``."""

    name = "score-sweep"

    def __init__(self, seed: int, examples: int):
        self.seed = seed
        self.sizes = split_sizes(examples)
        self.seeds = split_seeds(seed)
        self.examples = sum(n for _, n in self.sizes)
        self.records = self.examples * SCORE_RUN_FILES

    def build(self, work: Path) -> None:
        """The manifest, the run files and the reports expected of them."""
        manifest = generate_split(work / "data", self.sizes, self.seeds, images=False)
        examples = read_lines(manifest)
        expected = []
        kb_by_kind: dict[str, list[float]] = {kind: [] for kind in RESPONSE_KINDS}
        for index in range(SCORE_RUN_FILES):
            rng = random.Random(f"perfbench-responses:{self.seed}:{index}")
            lines, scored = [], []
            for ex in examples:
                kind = rng.choice(RESPONSE_KINDS)
                text, cells, all_correct = synth_response(
                    kind, ex["gold_answers"], ex["hop_depths"], rng
                )
                record = {
                    "example_id": ex["id"],
                    "modality": "text",
                    "style_id": None,
                    "fingerprint": hashlib.sha256(f"{index}:{ex['id']}".encode()).hexdigest()[:16],
                    "response_text": text if kind != "error" else "",
                    "latency_ms": rng.randint(200, 9000),
                    "status": "ok" if kind != "error" else "error",
                }
                if kind == "error":
                    record["error"] = "HTTPError: 503 Server Error"
                lines.append(json.dumps(record, ensure_ascii=False))
                kb_by_kind[kind].append(len(record["response_text"].encode("utf-8")) / 1024)
                scored.append((ex["id"], cells, ex["hop_depths"], all_correct))
            (work / f"run{index}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected.append(expected_report(scored))
        (work / "expected.json").write_text(
            json.dumps({"reports": expected, "responses": response_stats(kb_by_kind)}),
            encoding="utf-8",
        )

    def setup(self, work: Path) -> None:
        self.work = work
        self.manifest = work / "data" / "manifest.jsonl"
        built = json.loads((work / "expected.json").read_text(encoding="utf-8"))
        self.expected, self.responses = built["reports"], built["responses"]

    def inputs(self) -> dict:
        return {
            "examples": self.examples,
            "run_files": SCORE_RUN_FILES,
            "records": self.records,
            "responses": self.responses,
            "split": dict(self.sizes),
            "seeds": self.seeds,
        }

    def run_pass(self) -> dict:
        for path in self.work.glob("*.out.*"):
            path.unlink()
        score_s = 0.0
        for index in range(SCORE_RUN_FILES):
            score_s += run_cli(
                "bench", "score", "--run", self.work / f"run{index}.jsonl",
                "--manifest", self.manifest, "--out", self.work / f"run{index}.out.json",
            )
        sft_s = run_cli(
            "export-sft", "--manifest", self.manifest, "--out", self.work / "sft.out.jsonl"
        )
        return {
            "wall_s": score_s + sft_s,
            "ops": self.records + self.examples,
            "records_scored_per_s": self.records / score_s,
            "sft_records_per_s": self.examples / sft_s,
        }

    def check(self) -> tuple[int, int, list[str]]:
        problems = []
        failed = 0
        for index, expected in enumerate(self.expected):
            report = json.loads((self.work / f"run{index}.out.json").read_text(encoding="utf-8"))
            got = {k: report[k] for k in expected}
            if not all(math.isclose(got[k], v, rel_tol=1e-9, abs_tol=1e-12) for k, v in expected.items()):
                failed += 1
                problems.append(f"run{index}: report {got}, expected {expected}")
        sft = read_lines(self.work / "sft.out.jsonl")
        gold = {ex["id"]: answer_line(ex["gold_answers"]) for ex in read_lines(self.manifest)}
        if len(sft) != self.examples or any(r["answer"] != gold.get(r["example_id"]) for r in sft):
            failed += 1
            problems.append(f"export-sft wrote {len(sft)} records, expected {self.examples} gold ones")
        return SCORE_RUN_FILES + 1, failed, problems

    def close(self) -> None:
        pass


def response_stats(kb_by_kind: dict[str, list[float]]) -> dict:
    """Share and size (KB: mean, p50, p90, max) of each kind of response."""

    def sizes(kb: list[float]) -> dict:
        if not kb:
            return {"mean_kb": 0.0, "p50_kb": 0.0, "p90_kb": 0.0, "max_kb": 0.0}
        ordered = sorted(kb)
        return {
            "mean_kb": statistics.fmean(kb),
            "p50_kb": ordered[len(ordered) // 2],
            "p90_kb": ordered[min(len(ordered) - 1, len(ordered) * 9 // 10)],
            "max_kb": ordered[-1],
        }

    every = [kb for values in kb_by_kind.values() for kb in values]
    stats = {
        kind: dict(share=len(kb) / len(every), **sizes(kb)) for kind, kb in kb_by_kind.items()
    }
    stats["all"] = dict(share=1.0, **sizes(every))
    return stats


def expected_report(scored) -> dict:
    """micro, macro and mean hop-weighted reward of the synthesized responses."""
    fractions, all_correct, rewards = [], [], []
    for _id, cells, hops, ok in sorted(scored, key=lambda s: s[0]):
        fractions.append(sum(cells) / len(cells))
        all_correct.append(ok)
        rewards.append(sum(h for h, c in zip(hops, cells) if c) / sum(hops))
    return {
        "examples": len(scored),
        "micro": sum(fractions) / len(fractions),
        "macro": sum(all_correct) / len(all_correct),
        "mean_reward": sum(rewards) / len(rewards),
    }


WORKLOADS = {w.name: w for w in (DatasetBuild, EvalLoop, ScoreSweep)}


if __name__ == "__main__":
    # The reference is timed at the start, all along the build and at the
    # end, on this process's CPU. The parent takes the time it took
    # (spent_s) out of the set-up time and scales the rest by it.
    from calibration import Calibrator

    reference = Calibrator()
    reference.sample()
    with reference.running():
        import mathgrid.cli  # noqa: F401  (its import time counts toward set-up)

        name, seed, examples, work = sys.argv[1:]
        WORKLOADS[name](int(seed), int(examples)).build(Path(work))
    reference.sample()
    built_at = time.perf_counter()
    print(
        json.dumps(
            {"built_at": built_at, "reference_s": reference.take(), "spent_s": reference.spent_s}
        )
    )
