"""Network-free benchmark of the mathgrid workflow: generate, drive an
endpoint, score, export SFT.

    python3 perfbench/run.py --workload dataset-build --seed 1 --seconds 20 --trace 0

Run from anywhere; it benchmarks the mathgrid sources in ``src/`` beside
this directory, in this process, through ``mathgrid.cli.main``. It sets
up the workload several times (a child interpreter that imports
``mathgrid.cli`` and builds the inputs, then the endpoint for eval-loop)
and reports the median as ``setup_s``. Then it runs timed passes over the
same inputs for ``--seconds`` and checks every pass's outputs. As the
inputs are built in a child, ``peak_rss_mb`` is set by the timed passes
and their checks; the record gives the peak at the end of set-up too.

The host's CPU speed drifts by up to 2x for minutes at a time, so every
gated time is scaled to one speed by a fixed reference timed before and
during the commands (``calibration.py``): ``ops_per_s`` is operations per second,
and ``setup_s`` seconds, at the speed where the reference takes
``calibration.NOMINAL_S``. The record keeps the raw times beside them.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones plus ``trace.overhead_ratio``. The last line of
standard output is the result; the line before it is the full record
(environment, inputs, per-pass figures, problems). Both, and the traced
run's spans, are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="mathgrid benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--examples", type=int, default=250, help="split size (smaller for smoke checks)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.examples < 3:
        parser.error("--seconds must be > 0 and --examples >= 3")
    return args


def use_checkout_sources() -> None:
    """Import mathgrid from ``src/`` beside this directory, or exit."""
    package = SRC / "mathgrid"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no mathgrid sources at {package}")
    sys.path.insert(0, str(SRC))
    import mathgrid
    import mathgrid.cli  # noqa: F401  (imported here, not in the first timed pass)

    if Path(mathgrid.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported mathgrid from {mathgrid.__file__}, not {package}")


def build_inputs(args: argparse.Namespace, work: Path) -> dict:
    """Build the workload's inputs into ``work`` in a fresh interpreter.
    Returns when the build ended (``built_at``, a ``perf_counter`` time,
    which is system-wide on Linux), the reference times the child took on
    its own CPU along the way (``reference_s``) and the time they took in
    all (``spent_s``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [str(HERE / "workloads.py"), args.workload, str(args.seed), str(args.examples), str(work)]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE, text=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "mathgrid").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def set_up(args: argparse.Namespace, workload, run_dir: Path) -> tuple[list[dict], list[str]]:
    """Set the workload up SETUP_REPEATS times; keep the last set-up.
    A set-up's time is the child's build, up to its end and less the
    reference times it took, plus the in-process part; it is also given
    scaled by those reference times."""
    from calibration import NOMINAL_S
    from workloads import tree_digest

    times, digests = [], []
    for index in range(SETUP_REPEATS):
        work = run_dir / f"setup{index}"
        work.mkdir()
        start = time.perf_counter()
        built = build_inputs(args, work)
        started = time.perf_counter()
        workload.setup(work)
        reference = built["reference_s"]
        wall = built["built_at"] - start - built["spent_s"] + time.perf_counter() - started
        ref_s = statistics.fmean(reference)
        times.append({"wall_s": wall, "ref_s": ref_s, "calibrated_s": wall * NOMINAL_S / ref_s})
        digests.append(tree_digest(work / "data") if (work / "data").exists() else "")
        if index + 1 < SETUP_REPEATS:
            workload.close()
            shutil.rmtree(work)
    return times, digests


def measure(workload, seconds: float, tracer) -> list[dict]:
    """Timed passes for ``seconds``, each checked. With a tracer, passes
    alternate untraced and traced, and there is at least one of each.
    Each pass's time is also given scaled by the reference timed before
    and, in untraced passes, during its commands (``calibrated_s``)."""
    import workloads
    from calibration import NOMINAL_S, Calibrator
    from tracing import PassProfile

    passes: list[dict] = []
    calibrator = workloads.calibrator = Calibrator()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline or (tracer and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 1
        calibrator.in_commands = not traced
        if traced:
            tracer.install()
        try:
            result = workload.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        result["ref_s"] = statistics.fmean(calibrator.take())
        result["calibrated_s"] = result["wall_s"] * NOMINAL_S / result["ref_s"]
        if traced:
            result["http_inflight_max"] = tracer.http_inflight_max
            spans, counts = tracer.take()
            result["profile"] = PassProfile(spans, counts)
            result["spans"] = spans
        result["traced"] = traced
        result["attempted"], result["failed"], result["problems"] = workload.check()
        passes.append(result)
    workloads.calibrator = None
    return passes


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (children excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    import tracing
    from calibration import NOMINAL_S
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.examples)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times, digests = set_up(args, workload, run_dir)
        setup_rss_mb = peak_rss_mb()
        passes = measure(workload, args.seconds, tracer)
        dataset_digest = getattr(workload, "digest", None) or digests[-1]
    finally:
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [p for r in passes for p in r["problems"]]
    if tracer:
        problems += [f"no shim target {name}: layer not traced" for name in sorted(tracer.missing)]
    if len(set(digests)) != 1:
        problems.append("set-ups built different datasets from one seed")
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if problems and not failed:
        failed = 1
    plain = [r for r in passes if not r["traced"]]
    summary_keys = ("gen_examples_per_s", "requests_per_s", "records_scored_per_s", "sft_records_per_s")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs": dict(workload.inputs(), dataset_sha256=dataset_digest),
        "calibration_nominal_s": NOMINAL_S,
        "setup": setup_times,
        "rss_after_setup_mb": setup_rss_mb,
        "error_rate": failed / attempted,
        "problems": problems[:20],
        "throughput": {
            k: statistics.median(r[k] * r["ref_s"] / NOMINAL_S for r in plain)
            for k in summary_keys
            if k in plain[0]
        },
        "throughput_raw": {
            k: statistics.median(r[k] for r in plain) for k in summary_keys if k in plain[0]
        },
        "passes": [
            {k: v for k, v in r.items() if k not in ("profile", "spans", "problems")}
            for r in passes
        ],
    }

    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        traced = [r for r in passes if r["traced"]]
        layers = tracing.layer_metrics(
            [(r["profile"], r) for r in traced],
            workload.examples,
            getattr(workload, "requests", 0),
        )
        layers["trace.overhead_ratio"] = (
            statistics.median(r["calibrated_s"] for r in traced)
            / statistics.median(r["calibrated_s"] for r in plain),
            "ratio",
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        tracing.write_spans(OUT / f"spans-{stem}.jsonl", [r["spans"] for r in traced])
    else:
        metrics = {
            "ops_per_s": {
                "value": statistics.median(r["ops"] / r["calibrated_s"] for r in plain),
                "unit": "ops/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {
                "value": statistics.median(t["calibrated_s"] for t in setup_times),
                "unit": "s",
            },
        }
    record["metrics"] = metrics
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(record))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
