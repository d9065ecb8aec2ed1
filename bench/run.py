"""molmine benchmark: three corpus shapes through ``molmine.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload giant|archipelago|spectrum|all \\
        --seed N --seconds S --trace 0|1

One run generates the workload's corpus from the seed, then runs whole rounds
of the workload's CLI operations for about S seconds, each round in a fresh
child process (``worker.py``). Each round runs pinned to one CPU, the
quietest one at the time, while ``pace.py`` samples that CPU's speed. Every
round's artifacts are hashed and must match the first round's and those of
earlier runs of the same code and seed; the first round's artifacts go
through the independent checker in ``check.py``.

With ``--trace 0`` the run reports the end-to-end metrics: ``analysis_s``
(median over the rounds of the round's time at nominal CPU speed),
``peak_rss_mib`` (median of the rounds' ``ru_maxrss``) and ``setup_s``
(median time from a fresh interpreter to ``molmine.cli`` imported, sampled
before every round and after the last). With ``--trace 1`` the rounds
alternate untraced and traced and the run reports per-layer self times and
counts instead (see README.md). The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_round, digests
from pace import ReferenceClock
from spans import layer_times
from workloads import SHAPES, generate, operations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3  # before every round and after the last
DEADLINE_S = 170.0

# span name -> reported self-time metric
TIMED = {
    "ingest.parse": "ingest.parse_s",
    "ingest.bucket": "ingest.bucket_s",
    "rules.mine": "rules.mine_s",
    "rules.csv": "rules.csv_s",
    "graph.build": "graph.build_s",
    "decompose.communities": "decompose.communities_s",
    "decompose.attributes": "decompose.attributes_s",
    "decompose.json": "decompose.json_s",
    "dot.render": "dot.render_s",
    "cluster.hcluster": "cluster.hcluster_s",
    "cluster.json": "cluster.json_s",
    "temporal.match": "temporal.match_s",
    "temporal.noise": "temporal.noise_s",
    "temporal.json": "temporal.json_s",
    "cli": "cli.self_s",
}
COUNTED = (
    "ingest.records", "rules.candidate_pairs", "rules.rules", "graph.edges",
    "decompose.communities", "decompose.largest_nuclei", "cluster.leaves",
    "cluster.distinct_vectors", "cluster.largest_identical", "temporal.timelines",
)


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    return time.perf_counter() - start


def pin_to_quietest_cpu(cpus: list[int]) -> None:
    """Pin this process, and so the children it starts next, to the CPU on
    which a short fixed loop runs fastest right now.

    On a shared host a vCPU can run at half speed for seconds to minutes
    while other tenants load its physical core, and the vCPUs do not always
    slow down together; starting each round on the quieter one keeps part of
    that out of the figures while the round still runs on a single CPU.
    """
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_spin() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_sample(env: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter to ``molmine.cli`` imported."""
    code = "import molmine.cli; print(molmine.cli.__file__, flush=True)"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not inside_src(line.strip()):
        raise RuntimeError(f"molmine.cli did not import from {SRC}: {line.strip()!r}")
    return elapsed


def code_digest() -> str:
    """Hash of the program and of the benchmark (which makes the inputs)."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "molmine").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(workload: str, seed: int, found: dict) -> list[str]:
    """Artifacts of the same code and seed must hash the same in every run."""
    store = WORK / "digests" / f"{workload}-{seed}-{code_digest()}.json"
    if store.is_file():
        earlier = json.loads(store.read_text())
        differ = sorted(k for k in earlier.keys() | found.keys() if earlier.get(k) != found.get(k))
        return [f"artifact differs from an earlier run of the same code: {k}" for k in differ]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(found, indent=1, sort_keys=True))
    return []


def run_round(work: Path, index: int, traced: bool, env: dict[str, str], deadline: float) -> dict:
    """One round in a fresh worker process; artifacts go to ``r<index>``."""
    out, result = f"r{index}", f"result{index}.json"
    (work / out).mkdir()
    with open(work / "worker.log", "a") as log:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "spec.json", out, str(int(traced)), result],
            cwd=work, env=env, stdout=log, stderr=log, timeout=max(1.0, deadline - time.perf_counter()),
        )
    if proc.returncode != 0:
        tail = (work / "worker.log").read_text()[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
    r = json.loads((work / result).read_text())
    if not inside_src(r["molmine"]):
        raise RuntimeError(f"worker imported molmine from {r['molmine']}, not {SRC}")
    clock = ReferenceClock(r.pop("samples"))
    r.update(dir=out, traced=traced, clock=clock, wall=r["end"] - r["start"],
             seconds=clock.seconds(r["start"], r["end"]))
    return r


def run_workload(workload: str, seed: int, seconds: int, trace: bool, work: Path,
                 cpus: list[int]) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    cycle = 2 if trace else 1
    corpus = generate(workload, seed)
    input_name = f"input.{corpus.shape.suffix}"
    (work / input_name).write_text(corpus.text, encoding="utf-8")
    env = child_env()
    setup: list[float] = []

    spec = {"ops": operations(corpus.shape, input_name)}
    (work / "spec.json").write_text(json.dumps(spec))
    tags = [tag for tag, _ in spec["ops"]]
    rounds = []
    measured = 0.0
    # whole rounds while the next (estimated by the last) ends in time;
    # traced runs alternate untraced and traced rounds in pairs
    while not rounds or measured + sum(r["wall"] for r in rounds[-cycle:]) <= seconds:
        for traced in (False, True)[:cycle]:
            pin_to_quietest_cpu(cpus)
            if not trace:
                setup += [setup_sample(env) for _ in range(SETUP_SAMPLES)]
            r = run_round(work, len(rounds), traced, env, deadline)
            rounds.append(r)
            measured += r["wall"]
    if not trace:
        pin_to_quietest_cpu(cpus)
        setup += [setup_sample(env) for _ in range(SETUP_SAMPLES)]

    problems = []
    if len({tuple(r["codes"]) for r in rounds}) != 1:
        problems.append("operations failed differently in different rounds")
    failed_tags = {t for t, code in zip(tags, rounds[0]["codes"]) if code != 0}
    try:
        found, counts = check_round(corpus, input_name, work / rounds[0]["dir"], failed_tags)
        problems += found
    except (KeyError, TypeError, ValueError) as exc:  # malformed artifact
        problems.append(f"checker could not read the artifacts: {type(exc).__name__}: {exc}")
        counts = {}
    first = digests(work / rounds[0]["dir"])
    for r in rounds[1:]:
        if digests(work / r["dir"]) != first:
            problems.append(f"round {r['dir']} artifacts differ from round {rounds[0]['dir']}")
    problems += compare_with_earlier_runs(workload, seed, first)

    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "failed_ops": sorted(failed_tags),
        "problems": problems,
        "correct": not problems,
        "attempted": len(tags) * len(rounds),
        "failed": sum(1 for r in rounds for code in r["codes"] if code != 0),
        "wall": statistics.median(r["wall"] for r in rounds if not r["traced"]),
    }
    if not trace:
        report["metrics"] = {
            "analysis_s": (statistics.median(untraced), "s"),
            "peak_rss_mib": (statistics.median([r["peak_rss_kib"] for r in rounds]) / 1024, "MiB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        return report

    per_round = []
    for r in rounds:
        if not r["traced"]:
            continue
        selfs, covered = layer_times(r["spans"], r["clock"].seconds)
        values = {metric: selfs.get(span, 0.0) for span, metric in TIMED.items()}
        values["trace.coverage"] = covered / r["seconds"]
        values["trace.spans"] = len(r["spans"])
        per_round.append(values)
    units = {"trace.coverage": "ratio", "trace.spans": "count"}
    metrics = {}
    for metric in per_round[0]:
        metrics[metric] = (statistics.median([v[metric] for v in per_round]), units.get(metric, "s"))
    traced = [r["seconds"] for r in rounds if r["traced"]]
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    for name in COUNTED:
        metrics[name] = (counts.get(name, 0), "count")
    candidates = 2 * counts.get("rules.candidate_pairs", 0)
    metrics["rules.yield"] = (counts.get("rules.rules", 0) / candidates if candidates else 0.0, "ratio")
    report["metrics"] = metrics
    return report


def emit(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: {report['rounds']} rounds, "
          f"{report['attempted']} operations attempted, {report['failed']} failed"
          + (f" ({', '.join(report['failed_ops'])})" if report["failed_ops"] else "")
          + f"; untraced rounds' median wall time {report['wall']:.3f} s")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name} {value:.6g} {unit}")
    layers: dict[str, float] = {}
    for name, (value, unit) in report["metrics"].items():
        if name in TIMED.values():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + value
    if layers:
        total = sum(layers.values())
        shares = sorted(layers.items(), key=lambda kv: -kv[1])
        print("  layer shares of traced self time: "
              + ", ".join(f"{layer} {value / total:.1%}" for layer, value in shares))
    for problem in report["problems"][:20]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*SHAPES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "molmine" / "cli.py").is_file():
        print(f"error: no molmine sources under {SRC}", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))[-8:]
    for workload in SHAPES if args.workload == "all" else (args.workload,):
        work = WORK / f"{workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace), work, cpus)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
