"""Benchmark of the twophase laboratory: three workloads, one parent process.

    python3 perfbench/run.py --workload {gate,wkb-catalog,lab,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Every repeat runs in a fresh child
interpreter (see child.py), because users pay the coefficient-engine and
surface-catalog table builds on every CLI invocation.  Children run one at a
time with OpenBLAS/OpenMP/MKL pinned to one thread.

--trace 0 repeats the workload floor(S / first repeat's wall time) times
(two at least, for the determinism check), adds set-up-only
children until there are five set-up samples, and reports the end-to-end
metrics as medians.  --trace 1 runs one untraced and one traced repeat of
the same inputs and reports the per-layer metrics of the traced one.

Human-readable lines come first; the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count correctness checks.  The full record, with the raw samples and the
run metadata, is written to .perfbench/ in the checkout, with the spans of
a traced run beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150.0
#: no child is started that could end after this many seconds of the run
RUN_BUDGET_S = 165.0


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, workdir: Path, *extra: str) -> dict:
    """Run child.py to completion; its result plus the measured setup_s."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    log_path = workdir / "child.log"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           str(workdir), str(result_path), *extra]
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text()[-3000:]
        raise ChildFailed(f"child exited with {proc.returncode}:\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def compare_artifacts(a: Path, b: Path, label: str) -> tuple:
    """Checks that every data artifact of `a` and `b` is byte-identical, and
    whether the manifests are (reported, not checked)."""
    fa, fb = _files(a), _files(b)
    checks = [(f"{label}.same_files", sorted(fa) == sorted(fb))]
    manifests_equal = True
    for rel in sorted(fa):
        if Path(rel).name == "manifest.json":
            manifests_equal &= fa[rel] == fb.get(rel)
        else:
            checks.append((f"{label}.{rel}", fa[rel] == fb.get(rel)))
    return checks, manifests_equal


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _commit():
    """HEAD of the checkout if it is a git work tree (an exported copy is
    not; src_sha256 identifies the code there)."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "caches": caches, "python": platform.python_version()}


def source_identity() -> dict:
    h = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(data)
        lines += data.count(b"\n")
    return {"commit": _commit(), "src_sha256": h.hexdigest(),
            "src_lines": lines}


def check_benchmark_json() -> None:
    """BENCHMARK.json must list exactly the metrics this harness reports."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for key, expected in (("end_to_end", metrics.END_TO_END),
                          ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(expected):
            raise SystemExit(f"BENCHMARK.json {key} does not match "
                             "perfbench/metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(metrics.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads do not match "
                         "perfbench/metrics.py")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _tally(checks: list) -> tuple:
    failed = [name for name, ok in checks if not ok]
    return len(checks), failed


def timed(args, work: Path, started: float) -> dict:
    # the repeat count is fixed after the first repeat, so that runs of one
    # workload take the same number of samples
    repeats = [spawn(args.workload, args.seed, work / "repeat0")]
    target = max(MIN_REPEATS, int(args.seconds // repeats[0]["wall_s"]))
    while len(repeats) < target and (
            time.monotonic() - started + repeats[0]["elapsed_s"]
            < RUN_BUDGET_S):
        repeats.append(spawn(args.workload, args.seed,
                             work / f"repeat{len(repeats)}"))
    setup_only = [spawn(args.workload, args.seed, work / f"setup{i}",
                        "--setup-only")
                  for i in range(SETUP_SAMPLES - len(repeats))]

    checks = [tuple(c) for r in repeats for c in r["checks"]]
    checks.append(("harness.same_seed_same_inputs",
                   len({r["digest"] for r in repeats + setup_only}) == 1))
    manifests_equal = True
    for i in range(1, len(repeats)):
        more, same = compare_artifacts(work / "repeat0" / "out",
                                       work / f"repeat{i}" / "out",
                                       f"determinism.repeat{i}")
        checks += more
        manifests_equal &= same
    attempted, failed = _tally(checks)

    samples = {name: [r[name] for r in repeats]
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [r["setup_s"] for r in repeats + setup_only]
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["checks_passed_ratio"] = (attempted - len(failed)) / attempted
    return {
        "metrics": {name: values[name] for name, _, _ in metrics.END_TO_END},
        "attempted": attempted, "failed": len(failed),
        "meta": {"mode": "timed", "repeats": len(repeats),
                 "samples": samples, "failed_checks": failed,
                 "manifest_identical": manifests_equal,
                 "versions": repeats[0]["versions"],
                 "notes": [r["notes"] for r in repeats]}}


def traced(args, work: Path) -> dict:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    plain = spawn(args.workload, args.seed, work / "untraced")
    traced_ = spawn(args.workload, args.seed, work / "traced",
                    "--trace", str(spans))

    checks = [tuple(c) for c in plain["checks"] + traced_["checks"]]
    checks.append(("harness.same_seed_same_inputs",
                   plain["digest"] == traced_["digest"]))
    more, manifests_equal = compare_artifacts(
        work / "untraced" / "out", work / "traced" / "out",
        "traced_equals_untraced")
    checks += more
    attempted, failed = _tally(checks)

    values = dict(traced_["layers"])
    values["cli.artifact_bytes"] = sum(
        len(data) for data in _files(work / "untraced" / "out").values())
    values["cli.manifest_identical"] = int(manifests_equal)
    values["trace.overhead_s"] = traced_["wall_s"] - plain["wall_s"]
    return {
        "metrics": {name: values[name] for name, _, _ in metrics.PER_LAYER},
        "attempted": attempted, "failed": len(failed),
        "meta": {"mode": "traced", "failed_checks": failed,
                 "untraced_wall_s": plain["wall_s"],
                 "traced_wall_s": traced_["wall_s"],
                 "spans": str(spans.relative_to(ROOT)),
                 "layer_moves": metrics.LAYER_MOVES,
                 "versions": plain["versions"],
                 "notes": [plain["notes"], traced_["notes"]]}}


def run_workload(args) -> dict:
    """One run of one workload: its metrics, check counts and metadata."""
    started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        record = (traced(args, work) if args.trace
                  else timed(args, work, started))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["meta"].update({
        "workload": args.workload, "seed": args.seed,
        "seed_applies": args.workload != "gate",
        "seconds": args.seconds, "run_s": time.monotonic() - started,
        "machine": machine(), "threads": THREAD_ENV, **source_identity()})
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*metrics.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twophase" / "__init__.py").is_file():
        print(f"no twophase sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    check_benchmark_json()
    OUT.mkdir(exist_ok=True)
    workloads = (metrics.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    units = {n: u for n, u, _ in metrics.END_TO_END + metrics.PER_LAYER}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            record = run_workload(
                argparse.Namespace(**{**vars(args), "workload": workload}))
        except ChildFailed as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        for name, value in record["metrics"].items():
            print(f"{workload}  {name} = {value:.6g} {units[name]}")
        for name in record["meta"]["failed_checks"]:
            print(f"{workload}  FAILED check {name}")
        print("meta " + json.dumps(record["meta"], sort_keys=True))
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        result["metrics"].update(
            {prefix + n: {"value": v, "unit": units[n]}
             for n, v in record["metrics"].items()})
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
