"""Seeded benchmark of multbound.

    python3 bench/run.py --workload campaign-mix --seed 1 --seconds 25 --trace 0

Runs closed-loop passes of the workload, each in a fresh interpreter
(``worker.py``) so that process-wide caches never carry over.  The number
of passes is fixed by ``--seconds`` and the workload's nominal pass time,
not by the clock, so a seed always makes the same operations.  The last
line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run pairs every traced pass with an untraced pass
on the same inputs and reports the difference as the tracing overhead.
``--smoke`` runs one pass of tiny inputs.  Result details (environment,
per-pass figures) go to ``.bench_out/`` at the repository root, spans of
traced passes too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("campaign-mix", "check-large", "stable-large")
PASS_TIMEOUT_S = 150
# nominal seconds of one untraced pass, set-up included, on a loaded
# 2-core host with Python 3.11; a run makes seconds / PASS_S passes (half
# as many traced pairs), so attempted and failed depend on the seed alone
PASS_S = {"campaign-mix": 3.0, "check-large": 10.0, "stable-large": 11.0}
# set-up time is the median of this many fresh interpreters per run: the
# passes, then workers that only set up
SETUP_SAMPLES = 7


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    """Rows over the pooled campaign time; medians over the pooled phase
    samples of every pass for the rest."""

    def med(key: str) -> float:
        return median(x for p in passes for x in p["samples"][key])

    rows = sum(sum(p["rows"]) for p in passes)
    campaign_s = sum(sum(p["samples"]["campaign"]) for p in passes)
    return {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "rows_per_s": (rows / campaign_s, "1/s"),
        "check_s": (med("check"), "s"),
        "hochster_s": (med("hochster"), "s"),
        "closure_s": (med("closure"), "s"),
        "stable_betti_s": (med("stable_betti"), "s"),
        "koszul_s": (med("koszul"), "s"),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multbound").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_pass(args, index: int, trace: int, deadline: float, setup_only: bool = False) -> tuple[dict, float]:
    """Start one worker, wait for it, and return its result and its
    speed-normalized set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--pass-index", str(index), "--trace", str(trace), "--out", str(OUT),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    started = time.time()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, min(PASS_TIMEOUT_S, deadline - time.monotonic())),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = (result["first_call"] - started) * speed.REFERENCE_S / result["first_speed"]
    return result, setup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of tiny inputs")
    args = parser.parse_args()
    # on SIGTERM, subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "multbound" / "__init__.py").is_file():
        print(f"error: no multbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    hard_deadline = time.monotonic() + 170  # every run ends within 180 s
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    budget = 1 if args.smoke else max(1, round(args.seconds / (PASS_S[args.workload] * (1 + args.trace))))
    longest = 0.0
    try:
        for index in range(budget):
            if index and time.monotonic() + 1.5 * longest > hard_deadline:
                print(f"warning: time limit reached after {index} of {budget} passes", file=sys.stderr)
                break
            began = time.monotonic()
            result, setup = run_pass(args, index, 0, hard_deadline)
            plain.append(result)
            setups.append(setup)
            if args.trace:
                traced.append(run_pass(args, index, 1, hard_deadline)[0])
            longest = max(longest, time.monotonic() - began)
        for extra in range(0 if args.smoke or args.trace else SETUP_SAMPLES - len(setups)):
            if time.monotonic() + 5 > hard_deadline:
                break
            setups.append(run_pass(args, extra % len(plain), 0, hard_deadline, setup_only=True)[1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    mismatches = [m for p in runs for m in p["mismatches"]]
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        import tracing

        extra = [t["busy_s"] - p["busy_s"] for p, t in zip(plain, traced)]
        base = [p["busy_s"] for p in plain]
        overhead_s = median(extra)
        overhead_pct = 100 * sum(extra) / sum(base)
        ops = sum(t["attempted"] for t in traced)
        values = tracing.aggregate([t["trace"] for t in traced], ops, overhead_s, overhead_pct)
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(plain, setups).items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_digest": source_digest(),
        "passes": len(plain),
        "pass_budget": budget,
        "setup_s": setups,
        "pass_results": [{k: v for k, v in p.items() if k != "trace"} for p in runs],
        "mismatches": mismatches,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(details, indent=1) + "\n")
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    notes: dict[str, int] = {}
    for p in runs:
        for k, v in p["notes"].items():
            notes[k] = notes.get(k, 0) + v
    print(json.dumps({k: details[k] for k in ("python", "nproc", "commit", "source_digest", "seed", "traced", "passes")}
                     | {"notes": notes}))
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
