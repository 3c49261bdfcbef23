"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

Prints one JSON line: the wall-clock instant of the first timed call (for
set-up time), per-repetition phase timings, operation counts, correctness
mismatches, peak RSS and, when traced, the per-layer sums.  With
``--setup-only`` it builds the inputs and prints only the first two.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop at the first timed call")
    parser.add_argument("--out", required=True, help="directory for scratch files and spans")
    args = parser.parse_args()

    workload = workloads.SMOKE if args.smoke else workloads.WORKLOADS[args.workload]
    digest_key = "smoke" if args.smoke else args.workload
    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        job = workloads.Pass(workload, args.seed, args.pass_index, workdir, tracer)
        if tracer is not None:
            tracer.install()
        first_call = time.time()
        first_speed = speed.machine_speed()
        if args.setup_only:
            print(json.dumps({"first_call": first_call, "first_speed": first_speed}))
            return 0
        job.run()
        if tracer is not None:
            tracer.uninstall()
        digest = job.csv_digest()
        if not args.trace and args.pass_index == 0:
            job.check_csv_determinism()
            expected = workloads.CSV_DIGESTS.get(digest_key)
            if args.seed == workloads.DEFAULT_SEED and expected is not None and digest != expected:
                job.mismatches.append(f"campaign CSV digest {digest} differs from the recorded {expected}")
                job.failed += 1

    result = {
        "first_call": first_call,
        "first_speed": first_speed,
        "rows": job.rows,
        "samples": job.samples,
        "raw_samples": job.raw_samples,
        "busy_s": job.busy_s,
        "reference_s": statistics.median(job.clock.speeds) if job.clock.speeds else None,
        "attempted": job.attempted,
        "failed": job.failed,
        "mismatches": job.mismatches,
        "notes": job.notes,
        "csv_digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        name = f"spans-{args.workload}-s{args.seed}-p{args.pass_index}.jsonl.gz"
        tracer.write(os.path.join(args.out, name))
        result["trace"] = tracer.summary(speed.REFERENCE_S / result["reference_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
