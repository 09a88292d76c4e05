"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload infer_b1 --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark imports davit from the
checkout's src/ directory, never from an installed copy, and exits with
an error when that directory is missing. With --trace 0 the result
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced run. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give each metric with its unit and sample count, the
environment stamp, the checks and the determinism digests. Each run
also writes its report under perfbench/_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "_results"
WORK = HERE / "_work"


def limit_blas_threads():
    """Cap the BLAS pool at the CPUs this process may run on.

    Must run before numpy is imported; OpenBLAS reads these at load time.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_davit():
    if not (SRC / "davit" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'davit'} not found; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import davit

    if Path(davit.__file__).resolve().parent != SRC / "davit":
        raise SystemExit(f"error: imported davit from {davit.__file__}, not from {SRC}")


def blas_stamp(np):
    """BLAS library name and its live thread count, read through ctypes."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    threads = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """Digest of every file under src/davit; keys the determinism record."""
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "davit").rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed, nproc, cfg):
    import numpy as np
    import scipy

    from davit import checkpoint as ck

    blas, threads = blas_stamp(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "model_config_hash": ck.model_config_hash(cfg).hex(),
        "seed": seed,
    }


def compare_digests(earlier, digests):
    """Check this run's digests against earlier runs of the same source
    and seed. Train digests are per epoch; runs compare the epochs both ran."""
    fails = []
    for key, value in digests.items():
        old = earlier.get(key)
        if isinstance(value, dict) and isinstance(old, dict):
            common = value.keys() & old.keys()
            if any(value[k] != old[k] for k in common):
                fails.append(f"determinism: {key} differs from an earlier run of this source")
        elif old is not None and old != value:
            fails.append(f"determinism: {key} differs from an earlier run of this source")
    return fails


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("infer_b1", "eval_b16", "train_b2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    import_davit()
    from davit import model as md

    import workloads

    cfg = md.default_config()
    env = environment(args.seed, nproc, cfg)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir, cfg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Keys are JSON strings, so train's epoch indices are stored as text.
    digests = json.loads(json.dumps(result.digests))
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / f"digests-{env['source_digest']}-{args.workload}-seed{args.seed}.json"
    merged = json.loads(record.read_text(encoding="utf-8")) if record.is_file() else {}
    result.failures += compare_digests(merged, digests)
    for key, value in digests.items():
        merged[key] = {**merged.get(key, {}), **value} if isinstance(value, dict) else value
    if merged:
        record.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    correct = result.correct and not result.failures

    metrics = {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()}
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "correct": correct, "attempted": result.attempted,
              "failed": result.failed, "notes": result.notes, "failures": result.failures,
              "digests": digests, "unit_latencies_s": result.latencies, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if result.spans:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as f:
            for span in result.spans:
                f.write(json.dumps(span.to_list()) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for note in result.notes:
        print(f"note {note}")
    for key, value in digests.items():
        print(f"digest {key} {json.dumps(value, sort_keys=True)}")
    for failure in result.failures:
        print(f"FAILED {failure}")
    print(f"check {'passed' if correct else 'FAILED'}: "
          f"{result.attempted - result.failed} of {result.attempted} units")
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
