"""Benchmark of the nsdeblur blind-deblurring chain.

Run from the repository root:

    python3 perfbench/run.py --workload blind-512 --seed 1 --seconds 15 --trace 0

One process, one client, closed loop: the next image is sent only after
the previous request is done.  The corpus is built from ``--seed``; set-up
is repeated SETUP_REPEATS times and its median reported.  Every request's
outputs are checked; a failure is counted, never skipped.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
sends every image twice, untraced and traced, checks that both give the
same outputs bit for bit, and prints the per-layer metrics.  The last
line of standard output is the result object; the line before it records
the environment and the sample counts.  Working files go to ``.perfbench/``
at the repository root, and a traced run leaves its spans there.
``--smoke`` runs the same workloads on tiny images.
"""

import os

# One BLAS thread: the plain single-threaded baseline, and outputs that
# repeat bit for bit.  OpenBLAS reads these when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("blind-512", "iterative-512", "denoise-space-256")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny images and models, for a quick check")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import nsdeblur; "
                "print(time.perf_counter() - start)")


def import_program() -> None:
    """Import nsdeblur from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "nsdeblur" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nsdeblur sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nsdeblur
    if Path(nsdeblur.__file__).resolve().parent != SRC / "nsdeblur":
        raise SystemExit(f"perfbench: imported nsdeblur from {nsdeblur.__file__}")


def import_seconds() -> float:
    """Seconds ``import nsdeblur`` takes in a fresh interpreter, as a user
    of the CLI pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy
    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "lib*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[Path(path).name] = getattr(lib, symbol)()
                    break
    return found


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "image_size": [workload.size, workload.size],
            "corpus_images": workload.n_images, "clients": 1,
            "loop": "closed"}


def fingerprint(arrays: dict) -> bytes:
    return b"".join(f"{k}{a.dtype}{a.shape}".encode() + a.tobytes()
                    for k, a in sorted(arrays.items()))


class Loop:
    """Closed-loop client: sends requests, checks outputs, keeps the times."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []              # failures of output checks
        self.seconds = {False: [], True: []}    # keyed by "traced"
        self.reference: dict[int, bytes] = {}    # first outputs per image
        self.quality: dict[int, tuple] = {}

    def attempt(self, case, traced: bool) -> None:
        """One request.  An exception from the program fails the request;
        an output that breaks a check also makes the run incorrect."""
        self.attempted += 1
        try:
            if traced:
                with self.tracer.installed(), \
                        self.tracer.request(case.index) as span:
                    raw = self.workload.run(case)
                seconds = span.seconds
            else:
                start = time.perf_counter()
                raw = self.workload.run(case)
                seconds = time.perf_counter() - start
        except Exception as exc:     # count the failure and keep the loop going
            self.failures.append(f"image {case.index}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return
        try:
            out = self.workload.outcome(case, raw)
            self.workload.check(case, out)
            prints = fingerprint(out.arrays)
            if self.reference.setdefault(case.index, prints) != prints:
                raise RuntimeError("outputs differ from the first request on "
                                   "this image" + (" (traced)" if traced else ""))
        except Exception as exc:
            self.failures.append(f"image {case.index}: {exc!r}")
            self.wrong.append(self.failures[-1])
            traceback.print_exc(file=sys.stderr)
            return
        self.seconds[traced].append(seconds)
        self.quality.setdefault(case.index, self.workload.quality(case, out))

    def run(self, cases, seconds: float) -> None:
        """Send the whole corpus, in order, until ``seconds`` have passed
        and at least one cycle is done.  Whole cycles give every image the
        same number of requests, so the median does not depend on which
        image the time ran out on.  A traced run sends
        each image untraced and traced, swapping which goes first from one
        image to the next so that neither side always meets warm caches."""
        start = time.perf_counter()
        modes = (False, True) if self.tracer is not None else (False,)
        cycles = 0
        while cycles < 1 or time.perf_counter() - start < seconds:
            for case in cases:
                for traced in modes:
                    self.attempt(case, traced)
                modes = modes[::-1]
            cycles += 1


def set_up(workload, seed: int, work: Path):
    """Set up SETUP_REPEATS times: a fresh import plus the whole corpus.
    Every corpus build must be identical."""
    times, prints = [], set()
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        start = time.perf_counter()
        cases = workload.setup(seed, work)
        times.append(seconds + time.perf_counter() - start)
        prints.add(workload.setup_fingerprint(cases))
    return cases, times, len(prints) == 1


def end_to_end(workload, loop: Loop, setup_s: float) -> dict:
    seconds = loop.seconds[False]
    quality = list(loop.quality.values())
    return {
        "image_s_p50": median(seconds) if seconds else 0.0,
        "mpix_per_s": (workload.megapixels * len(seconds) / sum(seconds)
                       if seconds else 0.0),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - len(loop.failures) / loop.attempted,
        "psnr_db": mean(q[0] for q in quality) if quality else 0.0,
        "kernel_ncc": mean(q[1] for q in quality) if quality else 0.0,
    }


def per_layer(names, loop: Loop, tracing) -> dict:
    values = tracing.layer_metrics(
        [n for n in names if not n.startswith("tracing.")], loop.tracer.requests)
    untraced, traced = (median(loop.seconds[t]) if loop.seconds[t] else 0.0
                        for t in (False, True))
    values["tracing.untraced_image_s_p50"] = untraced
    values["tracing.traced_image_s_p50"] = traced
    values["tracing.overhead_frac"] = (traced - untraced) / untraced if untraced else 0.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    # these import nsdeblur, so they load only once src is on the path
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.smoke)
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cases, setup_times, setup_same = set_up(workload, args.seed, work)
        loop = Loop(workload, tracing.Tracer() if args.trace else None)
        loop.run(cases, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = per_layer([m["name"] for m in spec[kind]], loop, tracing)
    else:
        values = end_to_end(workload, loop, median(setup_times))
    wrong = loop.wrong + ([] if setup_same else
                          ["set-up repeats gave different corpora"])
    requests, images = len(loop.seconds[False]), len(loop.quality)
    samples = ({m["name"]: len(loop.tracer.requests) for m in spec[kind]}
               if args.trace else
               {"image_s_p50": requests, "mpix_per_s": requests,
                "setup_s": SETUP_REPEATS, "peak_rss_mb": 1,
                "ok_frac": loop.attempted, "psnr_db": images,
                "kernel_ncc": images})
    info = {"env": environment(args, workload), "samples": samples,
            "setup_repeat_s": setup_times,
            "request_s": loop.seconds[False], "traced_request_s": loop.seconds[True],
            "failures": loop.failures, "wrong_outputs": wrong}
    if args.trace:
        info["shares"] = {
            label: median(tracing.share(spans, names)
                          for spans in loop.tracer.requests)
            for label, names in workload.dominant_layers.items()}
        info["untraced_targets"] = loop.tracer.missing
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {**info, "requests": [tracing.dump(s) for s in loop.tracer.requests]}))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    result = {
        "correct": not wrong and bool(loop.quality),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
