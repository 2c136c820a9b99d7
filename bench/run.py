"""finslab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload flag-curvature --seed 1 --seconds 12 \
        --trace 0

Run it from the root of a finslab checkout; it imports the package from
``src/`` there and exits non-zero without a result when there is none.
The workload's experiments go through the public entry points
``ExperimentConfig.from_dict``, ``run`` and ``VerificationReport.to_json``
on one thread of one process, in whole rounds for about ``--seconds``,
and every report is checked against its tolerance and its expected
pass/fail.

``--trace 0`` prints the end-to-end metrics.  Its times are scaled to a
steady host: a fixed calibration kernel of the workload's kind of work
is timed before every report and every set-up probe, and each time is
multiplied by the kernel's nominal time over its local time (see
``KERNELS``).  The unscaled figures are kept in the record.

``--trace 1`` replays the rounds of an untraced third-length run with
timing spans installed, then once more without, and prints the
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
(machine, per-kind deviations, errors) and, when traced, every span go
to ``.bench_out/``.
"""

import os

# one thread: size the BLAS pools before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FINSLAB_THREADS", None)

import argparse      # noqa: E402
import copy          # noqa: E402
import ctypes        # noqa: E402
import json          # noqa: E402
import math          # noqa: E402
import platform      # noqa: E402
import resource      # noqa: E402
import statistics    # noqa: E402
import subprocess    # noqa: E402
import sys           # noqa: E402
import warnings      # noqa: E402
from pathlib import Path               # noqa: E402
from time import perf_counter          # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5         # fresh interpreters timed per run for setup_s
CAL_WINDOW = 2           # ticks on each side that set one report's scale
TAIL_BEYOND = 10         # at least this many reports beyond the tail
TAIL_PERCENTILE = 90.0   # ... and at least this share of all of them
DEVIATION_FLOOR = 1e-16
REPORT_KEYS = ["check", "config", "n_samples", "max_deviation", "per_level",
               "pass", "wall_time_ms"]

# end-to-end metrics of an untraced run: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("units_per_s", "units/s", "higher"),
    ("report_p50_ms", "ms", "lower"),
    ("report_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_headroom_decades", "decades", "higher"),
)


def import_finslab():
    """Put the checkout's ``src/`` and this directory on the path and
    import finslab from there, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "finslab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no finslab sources under {src}; run from "
                         "the root of a finslab checkout")
    sys.path[:0] = [str(src), str(HERE)]
    # the audit grid includes systems whose quartic is not isoparametric
    # (m2 < 1) on purpose; build_clifford warns about each one
    warnings.filterwarnings("ignore", message="m2 = ")
    import finslab
    if Path(finslab.__file__).resolve().parent != (src / "finslab").resolve():
        raise SystemExit(f"bench: finslab imported from {finslab.__file__}, "
                         f"not from {src}")
    from finslab import cli
    return cli


# -- host speed --------------------------------------------------------
#
# The cores of a shared VM slow down by up to 2x for tens of seconds at a
# time, whatever runs on them.  Report times divided by the time of a
# fixed kernel of the same kind of work, timed around them, stay steady
# through that, where raw wall times do not.  The kernels use nothing of
# finslab, so a change to the package cannot move them.

_CAL: dict = {}


def _interpreter_kernel(np):
    """Small numpy solves and interpreter arithmetic, like the metric
    code of the sphere, navigation, minkowski and curvature layers."""
    if "interpreter" not in _CAL:
        rng = np.random.default_rng(0)
        _CAL["interpreter"] = ([rng.standard_normal((4, 4)) + 4 * np.eye(4)
                                for _ in range(8)], rng.standard_normal(4))
    mats, rhs = _CAL["interpreter"]
    acc = 0.0
    for i in range(300):
        x = np.linalg.solve(mats[i % 8], rhs)
        acc += float(x @ x) ** 0.5
        acc += sum(j * 0.5 for j in range(20))


def _dense_kernel(np):
    """One centralizer step at a smaller size: conjugate a stack of
    64 x 64 matrices, form their Gram matrix, diagonalise it."""
    if "dense" not in _CAL:
        rng = np.random.default_rng(0)
        _CAL["dense"] = (rng.standard_normal((120, 64, 64)),
                         np.linalg.qr(rng.standard_normal((64, 64)))[0])
    stack, P = _CAL["dense"]
    conj = np.einsum("ab,nbc,cd->nad", P, stack, P.T, optimize=True)
    gram = np.tensordot(stack, conj, axes=([1, 2], [1, 2]))
    np.linalg.eigh(0.5 * (gram + gram.T))


# kernel name: (body, nominal seconds on a calm core of the 2.1 GHz Xeon
# VM the benchmark was sized on)
KERNELS = {"interpreter": (_interpreter_kernel, 0.0025),
           "dense": (_dense_kernel, 0.0095)}


def host_tick(kernel: str) -> float:
    """Seconds taken by one run of the named calibration kernel."""
    import numpy as np
    start = perf_counter()
    KERNELS[kernel][0](np)
    return perf_counter() - start


def host_scale(kernel: str, ticks: list[float], i: int) -> float:
    """Nominal over local kernel time at tick ``i``: the median of the
    ticks within CAL_WINDOW of it."""
    near = ticks[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
    return KERNELS[kernel][1] / statistics.median(near)


def host_ticks(kernel: str, n: int = 5) -> float:
    return statistics.median(host_tick(kernel) for _ in range(n))


# -- set-up ------------------------------------------------------------


def setup_probe(args) -> int:
    """Time importing finslab and building the inputs of the first round,
    in this fresh interpreter, and print the seconds."""
    start = perf_counter()
    import_finslab()
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed, args.tiny).round()
    print(repr(perf_counter() - start))
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """(scaled, raw) set-up seconds of SETUP_PROBES fresh interpreters;
    each is scaled by the kernel times just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    samples, ticks = [], [host_ticks("interpreter")]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
        ticks.append(host_ticks("interpreter"))
    nominal = KERNELS["interpreter"][1]
    scaled = [s * 2 * nominal / (before + after)
              for s, before, after in zip(samples, ticks, ticks[1:])]
    return scaled, samples


# -- running and checking reports --------------------------------------


class Tally:
    """Timings and the correctness gate over every report of a pass."""

    def __init__(self):
        self.times: list[float] = []
        self.ticks: list[float] = []   # host_tick before each report
        self.units = 0
        self.failed = 0
        self.errors: list[str] = []
        self.headroom = math.inf
        self.kinds: dict[str, dict] = {}

    @property
    def attempted(self) -> int:
        return len(self.times)

    def scaled_times(self, kernel: str) -> list[float]:
        return [t * host_scale(kernel, self.ticks, i)
                for i, t in enumerate(self.times)]

    def add(self, case, seconds: float, text: str | None, error: str | None):
        self.times.append(seconds)
        if error is None:
            try:
                error = self._check(case, text)
            except (KeyError, TypeError, ValueError) as exc:
                error = f"malformed report: {exc!r}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{case.kind} {json.dumps(case.config)}: "
                                   f"{error}")
            return
        self.units += case.units

    def _check(self, case, text: str) -> str | None:
        doc = json.loads(text)
        if list(doc) != REPORT_KEYS:
            return f"report fields {list(doc)}"
        if doc["pass"] is not case.expect_pass:
            return f"pass = {doc['pass']}, expected {case.expect_pass}"
        dev, tol = doc["max_deviation"], doc["config"]["tol"]
        kind = self.kinds.setdefault(case.kind, {
            "tol": tol, "expect_pass": case.expect_pass, "reports": 0,
            "min_deviation": math.inf, "max_deviation": 0.0})
        kind["reports"] += 1
        kind["min_deviation"] = min(kind["min_deviation"], dev)
        kind["max_deviation"] = max(kind["max_deviation"], dev)
        if case.expect_pass:
            if not dev < tol:
                return f"max_deviation {dev:.3e} not below tol {tol:.1e}"
            self.headroom = min(self.headroom, math.log10(
                tol / max(dev, DEVIATION_FLOOR)))
        return None


def play(cli, rounds, tally: Tally, tracer=None,
         kernel: str | None = None) -> float:
    """Run every case of ``rounds``, timing the calibration ``kernel``
    before each when one is named; return the wall seconds taken."""
    start = perf_counter()
    for cases in rounds:
        for case in cases:
            config = copy.deepcopy(case.config)
            if tracer is not None:
                tracer.report = tally.attempted
            if kernel is not None:
                tally.ticks.append(host_tick(kernel))
            t0 = perf_counter()
            try:
                text = cli.run(cli.ExperimentConfig.from_dict(config)) \
                    .to_json()
                error = None
            except Exception as exc:   # a crashed report fails; run on
                text, error = None, f"{type(exc).__name__}: {exc}"
            tally.add(case, perf_counter() - t0, text, error)
    return perf_counter() - start


def play_for(cli, workload, seconds: float, tally: Tally):
    """Whole rounds for about ``seconds``: at least one, and no round
    that the mean round time says would end past the deadline."""
    rounds, walls = [], []
    while not rounds or sum(walls) * (1 + 1 / len(walls)) <= seconds:
        rounds.append(workload.round())
        walls.append(play(cli, rounds[-1:], tally,
                          kernel=workload.kernel))
    return walls, rounds


# -- output ------------------------------------------------------------


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return out
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def steal_ticks() -> int:
    """Ticks the hypervisor gave this machine's CPUs to others."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def machine(seed: int, loadavg) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "loadavg_start": list(loadavg), "seed": seed}


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, reports beyond): the TAIL_PERCENTILE-th
    percentile, or a lower one when that would leave fewer than
    TAIL_BEYOND reports above it; the maximum when there are too few.
    The slowest tenth of the reports sway it, not only the last ten."""
    ranked = sorted(times)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0, 0
    beyond = max(TAIL_BEYOND, math.ceil(n * (1 - TAIL_PERCENTILE / 100)))
    return ranked[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def end_to_end(setup: tuple, walls: list[float], tally: Tally,
               kernel: str) -> tuple:
    setup_scaled, setup_raw = setup
    times = tally.scaled_times(kernel)
    value, pct, beyond = tail(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_scaled),
        "units_per_s": tally.units / sum(times),
        "report_p50_ms": 1000.0 * statistics.median(times),
        "report_tail_ms": 1000.0 * value,
        "peak_rss_mb": peak_kb / 1024.0,
        # 0 when no report that should pass did: the run is failed anyway
        "accuracy_headroom_decades": tally.headroom
        if math.isfinite(tally.headroom) else 0.0,
    }
    raw_tail, _, _ = tail(tally.times)
    detail = {"setup_samples_s": setup_scaled,
              "setup_samples_raw_s": setup_raw, "rounds": len(walls),
              "wall_s": sum(walls), "units": tally.units,
              "round_wall_s": walls,
              "report_tail_percentile": pct, "report_tail_beyond": beyond,
              "host_kernel": kernel,
              "host_tick_s": {"min": min(tally.ticks),
                              "median": statistics.median(tally.ticks),
                              "max": max(tally.ticks)},
              "unscaled": {
                  "setup_s": statistics.median(setup_raw),
                  "units_per_s": tally.units / sum(tally.times),
                  "report_p50_ms": 1000.0 * statistics.median(tally.times),
                  "report_tail_ms": 1000.0 * raw_tail}}
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in END_TO_END}, detail


def emit(args, metrics: dict, tallies: list[Tally], record: dict) -> int:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_fraction':<52} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} reports)")
    for err in (e for t in tallies for e in t.errors):
        print(f"  FAILED {err}")
    record["machine"]["steal_s"] = ((steal_ticks() - record.pop("steal0"))
                                    / os.sysconf("SC_CLK_TCK"))
    record |= {"workload": args.workload, "trace": args.trace,
               "seconds": args.seconds, "attempted": attempted,
               "failed": failed, "failed_fraction": failed / attempted,
               "deviations": tallies[0].kinds, "metrics": metrics,
               "errors": [e for t in tallies for e in t.errors]}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest rounds, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    loadavg = os.getloadavg()
    cli = import_finslab()
    from spans import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    setup = measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    record = {"machine": machine(args.seed, loadavg),
              "unit": workload.unit, "steal0": steal_ticks()}
    tally = Tally()
    print(f"bench {args.workload} seed {args.seed} trace {args.trace}")

    if not args.trace:
        walls, _ = play_for(cli, workload, args.seconds, tally)
        metrics, detail = end_to_end(setup, walls, tally, workload.kernel)
        return emit(args, metrics, [tally], record | detail)

    # the first pass picks the rounds and warms the process up; the
    # traced and untraced replays then run the same reports
    _, rounds = play_for(cli, workload, args.seconds / 3, tally)
    tracer = Tracer()
    traced = Tally()
    tracer.install()
    try:
        traced_wall = play(cli, rounds, traced, tracer)
    finally:
        tracer.uninstall()
    replay = Tally()
    untraced_wall = play(cli, rounds, replay)
    metrics = tracer.metrics(traced_wall, untraced_wall)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write_spans(spans)
    record |= {"rounds": len(rounds), "untraced_wall_s": untraced_wall,
               "traced_wall_s": traced_wall, "spans": len(tracer.spans),
               "spans_file": str(spans.relative_to(ROOT)),
               "layer_calls": dict(tracer.calls),
               "layer_counts": dict(tracer.counts)}
    return emit(args, metrics, [tally, traced, replay], record)


if __name__ == "__main__":
    sys.exit(main())
