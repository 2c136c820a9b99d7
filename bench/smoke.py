"""Smoke test of the benchmark: every workload at its tiny size, untraced
and traced.

    python3 bench/smoke.py

Run from the root of a checkout.  Checks that each run is correct and
prints every metric BENCHMARK.json names with its unit, that the traced
self times plus unattributed_s add up to the traced wall time, and that
nothing under src/ imports the benchmark.  Exits 1 on the first problem.
"""

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def fail(msg: str):
    raise SystemExit(f"smoke: {msg}")


def check_src_independent():
    bench_modules = {p.stem for p in HERE.glob("*.py")} | {HERE.name}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in bench_modules:
                    fail(f"{path.relative_to(ROOT)} imports {name}")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {done.returncode}:\n"
             f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        fail(f"{workload} trace {trace}: {result}")
    return result


def check_declared(spec: dict):
    sys.path[:0] = [str(HERE)]
    from run import END_TO_END
    from spans import PER_LAYER
    for group, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[group]]
        if declared != [tuple(m) for m in ours]:
            fail(f"BENCHMARK.json {group} differs from the benchmark's own")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared(spec)
    check_src_independent()
    for item in spec["workloads"]:
        name = item["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run(name, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want:
                fail(f"{name} trace {trace}: metrics {got} != {want}")
            if any(not math.isfinite(v["value"]) for v in metrics.values()):
                fail(f"{name} trace {trace}: non-finite value in {metrics}")
            if trace:
                record = json.loads((ROOT / ".bench_out" /
                                     f"{name}-seed7-trace1.json").read_text())
                wall = record["traced_wall_s"]
                total = sum(v["value"] for k, v in metrics.items()
                            if k.endswith(".self_s") or k == "unattributed_s")
                if abs(total - wall) > 1e-9 * max(1.0, wall):
                    fail(f"{name}: self times sum to {total}, wall {wall}")
        print(f"smoke: {name} ok")
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
