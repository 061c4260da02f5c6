"""bestreply benchmark: time to equilibrium through ``bestreply run``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the benchmark works on the checkout that holds this
directory, imports ``bestreply`` from its ``src/`` and writes only under
``.perfbench/`` there. Each operation is one ``bestreply run`` (config parse,
model and grid build, the two-phase solve, artifact writing) in a fresh child
process; operations run one after another (closed loop, one client), never
two at once. Untraced runs time operations until ``--seconds`` have passed
and report medians (``--trace 0``: the end-to-end metrics). A traced run
(``--trace 1``) makes one untraced and one traced operation and reports the
per-layer metrics, the per-sweep log and the tracing overhead.

Every operation passes the output gate outside its timed region or counts as
failed: the run converged, total mass starts at 1 and never rises, all
artifact sets of the invocation are byte-identical, the first operation's
equilibrium survives one more sweep with zero modifications, and ``desk``
matches the golden iteration logs and mass checksum of the acceptance tests.

The last line of standard output is the JSON result; the full record
(environment, every operation, gate details, per-sweep log) is written to
``.perfbench/results/``.
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
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "src" / "bestreply" / "configs"
GOLDEN = ROOT / "tests" / "golden"
STATE = ROOT / ".perfbench"
# the same checksum as tests/test_acceptance.py pins for the shipped desk run
GOLDEN_MASS_SHA256 = "8f59dd5ce29813a84db7cbeddb56c05d1ce116e1d79bc7411fb527a846f3b77b"
SETUP_SAMPLES = 9
REWRITES = 2
TIME_LIMIT_S = 160.0
# the solver runs on one thread; left at their default, OpenBLAS workers
# spin on the second core after each call and add noise to every timing
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: tuple[tuple[str, str], ...] = ()


WORKLOADS = {
    "desk": Workload("evacuation_desk.cfg"),
    "refi": Workload("refinancing_default.cfg", (("n_particles", "3000"),)),
    "evac_scale": Workload(
        "evacuation_full.cfg", (("n_particles", "600"), ("phase1_particles", "150"))
    ),
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def write_config(workload: Workload, path: Path) -> None:
    """The shipped config with the workload's overrides, at ``path``."""
    overrides = dict(workload.overrides)
    lines = []
    for line in (CONFIGS / workload.config).read_text().splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    if overrides:
        raise ValueError(f"{workload.config} has no keys {sorted(overrides)}")
    path.write_text("\n".join(lines) + "\n")


class Invocation:
    """Child processes of one benchmark run, started one at a time."""

    def __init__(self, work: Path, config: Path, deadline: float):
        self.work, self.config, self.deadline = work, config, deadline
        self.count = 0

    def spawn(self, mode: str, *flags: str) -> dict:
        self.count += 1
        out = self.work / f"{mode}{self.count}"
        result_path = self.work / f"{mode}{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(self.config),
               str(out), str(result_path), *flags]
        start = now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **BLAS_THREADS},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"out": str(out), "error": "timed out"}
        if proc.returncode != 0 or not result_path.exists():
            tail = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return {"out": str(out), "error": tail[0]}
        result = json.loads(result_path.read_text())
        result["out"] = str(out)
        result["setup_s"] = result["setup_end"] - start
        if "end" in result:
            result["run_s"] = result["end"] - start
        return result


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digest(out: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(out.glob("*.csv")) + [out / "manifest.txt"]}


def csv_column(path: Path, name: str) -> list[str]:
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index(name)
    return [row.split(",")[col] for row in rows]


def golden_check(out: Path) -> tuple[list[str], float]:
    """Problems against the desk golden files, and the largest relative
    deviation of ``distribution_change`` from them (reported, not gated: the
    weak-* metric's summation order differs across machines)."""
    problems, deviation = [], 0.0
    for name, golden in (("iterations.csv", "desk_iterations.csv"),
                         ("iterations_phase1.csv", "desk_iterations_phase1.csv")):
        if csv_column(out / name, "modifications") != csv_column(GOLDEN / golden, "modifications"):
            problems.append(f"{name}: modifications differ from tests/golden/{golden}")
            continue
        for got, want in zip(csv_column(out / name, "distribution_change"),
                             csv_column(GOLDEN / golden, "distribution_change")):
            got, want = float(got), float(want)
            deviation = max(deviation, abs(got - want) / abs(want) if want else abs(got))
    if sha256(out / "mass.csv") != GOLDEN_MASS_SHA256:
        problems.append("mass.csv: sha256 differs from the acceptance suite's")
    return problems, deviation


def gate(op: dict, workload: str, reference: dict | None) -> list[str]:
    """Output-gate problems of one operation (empty when it passed)."""
    if "error" in op:
        return [op["error"]]
    problems = []
    if op["rc"] != 0:
        problems.append(f"bestreply run exited {op['rc']} (not converged)")
    out = Path(op["out"])
    mass = [float(v) for v in csv_column(out / "mass.csv", "total_mass")]
    if mass[0] != 1.0 or any(b > a for a, b in zip(mass, mass[1:])):
        problems.append("total mass does not start at 1 or rises")
    digests = [artifact_digest(out)] + [
        artifact_digest(Path(f"{out}-w{k}")) for k in range(len(op["write_s"]) - 1)
    ]
    first = reference["digest"] if reference is not None else digests[0]
    if any(d != first for d in digests):
        problems.append("artifacts differ from the invocation's first write")
    op["digest"] = digests[0]
    if "verify" in op and op["verify"]["modifications"] != 0:
        problems.append(f"verification sweep modified {op['verify']['modifications']} controls")
    if workload == "desk":
        golden_problems, op["distribution_change_max_rel_dev"] = golden_check(out)
        problems += golden_problems
    return problems


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


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


def environment(load_before: tuple) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": git_commit(),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed_ops(inv: Invocation, seconds: float) -> list[dict]:
    """Operations back to back until ``seconds`` have passed (at least one)."""
    ops, begin = [], now()
    while not ops or now() - begin < seconds:
        last = ops[-1].get("run_s", 0.0) if ops else 0.0
        if ops and now() + 1.5 * last > inv.deadline:
            break
        flags = ["--rewrites", str(REWRITES)] + (["--verify"] if not ops else [])
        ops.append(inv.spawn("run", *flags))
    return ops


def end_to_end(inv: Invocation, seconds: float) -> tuple[dict, list[dict], dict]:
    setups = [inv.spawn("setup") for _ in range(SETUP_SAMPLES)]
    ops = timed_ops(inv, seconds)
    done = [op for op in ops if "error" not in op]
    if not done:
        return {}, ops, {"setup": setups}
    values = {
        "run_s": statistics.median(op["run_s"] for op in done),
        "setup_s": statistics.median(
            [s["setup_s"] for s in setups if "error" not in s] + [op["setup_s"] for op in done]
        ),
        "solve_s": statistics.median(op["solve_s"] for op in done),
        "write_s": statistics.median(w for op in done for w in op["write_s"]),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in done),
    }
    return values, ops, {"setup": setups}


def traced(inv: Invocation) -> tuple[dict, list[dict], dict]:
    plain = inv.spawn("run", "--verify")
    if "error" in plain:
        return {}, [plain], {}
    traced_op = inv.spawn("trace")
    ops = [plain, traced_op]
    if "error" in traced_op:
        return {}, ops, {}
    values = dict(traced_op["layers"])
    values["trace.overhead_s"] = traced_op["solve_s"] - plain["solve_s"]
    values["engine.controls_kept"] = traced_op["controls_kept"]
    values["outputs.bytes"] = sum(p.stat().st_size for p in Path(traced_op["out"]).iterdir())
    sweep_log = traced_op["sweep_log"]
    checks = {
        # one model-hook call per decision: state_cost on the evacuation
        # workloads (cost priced post-step), state_gain on refinancing
        "decisions_equal_hook_calls": all(r["decisions"] == r["hook_calls"] for r in sweep_log),
        "counts_repeat": traced_op["sweeps"] == plain["sweeps"]
        and traced_op["modifications"] == plain["modifications"],
        "layers_sum_to_solve": abs(values["engine.unattributed_s"])
        <= max(values["trace.overhead_s"], 0.01 * values["trace.solve_s"]),
    }
    return values, ops, {"checks": checks, "sweep_log": sweep_log}


def print_report(workload: str, ops: list[dict], metrics: dict, extra: dict) -> None:
    for i, op in enumerate(ops, 1):
        if "error" in op:
            print(f"op {i}: FAILED to run: {op['error']}")
            continue
        print(f"op {i}: run {op['run_s']:.3f} s  setup {op['setup_s']:.3f} s  "
              f"solve {op['solve_s']:.3f} s  write {op['write_s'][0]:.3f} s  "
              f"rss {op['peak_rss_mb']:.1f} MiB  sweeps {op['sweeps'][0]}+{op['sweeps'][1]}  "
              + ("ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])))
        if "distribution_change_max_rel_dev" in op:
            print(f"      desk distribution_change: largest relative deviation from golden "
                  f"{op['distribution_change_max_rel_dev']:.3g} (reported, not gated)")
    if "sweep_log" in extra:
        print("phase sweep    wall_s  modifications  decisions  us/decision")
        for r in extra["sweep_log"]:
            print(f"{r['phase']:5d} {r['sweep']:5d} {r['wall_s']:9.4f} {r['modifications']:14d} "
                  f"{r['decisions']:10d} {r['us_per_decision']:12.3f}")
        for name, ok in extra["checks"].items():
            print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded only: each workload runs its config's own seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bestreply" / "__init__.py").is_file():
        print(f"error: no bestreply sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = now()
    load_before = os.getloadavg()
    workload = WORKLOADS[args.workload]
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / f"{args.workload}.cfg"
        # the solver seed stays the config's own: the sweep count to
        # equilibrium, and with it the solve time, jumps with the seed
        # (perfbench/README.md)
        write_config(workload, config)
        inv = Invocation(work, config, started + TIME_LIMIT_S)
        inv.spawn("setup")  # warm-up: byte-compile, fill the file cache; not timed
        if args.trace:
            values, ops, extra = traced(inv)
        else:
            values, ops, extra = end_to_end(inv, args.seconds)
        reference = None
        for op in ops:
            op["problems"] = gate(op, args.workload, reference)
            if reference is None and "digest" in op:
                reference = op
        failed = sum(1 for op in ops if op["problems"])
        correct = bool(values) and failed == 0 and all(extra.get("checks", {}).values())
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared_metrics(bool(args.trace)).items()
        } if values else {}
        record = {
            "workload": args.workload, "config": workload.config,
            "overrides": dict(workload.overrides), "seed_argument": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "environment": environment(load_before), "operations": ops,
            "metrics": metrics, **extra,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print_report(args.workload, ops, metrics, extra)
    print("env: " + json.dumps(record["environment"]))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
