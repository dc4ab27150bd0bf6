"""squashkit benchmark: times the CLI end to end, or traces its layers.

Run from the root of a squashkit checkout:

    python3 perfbench/run.py --workload verify-n40 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs the workload's ``python -m squashkit``
invocations as child processes, back to back, until ``--seconds`` have
passed, and reports the end-to-end metrics of BENCHMARK.json as medians
over those repetitions.  With ``--trace 1`` it runs the same invocations
in-process through ``squashkit.cli.main``, with the public functions of
every layer traced, and reports the per-layer metrics.  Every output is
checked outside the timed region.  The line before the last carries
provenance and detail; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import TRACED, Tracer, traced_bindings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Generated inputs, child output and written spans.
OUT = ROOT / ".bench_out"
#: `--help` spawns before each repetition of the workload, so that they
#: sample the same minutes as the workload does; setup_s is their median.
SETUP_SPAWNS = 3
CLI = ("-m", "squashkit")
#: BLAS runs on one thread in every child and in this process, so the only
#: parallelism measured is squashkit's own (SQUASHKIT_THREADS).  On a
#: 2-core machine, multi-threaded OpenBLAS made the same table build take
#: either about 2.9 s or about 3.7 s from one run to the next.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# JSON simulate records carry their own wall time, the one field that
# differs between two runs of the same invocation.
_RUNTIME_LINE = re.compile(r'^\s*"runtime_ms": .*\n', re.MULTILINE)


@dataclass
class Child:
    code: int
    stdout: str
    start: float
    end: float
    maxrss_kb: int


@dataclass
class Tally:
    """Operations attempted and those that failed; `problems` are failed
    assertions that belong to no single operation."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, what: str, error) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{what}: {error}")


def child_env(threads) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("SQUASHKIT_THREADS", None)
    if threads is not None:
        env["SQUASHKIT_THREADS"] = str(threads)
    return env


def spawn(args, threads, workdir: Path) -> Child:
    """Run `python <args>` to completion; its peak RSS comes from wait4."""
    argv = [sys.executable, *args]
    env = child_env(threads)
    # A fresh file per child: on ext4, truncating a file just written makes
    # its close wait for writeback, which would add tens of ms to the child.
    fd, out_path = tempfile.mkstemp(dir=workdir, suffix=".out")
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)])
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        end = time.perf_counter()
    finally:
        os.close(fd)
    stdout = Path(out_path).read_text(encoding="utf-8", errors="replace")
    os.unlink(out_path)
    return Child(os.waitstatus_to_exitcode(status), stdout, start, end, usage.ru_maxrss)


def call_cli(main, inv, tracer) -> tuple[int, str]:
    """Run one invocation through `squashkit.cli.main` in this process."""
    import click

    saved = os.environ.pop("SQUASHKIT_THREADS", None)
    if inv.threads is not None:
        os.environ["SQUASHKIT_THREADS"] = str(inv.threads)
    buf = io.StringIO()
    code = 0
    try:
        with redirect_stdout(buf):
            (tracer.wrap("cli", main) if tracer else main)(
                list(inv.args), standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except click.ClickException as exc:
        code = exc.exit_code
    except Exception:  # a crash inside the CLI fails this invocation only
        traceback.print_exc()
        code = 1
    finally:
        os.environ.pop("SQUASHKIT_THREADS", None)
        if saved is not None:
            os.environ["SQUASHKIT_THREADS"] = saved
    return code, buf.getvalue()


def end_to_end(wl, seconds: float, workdir: Path, tally: Tally, details: dict) -> dict:
    if "numpy" in sys.modules:
        raise RuntimeError("children would inherit this process's peak RSS")
    setup, iterations = [], []
    began = time.perf_counter()
    while not iterations or time.perf_counter() - began < seconds:
        setup += [spawn(CLI + ("--help",), None, workdir) for _ in range(SETUP_SPAWNS)]
        iterations.append([spawn(CLI + inv.args, inv.threads, workdir)
                           for inv in wl.invocations])

    from checks import check, exact_laws, margin_decades

    for child in setup:
        ok = child.code == 0 and "Usage" in child.stdout
        tally.add("--help", None if ok else f"exit code {child.code}")
    laws, law_deviation = exact_laws(wl)
    worst = 0.0
    for children in iterations:
        for inv, law, child in zip(wl.invocations, laws, children):
            error, deviation = check(inv, law, law_deviation, child.code, child.stdout)
            tally.add(inv.args[0], error)
            worst = max(worst, deviation)
    walls = [children[-1].end - children[0].start for children in iterations]
    rss = [max(c.maxrss_kb for c in children) / 1024.0 for children in iterations]
    trials = sum(sim.trials for sim in wl.simulations)
    if trials:
        sim_walls = [
            sum(c.end - c.start for inv, c in zip(wl.invocations, children)
                if inv.simulate is not None)
            for children in iterations
        ]
        details["rounds_per_s"] = trials / statistics.median(sim_walls)
    setup_walls = [c.end - c.start for c in setup]
    details["samples"] = {"wall_s": len(walls), "setup_s": len(setup_walls),
                          "peak_rss_mb": len(rss)}
    details["wall_s_each"] = walls
    details["setup_s_each"] = setup_walls
    details["invocation_s_each"] = [[c.end - c.start for c in children]
                                    for children in iterations]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(rss),
        "verify_margin_decades": margin_decades(worst),
    }


def traced(wl, seconds: float, workdir: Path, tally: Tally, details: dict) -> dict:
    reference = [spawn(CLI + inv.args, inv.threads, workdir) for inv in wl.invocations]

    from checks import check, exact_laws
    from squashkit import cli
    from squashkit.protocol import CHUNK_TRIALS, attack_from_dict, eve_state, run_simulation

    laws, law_deviation = exact_laws(wl)
    for inv, law, child in zip(wl.invocations, laws, reference):
        tally.add(inv.args[0], check(inv, law, law_deviation, child.code, child.stdout)[0])
    expected = [_RUNTIME_LINE.sub("", child.stdout) for child in reference]

    def run_all(tracer):
        start = time.perf_counter()
        outputs = [call_cli(cli.main, inv, tracer) for inv in wl.invocations]
        wall = time.perf_counter() - start
        for inv, want, (code, text) in zip(wl.invocations, expected, outputs):
            same = code == 0 and _RUNTIME_LINE.sub("", text) == want
            tally.add(f"in-process {inv.args[0]}",
                      None if same else f"exit {code} or output differs from the CLI's")
        return wall

    sims = [(sim, attack_from_dict(sim.attack), inv.threads)
            for inv in wl.invocations if (sim := inv.simulate) is not None]
    trials = sum(sim.trials for sim, _, _ in sims)
    sizes = {
        "protocol.chunks": sum(-(-sim.trials // CHUNK_TRIALS) for sim, _, _ in sims),
        "protocol.blocks": sum(len(eve_state(attack).blocks) for _, attack, _ in sims),
    }
    per_iteration, untraced_walls, traced_walls, spans = [], [], [], []
    began = time.perf_counter()
    while not per_iteration or time.perf_counter() - began < seconds:
        untraced_walls.append(run_all(None))
        tracer = Tracer()
        with traced_bindings(tracer):
            traced_walls.append(run_all(tracer))
        spans.append(tracer.spans)
        # run_simulation at trials=1 costs what does not grow with trials:
        # the category table and one chunk.
        t_one = []
        for sim, attack, threads in sims:
            start = time.perf_counter()
            run_simulation(sim.protocol, sim.mode, attack, 1, sim.seed, threads=threads)
            t_one.append(time.perf_counter() - start)
        t_full = tracer.durations("protocol.run_simulation")
        if len(t_full) != len(t_one):
            tally.problems.append(
                f"{len(t_full)} run_simulation spans for {len(t_one)} simulations")
        calls, self_s = tracer.summary()
        for name in wl.uses:
            if not calls[name]:
                tally.problems.append(f"layer {name} recorded no calls")
        layers = {"cli.self_s": self_s["cli"], **sizes}
        for layer, names in TRACED.items():
            for fn in names:
                layers[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"]
                layers[f"{layer}.{fn}.self_s"] = self_s[f"{layer}.{fn}"]
        layers["protocol.table_s"] = sum(t_one)
        layers["protocol.sample_ns_per_round"] = (
            (sum(t_full) - sum(t_one)) / trials * 1e9 if trials else 0.0
        )
        per_iteration.append(layers)

    span_file = OUT / f"spans-{wl.name}-seed{details['seed']}.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        for i, recorded in enumerate(spans):
            for name, start, end, parent in recorded:
                fh.write(json.dumps({"iteration": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    metrics = {name: statistics.median(it[name] for it in per_iteration)
               for name in per_iteration[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    details["samples"] = {"per_layer": len(per_iteration)}
    details["untraced_in_process_wall_s"] = untraced_walls
    details["traced_in_process_wall_s"] = traced_walls
    details["spans_file"] = str(span_file.relative_to(ROOT))
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_sha():
    """HEAD of the checkout, or None outside a git working tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(wl) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "blas_env": BLAS_ENV,
        "squashkit_threads": [
            "unset" if inv.threads is None else inv.threads for inv in wl.invocations
        ],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "squashkit" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'squashkit'} not found; run from the root "
              "of a squashkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        wl = workloads.build(args.workload, args.seed, workdir)
        # Untimed warm-up: fills the bytecode and page caches and checks
        # that children import this checkout's squashkit.
        probe = spawn(("-c", "import squashkit; print(squashkit.__file__)"), None, workdir)
        origin = probe.stdout.strip()
        if probe.code != 0 or Path(origin).resolve().parent != SRC / "squashkit":
            print(f"perfbench: children import squashkit from {origin!r}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
        run = traced if args.trace else end_to_end
        measured = run(wl, args.seconds, workdir, tally, details)
    details["provenance"] = provenance(wl)
    details["fail_ratio"] = len(tally.failures) / tally.attempted
    details["all_metrics"] = measured
    for message in tally.failures + tally.problems:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps(details))
    result = {
        "correct": not tally.failures and not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
