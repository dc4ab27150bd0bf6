"""Command-line front end: verification suites, simulations, key-rate curves.

Exit codes are a stable contract: 0 success, 1 check or simulation
failure, 2 usage error.  CSV output is RFC 4180 (CRLF, header row, absent
values as empty fields) and is byte-identical across reruns of the same
config and seed; wall-clock timing therefore appears only in JSON output.
JSON floats are printed with 17 significant digits so every report
re-parses to the exact same record.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time

import click
import numpy as np

from .protocol import (
    _require_bb84_blocks,
    attack_from_dict,
    binary_entropy,
    eve_state,
    key_rate,
    run_simulation,
)
from .squash import verify_completeness, verify_hadamard_invariance
from .symfock import lift_gate, lift_gate_oracle
from .povm import verify_povm_equivalence

_ORACLE_TRIALS = 100


def _format_float(x: float) -> str:
    return format(x, ".17g")


def _json_dumps(obj, level: int = 0) -> str:
    """JSON text with floats at 17 significant digits (exact round trip)."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _json_dumps(v, level + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_dumps(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _lift_oracle_row(n: int, rng: np.random.Generator) -> dict:
    # Haar-random gates; each takes its real, then its imaginary part from rng
    x = rng.normal(size=(_ORACLE_TRIALS, 2, 2, 2))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    diff = lift_gate(u, n) - lift_gate_oracle(u, n)
    return {"max_deviation": float(np.max(np.abs(diff)))}


@click.group()
def main() -> None:
    """Squash-operator verification and threshold-detector QKD simulation."""


@main.command()
@click.option("--nmax", type=int, default=12, show_default=True,
              help="Largest photon number to check.")
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Maximum allowed deviation for every identity.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report to a file instead of stdout.")
def verify(nmax: int, tol: float, fmt: str, out: str | None) -> None:
    """Machine-check the squash-operator identities for N = 1..NMAX.

    Runs Kraus completeness, detector/squash POVM equivalence, the
    modulation covariance (operator and channel level), and the
    lift-vs-oracle cross-check (N up to 6).  A check that raises at some N
    becomes a FAIL row carrying the error; the report is still written.
    """
    if nmax < 1:
        raise click.UsageError(f"--nmax must be >= 1, got {nmax}")
    if tol <= 0:
        raise click.UsageError(f"--tol must be > 0, got {tol}")
    rng = np.random.default_rng(2024)
    suites = (
        ("completeness", nmax, lambda n: vars(verify_completeness(n))),
        ("povm_equivalence", nmax, lambda n: vars(verify_povm_equivalence(n))),
        ("hadamard_invariance", nmax, lambda n: vars(verify_hadamard_invariance(n))),
        ("lift_oracle", min(nmax, 6), lambda n: _lift_oracle_row(n, rng)),
    )
    checks = []
    for name, top, row in suites:
        for n in range(1, top + 1):
            try:
                fields = row(n)
            except Exception as exc:  # reported as a FAIL row; the run goes on
                error = f"{type(exc).__name__}: {exc}"
                fields = {"max_deviation": None, "error": error}
            checks.append({"check": name, "n": n, **fields})
    devs = [c["max_deviation"] for c in checks if c["max_deviation"] is not None]
    passed = len(devs) == len(checks) and all(d < tol for d in devs)
    worst = max(devs, default=None)
    if fmt == "json":
        report = {
            "nmax": nmax,
            "tol": tol,
            "passed": passed,
            "max_deviation": worst,
            "checks": checks,
        }
        _write_text(_json_dumps(report) + "\n", out)
    else:
        lines = []
        for c in checks:
            dev = c["max_deviation"]
            if dev is None:
                result = f"error {c['error']}  FAIL"
            else:
                result = f"max_dev {dev:.6g}  {'ok' if dev < tol else 'FAIL'}"
            lines.append(f"{c['check']:<22} N={c['n']:>2}  {result}")
        worst_text = "n/a" if worst is None else format(worst, ".6g")
        lines.append(
            f"{'PASS' if passed else 'FAIL'}: {len(checks)} checks, "
            f"worst deviation {worst_text}, tolerance {tol:.6g}"
        )
        _write_text("\n".join(lines) + "\n", out)
    if not passed:
        sys.exit(1)


_CSV_COLUMNS = [
    "protocol", "mode", "attack", "trials", "seed", "sifted",
    "e_bit", "e_ph", "key_rate", "runtime_ms",
]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@main.command()
@click.option("--protocol", type=click.Choice(["bb84", "bbm92"]), required=True)
@click.option("--mode", type=click.Choice(["actual", "edp1", "edp2"]),
              default="actual", show_default=True)
@click.option("--attack", "attack_json", default=None,
              help="Attack spec as inline JSON.")
@click.option("--attack-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Attack spec as a JSON file.")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, required=True,
              help="64-bit RNG seed; mandatory so runs are reproducible.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report to a file instead of stdout.")
def simulate(protocol, mode, attack_json, attack_file, trials, seed, fmt, out):
    """Monte Carlo a protocol run against an adversarial source.

    Emits one CSV row (or a JSON record) with the sifted-key tallies,
    error rates and one-way key rate.  Absent rates (for example when no
    rounds were sifted) are empty CSV fields, never zeros.
    """
    if (attack_json is None) == (attack_file is None):
        raise click.UsageError("provide exactly one of --attack or --attack-file")
    if trials < 1:
        raise click.UsageError(f"--trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise click.UsageError("--seed must be a 64-bit unsigned integer")
    raw = attack_json
    if attack_file is not None:
        with open(attack_file, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        attack = attack_from_dict(json.loads(raw))
        state = eve_state(attack)
        if protocol == "bb84":
            _require_bb84_blocks(state)
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"malformed attack spec: {exc}")
    start = time.perf_counter()
    try:
        result = run_simulation(protocol, mode, attack, trials, seed)
    except Exception as exc:  # a valid input the numerics cannot handle
        click.echo(f"simulation failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    if fmt == "json":
        _write_text(_json_dumps({**vars(result), "runtime_ms": runtime_ms}) + "\n", out)
        return
    row = {
        **vars(result),
        "attack": json.dumps(result.attack, sort_keys=True, separators=(",", ":")),
        # Deliberately absent in CSV: byte-identical output across reruns
        # and thread counts is part of the contract.  JSON carries it.
        "runtime_ms": None,
    }
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    writer.writerow([_csv_cell(row[c]) for c in _CSV_COLUMNS])
    _write_text(buf.getvalue(), out)


def _parse_sweep(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError("--sweep must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise click.UsageError(f"--sweep values must be numbers, got {text!r}")
    if step <= 0 or not 0.0 <= start <= stop <= 0.5:
        raise click.UsageError(
            "--sweep requires 0 <= start <= stop <= 0.5 and step > 0"
        )
    return start, stop, step


@main.command()
@click.option("--ebit", type=float, default=None, help="Bit error rate in [0, 0.5].")
@click.option("--eph", type=float, default=None, help="Phase error rate in [0, 0.5].")
@click.option("--sweep", default=None,
              help="start:stop:step symmetric-error sweep, bounds in [0, 0.5].")
@click.option("--fraction", type=float, default=1.0, show_default=True,
              help="Single-photon fraction multiplying the rate.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def keyrate(ebit, eph, sweep, fraction, out):
    """One-way key rate 1 - H2(e_bit) - H2(e_ph), single point or CSV curve."""
    if sweep is not None:
        if ebit is not None or eph is not None:
            raise click.UsageError("--sweep excludes --ebit/--eph")
        start, stop, step = _parse_sweep(sweep)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["e", "h2", "rate"])
        # index-based stepping avoids float accumulation drift
        n_steps = int((stop - start) / step + 1e-9)
        for i in range(n_steps + 1):
            e = min(start + i * step, 0.5)
            writer.writerow([
                _csv_cell(e),
                _csv_cell(binary_entropy(e)),
                _csv_cell(key_rate(e, e, fraction)),
            ])
        _write_text(buf.getvalue(), out)
        return
    if ebit is None or eph is None:
        raise click.UsageError("provide --ebit and --eph, or --sweep")
    try:
        rate = key_rate(ebit, eph, fraction)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_text(f"{rate:.6g}\n", out)


if __name__ == "__main__":
    main()
