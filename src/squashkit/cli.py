"""Command-line front end: verification suites, simulations, key-rate curves.

Exit codes are a stable contract: 0 success, 1 check or simulation
failure, 2 usage error.  CSV output is RFC 4180 (CRLF, header row, absent
values as empty fields) and is byte-identical across reruns of the same
config and seed; wall-clock timing therefore appears only in JSON output.
JSON floats are printed with 17 significant digits so every report
re-parses to the exact same record.
"""

from __future__ import annotations

import errno
import json
import math
import os
import random
import sys
import time
from contextlib import suppress
from itertools import chain
from typing import NoReturn

import click
import numpy as np

# squashkit.protocol is imported by the commands that use it, so that
# verify and --help never compile or load it.
from .squash import build_squash, verify_completeness, verify_hadamard_invariance
from .symfock import lift_gate, lift_gate_oracle
from .povm import verify_povm_equivalence

__all__ = ["main"]

_ORACLE_TRIALS = 100


def _json_scalar(obj) -> str | None:
    """JSON text of a scalar or an empty container; None for any other container."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return None if len(obj) else "[]"
    if isinstance(obj, dict):
        return None if obj else "{}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_pieces(obj, level: int = 0):
    """JSON text of ``obj`` in pieces, floats at 17 significant digits
    (exact round trip); no report is ever joined into one string.

    A 2-D float array (an attack block's ``amps`` table, or one row of its
    ``rho``) is one piece, written with one ``%.17g`` template per row; a
    3-D ``rho`` is a list of those.  Any other float goes through
    :func:`_json_scalar`.
    """
    text = _json_scalar(obj)
    if text is not None:
        yield text
        return
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        inner, cell = "  " * (level + 1), "  " * (level + 2) + "%.17g"
        template = inner + "[\n" + ",\n".join([cell] * obj.shape[1]) + "\n" + inner + "]"
        yield "[\n" + ",\n".join(map(template.__mod__, map(tuple, obj.tolist()))) + "\n" + "  " * level + "]"
        return
    if isinstance(obj, dict):
        items = ((json.dumps(str(k)) + ": ", v) for k, v in obj.items())
        opener, closer = "{\n", "}"
    else:
        items = (("", v) for v in obj)
        opener, closer = "[\n", "]"
    sep, inner = opener, "  " * (level + 1)
    for key, v in items:
        text = _json_scalar(v)
        if text is None:
            yield sep + inner + key
            yield from _json_pieces(v, level + 1)
        else:
            yield sep + inner + key + text
        sep = ",\n"
    yield "\n" + "  " * level + closer


def _check_out(ctx, param, out: str | None) -> str | None:
    """``--out`` callback: a missing parent directory is a usage error before any work."""
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise click.UsageError(f"cannot write --out {out}: no directory {os.path.dirname(out)}")
    return out


_out_option = click.option(
    "--out", type=click.Path(dir_okay=False), default=None, callback=_check_out,
    help="Write the report to a file instead of stdout.")


def _write(pieces, out: str | None) -> None:
    """Write text pieces to the --out file, or to the stream ``click.echo`` uses.

    Only opening or writing ``--out`` is a usage error; a broken stdout
    pipe is left to click.  On stdout each piece goes to the binary buffer,
    and a short write (a pipe closed mid-write, which the text layer
    ignores) raises ``BrokenPipeError``.
    """
    if out is None:
        stream = click.get_text_stream("stdout")
        binary = getattr(stream, "buffer", None)
        if binary is None:  # an in-memory text stream, as under redirect_stdout
            stream.writelines(pieces)
            stream.flush()
            return
        stream.flush()
        for piece in pieces:
            data = piece.encode(stream.encoding, stream.errors)
            if binary.write(data) != len(data):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        binary.flush()
        return
    try:  # pieces are built in memory: every OSError here is the file's
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}")


def _haar_gates(rng: random.Random, count: int) -> np.ndarray:
    """``count`` Haar-random U(2) gates e^{i phi} [[a, -b*], [b, a*]], shape (count, 2, 2).

    Six normals per gate from ``rng``, the standard library's generator:
    (a, b) is four of them scaled to the unit sphere of C^2, e^{i phi} the
    other two scaled to unit modulus, with one square root per gate.  A
    closed form, so no QR.
    """
    normals = [rng.gauss(0.0, 1.0) for _ in range(count * 6)]
    g = np.reshape(normals, (count, 3, 2))
    a, b, phase = (g[..., 0] + 1j * g[..., 1]).T
    squares = np.sum(g ** 2, axis=2)  # |a|^2, |b|^2, |phase|^2
    scale = phase / np.sqrt((squares[:, 0] + squares[:, 1]) * squares[:, 2])
    return scale[:, None, None] * np.moveaxis([[a, -b.conj()], [b, a.conj()]], -1, 0)


def _lift_oracle_row(n: int, rng: random.Random) -> dict:
    u = _haar_gates(rng, _ORACLE_TRIALS)
    diff = lift_gate(u, n)
    diff -= lift_gate_oracle(u, n)  # in place: the row stays under the channel checks' peak
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
@_out_option
def verify(nmax: int, tol: float, fmt: str, out: str | None) -> None:
    """Machine-check the squash-operator identities for N = 1..NMAX.

    Runs Kraus completeness, detector/squash POVM equivalence, the
    modulation covariance (per operator, and on the channel as an exact
    Choi identity and one fixed full-rank state), and the lift-vs-oracle
    cross-check (N up to 6).  A check that raises at some N becomes a
    FAIL row carrying the error; the report is still written.
    """
    if nmax < 1:
        raise click.UsageError(f"--nmax must be >= 1, got {nmax}")
    if not 0 < tol < math.inf:  # a JSON report cannot hold inf
        raise click.UsageError(f"--tol must be finite and > 0, got {tol}")

    def attempt(run, *args) -> dict:  # run(*args), or a FAIL row's fields with what it raised
        try:
            return run(*args)
        except Exception as exc:  # reported as a FAIL row; the run goes on
            return {"max_deviation": None, "error": f"{type(exc).__name__}: {exc}"}
    rng = random.Random(2024)
    names = ("completeness", "povm_equivalence", "hadamard_invariance", "lift_oracle")
    suites = (verify_completeness, verify_povm_equivalence, verify_hadamard_invariance)
    checks = []
    for n in range(1, nmax + 1):
        channel = attempt(build_squash, n)  # a FAIL row's fields if the build raised
        for name, check in zip(names, suites):
            fields = channel if type(channel) is dict else attempt(lambda: vars(check(channel)))
            checks.append({"check": name, "n": n, **fields})
        del channel  # before the next build and the lift_oracle row
        if n <= 6:  # while symfock still holds this N's lift
            checks.append({"check": "lift_oracle", "n": n, **attempt(_lift_oracle_row, n, rng)})
    checks.sort(key=lambda c: names.index(c["check"]))  # stable: each check's rows keep N order
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
        _write(chain(_json_pieces(report), ("\n",)), out)
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
        _write(["\n".join(lines) + "\n"], out)
    if not passed:
        sys.exit(1)


_CSV_COLUMNS = [
    "protocol", "mode", "attack", "trials", "seed", "sifted",
    "e_bit", "e_ph", "key_rate", "runtime_ms",
]


#: Characters of a CSV attack cell written per piece, and rows of a
#: ``keyrate --sweep`` curve: a CSV report is never buffered whole.
_PIECE = 1 << 16
_SWEEP_ROWS_PER_PIECE = 1 << 10


def _csv_cell(value) -> str:
    return "" if value is None else str(value)  # a float's str is its repr


def _decode_block(obj: dict) -> dict:
    """``object_hook`` of an attack spec: a block's ``amps`` or ``rho`` lists
    become a float64 (..., 2) array as soon as the block is decoded, so the
    attack's whole list tree never exists.  Lists that do not convert stay
    lists, for :func:`attack_from_dict` to name their first bad entry."""
    from .protocol import _pairs

    for key, depth in (("amps", 1), ("rho", 2)):
        if type(obj.get(key)) is list:
            with suppress(ValueError):
                obj[key] = _pairs(obj[key], key, depth)
    return obj


def _simulation_failed(exc: Exception) -> NoReturn:
    """Exit 1 with a one-line message: numpy's allocation failures are
    private subclasses of MemoryError, so they are named as that."""
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    click.echo(f"simulation failed: {name}: {exc}", err=True)
    sys.exit(1)


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
@_out_option
def simulate(protocol, mode, attack_json, attack_file, trials, seed, fmt, out):
    """Monte Carlo a protocol run against an adversarial source.

    Emits one CSV row (or a JSON record) with the sifted-key tallies,
    error rates and one-way key rate.  Absent rates (for example when no
    rounds were sifted) are empty CSV fields, never zeros.
    """
    from .protocol import _require_bb84_blocks, attack_from_dict, run_simulation

    if (attack_json is None) == (attack_file is None):
        raise click.UsageError("provide exactly one of --attack or --attack-file")
    if not 1 <= trials < 2**63:
        raise click.UsageError(f"--trials must be in [1, 2**63), got {trials}")
    if not 0 <= seed < 2**64:
        raise click.UsageError("--seed must be a 64-bit unsigned integer")
    try:
        if attack_file is None:
            attack = attack_from_dict(json.loads(attack_json, object_hook=_decode_block))
        else:  # the file's text and its parsed object are not kept for the run
            with open(attack_file, "r", encoding="utf-8") as fh:
                attack = attack_from_dict(json.load(fh, object_hook=_decode_block))
    except (MemoryError, np.linalg.LinAlgError) as exc:  # the numerics of building the state
        _simulation_failed(exc)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # decode errors are ValueErrors; nesting past the parser's depth, a RecursionError
        raise click.UsageError(f"malformed attack spec: {exc}")
    if protocol == "bb84":  # a usage error, before the run
        try:
            _require_bb84_blocks(attack)
        except ValueError as exc:  # a check of the state the fields built: it names the attack
            raise click.UsageError(f"malformed attack spec: attack: {exc}")
    start = time.perf_counter()
    try:
        result = run_simulation(protocol, mode, attack, trials, seed)
    except Exception as exc:  # a valid input the numerics cannot handle
        _simulation_failed(exc)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    if fmt == "json":
        _write(chain(_json_pieces({**vars(result), "runtime_ms": runtime_ms}), ("\n",)), out)
        return
    # runtime_ms is deliberately absent in CSV: byte-identical output across
    # reruns and thread counts is part of the contract.  JSON carries it.
    row = {**vars(result), "attack": None, "runtime_ms": None}
    cells = [_csv_cell(row[c]) for c in _CSV_COLUMNS]
    at = _CSV_COLUMNS.index("attack")
    attack = json.dumps(result.attack, sort_keys=True, separators=(",", ":"),
                        default=np.ndarray.tolist)
    # The row as csv.writer writes it, in pieces: only the attack cell, a
    # JSON object, holds a '"' or ',', so it alone is quoted, '"' doubled.
    _write(chain(
        [",".join(_CSV_COLUMNS) + "\r\n", ",".join(cells[:at]) + ',"'],
        (attack[i:i + _PIECE].replace('"', '""') for i in range(0, len(attack), _PIECE)),
        ['",' + ",".join(cells[at + 1:]) + "\r\n"],
    ), out)


#: Most rows ``keyrate --sweep`` writes (about 5 s of work at the cap).
_SWEEP_MAX_ROWS = 10**6


def _parse_sweep(text: str) -> tuple[float, float, int]:
    """Start, step and row count of a start:stop:step sweep."""
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError("--sweep must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise click.UsageError(f"--sweep values must be numbers, got {text!r}")
    if not step > 0 or not 0.0 <= start <= stop <= 0.5:
        raise click.UsageError(
            "--sweep requires 0 <= start <= stop <= 0.5 and step > 0"
        )
    steps = (stop - start) / step + 1e-9  # inf for a subnormal step
    if not steps < _SWEEP_MAX_ROWS:
        raise click.UsageError(f"--sweep asks for more rows than the cap of {_SWEEP_MAX_ROWS}")
    return start, step, int(steps) + 1


@main.command()
@click.option("--ebit", type=float, default=None, help="Bit error rate in [0, 0.5].")
@click.option("--eph", type=float, default=None, help="Phase error rate in [0, 0.5].")
@click.option("--sweep", default=None,
              help="start:stop:step symmetric-error sweep, bounds in [0, 0.5].")
@click.option("--fraction", type=float, default=1.0, show_default=True,
              help="Single-photon fraction multiplying the rate.")
@_out_option
def keyrate(ebit, eph, sweep, fraction, out):
    """One-way key rate 1 - H2(e_bit) - H2(e_ph), single point or CSV curve."""
    from .protocol import binary_entropy, key_rate

    if not 0.0 <= fraction <= 1.0:
        raise click.UsageError(f"--fraction must be in [0, 1], got {fraction}")
    if sweep is not None:
        if ebit is not None or eph is not None:
            raise click.UsageError("--sweep excludes --ebit/--eph")
        start, step, rows = _parse_sweep(sweep)

        def row(i: int) -> str:  # index-based stepping avoids float accumulation drift
            e = min(start + i * step, 0.5)
            # numbers only: csv.writer would quote none of these cells
            return f"{e!r},{binary_entropy(e)!r},{key_rate(e, e, fraction)!r}\r\n"
        _write(chain(["e,h2,rate\r\n"], (
            "".join(map(row, range(first, min(first + _SWEEP_ROWS_PER_PIECE, rows))))
            for first in range(0, rows, _SWEEP_ROWS_PER_PIECE))), out)
        return
    if ebit is None or eph is None:
        raise click.UsageError("provide --ebit and --eph, or --sweep")
    try:
        rate = key_rate(ebit, eph, fraction)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write([f"{rate:.6g}\n"], out)


if __name__ == "__main__":
    main()
