"""Correctness checks on the outputs the benchmark times.

Exact laws come from the library in-process; every check runs after the
timed region.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from scipy.stats import chi2

from squashkit.protocol import attack_from_dict, exact_sifted_distribution

from workloads import MODES

#: Tolerance of every identity, as in the CLI and the test suite.
TOL = 1e-10
#: Lowest chi-square p-value a simulate output may have against its exact
#: law.  A correct sampler fails one check in a million, so no run fails by
#: chance; a biased one fails at the millions of rounds run here.
CHI2_P_MIN = 1e-6
#: Deviations below this count as this: they are float rounding on laws and
#: operators of norm <= 1, so the margin tops out at 4 decades.
MARGIN_FLOOR = 1e-14
#: Rows of `verify --nmax 40`: three identities at N=1..40 plus the
#: lift-vs-oracle check at N=1..6.
VERIFY_ROWS = 3 * 40 + 6


def exact_laws(wl) -> tuple[list, float]:
    """Exact law of each invocation (None for verify) and the largest
    difference between the three modes' laws for the attacks simulated:
    the paper's actual/virtual equivalence."""
    by_attack: dict = {}
    laws, deviation = [], 0.0
    for inv in wl.invocations:
        sim = inv.simulate
        if sim is None:
            laws.append(None)
            continue
        key = (sim.protocol, json.dumps(sim.attack, sort_keys=True))
        if key not in by_attack:
            spec = attack_from_dict(sim.attack)
            by_mode = {m: exact_sifted_distribution(spec, sim.protocol, m) for m in MODES}
            base = by_mode["actual"]
            deviation = max(deviation, max(
                abs(by_mode[m][k] - base[k]) for m in MODES[1:] for k in base
            ))
            by_attack[key] = by_mode
        laws.append(by_attack[key][sim.mode])
    return laws, deviation


def chi_square_pvalue(record: dict, law: dict) -> float:
    """p-value of the observed vacuum/mismatch/sifted counts against `law`."""
    cells = [("vacuum", record["vacuum"]), ("mismatch", record["mismatched"])]
    for basis in "zx":
        for a in (0, 1):
            for b in (0, 1):
                cells.append(((basis, a, b), record["sifted_counts"][basis][a][b]))
    stat, dof = 0.0, -1
    for key, observed in cells:
        expected = law[key] * record["trials"]
        if expected < 1e-9:
            if observed:
                return 0.0
            continue
        stat += (observed - expected) ** 2 / expected
        dof += 1
    return float(chi2.sf(stat, dof))


def check(inv, law: Optional[dict], law_deviation: float, code: int,
          stdout: str) -> tuple[Optional[str], float]:
    """Check one output; returns (error or None, identity deviation seen)."""
    if code != 0:
        return f"exit code {code}", 0.0
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"unparsable output: {exc}", 0.0
    if not isinstance(record, dict):
        return "output is not a JSON object", 0.0
    sim = inv.simulate
    if sim is None:
        worst = record.get("max_deviation")
        if record.get("passed") is not True:
            return "verify did not pass", 0.0
        if len(record.get("checks", ())) != VERIFY_ROWS:
            return f"expected {VERIFY_ROWS} check rows", 0.0
        if not isinstance(worst, (int, float)) or not worst < TOL:
            return f"worst deviation {worst} not below {TOL}", 0.0
        return None, worst
    if record.get("trials") != sim.trials or record.get("seed") != sim.seed:
        return "echoed trials/seed differ from the request", 0.0
    if not law_deviation < TOL:
        return f"exact laws of the three modes differ by {law_deviation}", 0.0
    try:
        pvalue = chi_square_pvalue(record, law)
    except (KeyError, IndexError, TypeError) as exc:
        return f"malformed simulate record: {exc!r}", 0.0
    if not pvalue > CHI2_P_MIN:
        return f"chi-square p-value {pvalue:.3g} not above {CHI2_P_MIN}", 0.0
    return None, law_deviation


def margin_decades(deviation: float) -> float:
    """Decades between the tolerance and an identity's worst deviation."""
    return math.log10(TOL / max(deviation, MARGIN_FLOOR))
