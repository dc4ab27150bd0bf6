"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one PASS line on success; a failing criterion shows up as
an ordinary pytest failure.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they appear.
"""

import time

import numpy as np
from scipy.optimize import brentq
from scipy.stats import chi2

from squashkit.povm import CompositeBlockState, verify_povm_equivalence
from squashkit.protocol import (
    CoincidenceInjection,
    Depolarize,
    FixedBlockState,
    InterceptResend,
    bell_state,
    binary_entropy,
    exact_error_rates,
    exact_sifted_distribution,
    key_rate,
    run_simulation,
)
from squashkit.squash import (
    build_squash,
    verify_completeness,
    verify_hadamard_invariance,
)
from squashkit.symfock import lift_gate, lift_gate_oracle, projector, sym_basis_state


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def _haar_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


SHIPPED_ATTACKS = [
    Depolarize(0.0),
    Depolarize(0.2),
    InterceptResend(),
    CoincidenceInjection(2, 1),
    CoincidenceInjection(4, 2),
]


def _law_chi_square_pvalue(result, law):
    cells = [("vacuum", result.vacuum), ("mismatch", result.mismatched)]
    for basis in "zx":
        for a in (0, 1):
            for b in (0, 1):
                cells.append(((basis, a, b), result.sifted_counts[basis][a][b]))
    stat, dof = 0.0, -1
    for key, observed in cells:
        expected = law[key] * result.trials
        if expected < 1e-9:
            assert observed == 0, f"impossible cell {key} observed"
            continue
        stat += (observed - expected) ** 2 / expected
        dof += 1
    return chi2.sf(stat, dof)


def test_criterion_1_completeness():
    start = time.perf_counter()
    worst_sum, worst_diag = 0.0, 0.0
    for n in range(1, 13):
        report = verify_completeness(n)
        worst_sum = max(worst_sum, report.max_deviation)
        worst_diag = max(worst_diag, report.diag_formula_deviation)
    elapsed = time.perf_counter() - start
    assert worst_sum < 1e-10
    assert worst_diag < 1e-12
    assert elapsed < 5.0
    _report(
        "criterion 1 (completeness)",
        f"sum dev {worst_sum:.2e}, binomial diag dev {worst_diag:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_povm_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        report = verify_povm_equivalence(n)
        worst = max(worst, report.max_dev_bit0, report.max_dev_bit1, report.max_dev_z)
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    _report(
        "criterion 2 (POVM equivalence)", f"max dev {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_3_hadamard_covariance():
    start = time.perf_counter()
    worst_kraus = 0.0
    for n in range(1, 13):
        report = verify_hadamard_invariance(n, trials=1, seed=1)
        assert report.kraus_phase_ok
        worst_kraus = max(worst_kraus, report.kraus_max_deviation)
    worst_channel = 0.0
    for n in range(1, 11):
        report = verify_hadamard_invariance(n, trials=50, seed=2)
        worst_channel = max(worst_channel, report.channel_max_deviation)
    elapsed = time.perf_counter() - start
    assert worst_kraus < 1e-10
    assert worst_channel < 1e-10
    assert elapsed < 10.0
    _report(
        "criterion 3 (Hadamard covariance)",
        f"Kraus dev {worst_kraus:.2e}, channel dev {worst_channel:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_lift_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for n in range(1, 7):
        for _ in range(100):
            u = _haar_unitary(rng)
            dev = np.max(np.abs(lift_gate(u, n) - lift_gate_oracle(u, n)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 30.0
    _report(
        "criterion 4 (lift vs oracle)",
        f"600 unitaries, max entrywise dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_single_photon_identity():
    channel = build_squash(1)
    assert len(channel.ops) == 1
    op = channel.ops[0]
    phase = op[0, 0] / abs(op[0, 0])
    dev = np.max(np.abs(op - phase * np.eye(2)))
    assert dev < 1e-14
    _report(
        "criterion 5 (N=1 degeneracy)",
        f"single Kraus = identity up to phase, dev {dev:.2e}",
    )


def test_criterion_6_actual_vs_virtual():
    start = time.perf_counter()
    worst = 0.0
    for attack in SHIPPED_ATTACKS:
        actual = exact_sifted_distribution(attack, "bb84", "actual")
        for mode in ("edp1", "edp2"):
            virtual = exact_sifted_distribution(attack, "bb84", mode)
            for key in actual:
                worst = max(worst, abs(actual[key] - virtual[key]))
    assert worst < 1e-10
    pvals = []
    for i, attack in enumerate(SHIPPED_ATTACKS):
        law = exact_sifted_distribution(attack, "bb84", "actual")
        for j, mode in enumerate(("actual", "edp2")):
            result = run_simulation(
                "bb84", mode, attack, 100_000, 1000 + 10 * i + j
            )
            pvals.append(_law_chi_square_pvalue(result, law))
    elapsed = time.perf_counter() - start
    assert min(pvals) > 0.001
    assert elapsed < 60.0
    _report(
        "criterion 6 (actual vs virtual)",
        f"exact dev {worst:.2e}, min chi2 p-value {min(pvals):.3f} over "
        f"{len(pvals)} runs of 1e5 trials, {elapsed:.2f}s",
    )


def test_criterion_7_key_rate_figures():
    assert key_rate(0.0, 0.0) == 1.0
    crossing = brentq(lambda e: 1.0 - 2.0 * binary_entropy(e), 0.05, 0.2)
    assert 0.1099 <= crossing <= 0.1101
    assert key_rate(0.25, 0.25) == 0.0
    _report(
        "criterion 7 (key-rate figures)",
        f"R(0,0)=1, symmetric crossing at e={crossing:.6f}, R(0.25,0.25)=0",
    )


def test_criterion_8_depolarizing_end_to_end():
    for p in (0.0, 0.1, 0.22):
        e_bit, e_ph = exact_error_rates(Depolarize(p))
        assert abs(e_bit - p / 2) < 1e-12
        assert abs(e_ph - p / 2) < 1e-12
    devs = []
    for p in (0.1, 0.22):
        result = run_simulation("bb84", "actual", Depolarize(p), 100_000, 4242)
        sigma = np.sqrt((p / 2) * (1 - p / 2) / result.sifted)
        devs.append(abs(result.e_bit - p / 2) / sigma)
        assert devs[-1] < 4.0
    _report(
        "criterion 8 (depolarizing)",
        f"exact rates p/2 within 1e-12; MC deviations {max(devs):.2f} sigma",
    )


def test_criterion_9_bbm92():
    start = time.perf_counter()
    honest = FixedBlockState(CompositeBlockState({(1, 1): (1.0, bell_state())}))
    result = run_simulation("bbm92", "actual", honest, 100_000, 606)
    assert result.e_bit == 0.0
    assert result.key_rate == 1.0
    blk = projector(sym_basis_state(2, 1))
    double = FixedBlockState(
        CompositeBlockState({(2, 2): (1.0, np.kron(blk, blk))})
    )
    result = run_simulation("bbm92", "actual", double, 100_000, 607)
    sigma = np.sqrt(0.25 / result.sifted)
    assert abs(result.e_bit - 0.5) < 4 * sigma
    worst = 0.0
    pvals = []
    for i, attack in enumerate((honest, double, Depolarize(0.15))):
        actual = exact_sifted_distribution(attack, "bbm92", "actual")
        edp2 = exact_sifted_distribution(attack, "bbm92", "edp2")
        for key in actual:
            worst = max(worst, abs(actual[key] - edp2[key]))
        for j, mode in enumerate(("actual", "edp2")):
            run = run_simulation("bbm92", mode, attack, 100_000, 700 + 10 * i + j)
            pvals.append(_law_chi_square_pvalue(run, actual))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert min(pvals) > 0.001
    assert elapsed < 60.0
    _report(
        "criterion 9 (BBM92)",
        f"honest e_bit=0 rate=1, double coincidence e_bit~0.5, actual/EDP2 "
        f"dev {worst:.2e}, min chi2 p {min(pvals):.3f}, {elapsed:.2f}s",
    )


def test_criterion_10_reproducibility(tmp_path, monkeypatch):
    from click.testing import CliRunner

    from squashkit.cli import main

    runner = CliRunner()
    outputs = []
    for threads, name in (("1", "a"), ("6", "b"), ("1", "c")):
        monkeypatch.setenv("SQUASHKIT_THREADS", threads)
        out = tmp_path / f"{name}.csv"
        code = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--mode", "edp2",
            "--attack", '{"kind":"depolarize","p":0.08}',
            "--trials", "50000", "--seed", "31337", "--out", str(out),
        ]).exit_code
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(
        "criterion 10 (reproducibility)",
        "byte-identical CSV across reruns and SQUASHKIT_THREADS in {1, 6}",
    )
