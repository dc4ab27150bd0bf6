"""Tests for the command-line interface and its output contracts."""

import copy
import dataclasses
import json
import math
import random
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from squashkit.cli import main
from squashkit.protocol import SimResult


@pytest.fixture
def runner():
    return CliRunner()


DEPOL = '{"kind":"depolarize","p":0.0}'
HUGE = "1" + "0" * 400  # a JSON integer no float holds
HUGE_SHOWN = "1" + "0" * 17 + "..." + "0" * 19  # as a message shows it
CUSTOM = '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,"amps":%s}]}'
FIXED = '{"kind":"fixed_block","blocks":[{"m":1,"n":0,"weight":1,"rho":%s}]}'


class TestVerify:
    def test_passes_at_default_tolerance(self, runner):
        result = runner.invoke(main, ["verify", "--nmax", "6", "--tol", "1e-10"])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_single_photon_exact_zeros(self, runner):
        result = runner.invoke(main, ["verify", "--nmax", "1", "--tol", "1e-15"])
        assert result.exit_code == 0

    def test_bad_nmax_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--nmax", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf", "-inf", "1e400"])
    def test_bad_tol_is_usage_error(self, runner, tol):
        # click reads 1e400 as inf, which no JSON report can hold
        result = runner.invoke(main, ["verify", "--nmax", "1", "--tol", tol, "--format", "json"])
        assert result.exit_code == 2
        assert "--tol must be finite and > 0" in result.output

    def test_largest_finite_tol_report_parses(self, runner):
        tol = sys.float_info.max
        result = runner.invoke(main, ["verify", "--nmax", "1", "--tol", repr(tol), "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["tol"] == tol

    def test_trial_stacks_stay_within_the_family_peak(self):
        # Building the squash channel at N = 40 and checking its covariance
        # peaks at the build; the lift-vs-oracle row at N = 6 works its 100
        # random gates through in bounded slices and stays under that peak.
        from squashkit.cli import _lift_oracle_row
        from squashkit.squash import build_squash, verify_hadamard_invariance

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = peak(lambda: verify_hadamard_invariance(build_squash(40))) + 64 * 1024
        assert peak(_lift_oracle_row, 6, random.Random(2024)) <= bound

    def test_impossible_tolerance_fails(self, runner):
        result = runner.invoke(main, ["verify", "--nmax", "8", "--tol", "1e-20"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_json_report_parses_and_passes(self, runner):
        result = runner.invoke(
            main, ["verify", "--nmax", "4", "--format", "json"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["passed"] is True
        assert report["nmax"] == 4
        checks = {c["check"] for c in report["checks"]}
        assert checks == {
            "completeness",
            "povm_equivalence",
            "hadamard_invariance",
            "lift_oracle",
        }

    def test_json_rows_are_check_n_then_report_fields(self, runner):
        result = runner.invoke(main, ["verify", "--nmax", "2", "--format", "json"])
        assert result.exit_code == 0
        keys = {}
        for c in json.loads(result.output)["checks"]:
            assert keys.setdefault(c["check"], list(c)) == list(c)
        assert keys == {
            "completeness": [
                "check", "n", "max_deviation", "diag_formula_deviation",
            ],
            "povm_equivalence": [
                "check", "n", "max_deviation", "max_dev_bit0", "max_dev_bit1",
                "max_dev_z",
            ],
            "hadamard_invariance": [
                "check", "n", "max_deviation", "kraus_max_deviation",
                "channel_max_deviation", "kraus_phase_ok",
            ],
            "lift_oracle": ["check", "n", "max_deviation"],
        }

    def test_passes_past_former_precision_cliff(self, runner):
        # N=47 and N=48 broke the trace-preserving check of the old lift
        result = runner.invoke(
            main, ["verify", "--nmax", "48", "--format", "json"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["passed"] is True
        assert len(report["checks"]) == 150
        assert all(c["max_deviation"] < 1e-10 for c in report["checks"])

    def test_raising_check_becomes_fail_row(self, runner, tmp_path, monkeypatch):
        import squashkit.cli as cli

        real = cli.verify_completeness

        def raising_at_two(channel):
            if channel.input_dim == 3:
                raise RuntimeError("boom")
            return real(channel)

        monkeypatch.setattr(cli, "verify_completeness", raising_at_two)
        out = tmp_path / "report.json"
        result = runner.invoke(main, [
            "verify", "--nmax", "3", "--format", "json", "--out", str(out),
        ])
        assert result.exit_code == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is False
        failed = [c for c in report["checks"] if c["max_deviation"] is None]
        assert failed == [{
            "check": "completeness",
            "n": 2,
            "max_deviation": None,
            "error": "RuntimeError: boom",
        }]
        finite = [c["max_deviation"] for c in report["checks"]
                  if c["max_deviation"] is not None]
        assert len(finite) == len(report["checks"]) - 1
        assert report["max_deviation"] == max(finite)
        text = runner.invoke(main, ["verify", "--nmax", "3"])
        assert text.exit_code == 1
        assert "N= 2  error RuntimeError: boom  FAIL" in text.output

    def test_one_channel_build_per_photon_number(self, runner, monkeypatch):
        import squashkit.cli as cli
        import squashkit.povm as povm

        real, built = cli.build_squash, []

        def counting(n):
            built.append(n)
            return real(n)

        def no_second_build(n):
            raise AssertionError(f"a second build of the N={n} channel")

        monkeypatch.setattr(cli, "build_squash", counting)
        monkeypatch.setattr(povm, "build_squash", no_second_build)
        result = runner.invoke(main, ["verify", "--nmax", "5", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"] is True
        assert built == [1, 2, 3, 4, 5]

    def test_one_lift_to_y_per_photon_number(self, runner, monkeypatch):
        # the build, the covariance check, the x-basis effects and the
        # lift_oracle row share symfock's cached K: one per N, each from one
        # real eigensolve (N = 1 is exact, with none)
        import squashkit.symfock as symfock

        real, solved = np.linalg.eigh, []

        def counting(a):
            solved.append((len(a) - 1, a.dtype))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        symfock._hadamard_lift.cache_clear()  # no N kept from an earlier test
        result = runner.invoke(main, ["verify", "--nmax", "5", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"] is True
        assert symfock._hadamard_lift.cache_info().misses == 5
        assert solved == [(n, np.float64) for n in (2, 3, 4, 5)]

    @pytest.mark.parametrize("mutation", ["negated-sub-diagonal", "last-column-negated"])
    def test_wrong_shared_lift_fails_a_check(self, runner, monkeypatch, mutation):
        # the build and the covariance check read one cached lift, so one
        # wrong lift on both sides of the covariance identity must still show
        import squashkit.squash as squash
        import squashkit.symfock as symfock

        real = symfock._hadamard_lift

        def wrong(n):
            lifted = real(n).copy()
            if mutation == "negated-sub-diagonal":  # the lift of Z H Z: (-1)^(j+l) K
                signs = 1 - 2 * (np.arange(n + 1) % 2)
                return lifted * signs * signs[:, None]
            lifted[:, -1] *= -1
            return lifted

        for module in (symfock, squash):
            monkeypatch.setattr(module, "_hadamard_lift", wrong)
        result = runner.invoke(main, ["verify", "--nmax", "5", "--format", "json"])
        assert result.exit_code == 1
        rows = json.loads(result.output)["checks"]
        for n in (2, 3, 5):
            worst = max(row["max_deviation"] for row in rows
                        if row["n"] == n and row["check"] != "lift_oracle")
            assert worst >= 0.4

    def test_failed_build_fails_each_check_at_its_n(self, runner, monkeypatch):
        import squashkit.cli as cli

        real = cli.build_squash

        def raising_at_two(n):
            if n == 2:
                raise ValueError("no channel")
            return real(n)

        monkeypatch.setattr(cli, "build_squash", raising_at_two)
        result = runner.invoke(main, ["verify", "--nmax", "3", "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if c["max_deviation"] is None]
        assert failed == [
            {"check": name, "n": 2, "max_deviation": None, "error": "ValueError: no channel"}
            for name in ("completeness", "povm_equivalence", "hadamard_invariance")
        ]
        assert [(c["check"], c["n"]) for c in report["checks"]] == [
            (name, n)
            for name, top in (("completeness", 3), ("povm_equivalence", 3),
                              ("hadamard_invariance", 3), ("lift_oracle", 3))
            for n in range(1, top + 1)
        ]
        assert all(c["max_deviation"] < 1e-10 for c in report["checks"] if c not in failed)


def haar_defects(u) -> list:
    """The checks of the Haar law on U(2) that a (count, 2, 2) stack fails."""
    from scipy import stats

    defects = []
    if not np.max(np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(2))) <= 1e-15:
        defects.append("unitary")
    if not stats.kstest(np.abs(u[:, 0, 0]) ** 2, "uniform").pvalue > 1e-4:
        defects.append("|u00|^2")
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    if not stats.kstest(np.angle(det), stats.uniform(-np.pi, 2 * np.pi).cdf).pvalue > 1e-4:
        defects.append("arg det u")
    if not abs(np.mean(np.abs(u[:, 0, 0] + u[:, 1, 1]) ** 2) - 1.0) <= 0.05:
        defects.append("|tr u|^2")
    return defects


class TestHaarGates:
    # The lift_oracle rows' gates, 4000 at a time through the same function:
    # under Haar measure |u00|^2 is uniform on [0, 1], det u uniform on the
    # unit circle, and E|tr u|^2 = 1.
    def test_closed_form_draw_is_haar(self):
        from squashkit.cli import _haar_gates

        u = _haar_gates(random.Random(1), 4000)
        assert u.shape == (4000, 2, 2)
        assert haar_defects(u) == []

    @pytest.mark.parametrize("mutation, defects", [
        (("scale = phase /", "scale = np.abs(phase) /"), ["arg det u"]),  # an SU(2)-only draw
        (("(squares[:, 0] + squares[:, 1]) * ", ""), ["unitary", "|u00|^2", "|tr u|^2"]),
    ])
    def test_checks_catch_a_mutated_sampler(self, mutation, defects):
        # the sampler's own source with the phase dropped, or with (a, b) left
        # unnormalised
        import inspect

        from squashkit import cli

        source = inspect.getsource(cli._haar_gates)
        assert mutation[0] in source
        namespace = dict(vars(cli))
        exec(source.replace(*mutation), namespace)
        assert haar_defects(namespace["_haar_gates"](random.Random(1), 4000)) == defects


class TestSimulate:
    def test_csv_row_shape(self, runner):
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--mode", "actual",
            "--attack", DEPOL, "--trials", "20000", "--seed", "42",
        ])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == (
            "protocol,mode,attack,trials,seed,sifted,e_bit,e_ph,key_rate,runtime_ms"
        )
        fields = next_line_fields(lines[1])
        assert fields[0] == "bb84"
        assert fields[3] == "20000"
        assert fields[6] == "0.0"  # e_bit
        assert fields[7] == ""     # e_ph absent in actual mode
        assert fields[8] == "1.0"  # key_rate
        assert fields[9] == ""     # runtime deliberately absent in CSV

    def test_virtual_mode_populates_e_ph(self, runner):
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--mode", "edp2",
            "--attack", DEPOL, "--trials", "20000", "--seed", "42",
        ])
        fields = next_line_fields(result.output.splitlines()[1])
        assert fields[7] == "0.0"

    def test_byte_identical_reruns(self, runner, tmp_path, monkeypatch):
        args = [
            "simulate", "--protocol", "bbm92", "--mode", "actual",
            "--attack", '{"kind":"depolarize","p":0.17}',
            "--trials", "30000", "--seed", "7",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        monkeypatch.setenv("SQUASHKIT_THREADS", "1")
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        monkeypatch.setenv("SQUASHKIT_THREADS", "5")
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_round_trip(self, runner):
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--mode", "edp1",
            "--attack", '{"kind":"intercept_resend"}',
            "--trials", "20000", "--seed", "5", "--format", "json",
        ])
        assert result.exit_code == 0
        record = json.loads(result.output)
        assert record["protocol"] == "bb84"
        assert record["trials"] == 20000
        assert record["sifted"] == record["sifted_z"] + record["sifted_x"]
        assert isinstance(record["runtime_ms"], float)
        # re-parse of a re-emission is unchanged (numbers are exact)
        assert json.loads(json.dumps(record)) == record

    def test_json_keys_are_sim_result_fields_then_runtime(self, runner):
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", DEPOL,
            "--trials", "1000", "--seed", "1", "--format", "json",
        ])
        assert result.exit_code == 0
        fields = [f.name for f in dataclasses.fields(SimResult)]
        assert list(json.loads(result.output)) == fields + ["runtime_ms"]

    def test_zero_sifted_rates_are_empty_fields(self, runner, tmp_path):
        # all-vacuum source: rates must be absent in CSV, not zero
        spec = tmp_path / "vacuum.json"
        spec.write_text(json.dumps({
            "kind": "fixed_block",
            "blocks": [{
                "m": 1, "n": 0, "weight": 1.0,
                "rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            }],
        }))
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--attack-file", str(spec),
            "--trials", "1000", "--seed", "1",
        ])
        assert result.exit_code == 0
        fields = next_line_fields(result.output.splitlines()[1])
        assert fields[5] == "0"  # sifted
        assert fields[6] == ""   # e_bit absent
        assert fields[8] == ""   # key_rate absent

    def test_attack_file(self, runner, tmp_path):
        spec = tmp_path / "attack.json"
        spec.write_text('{"kind":"coincidence_injection","n_photons":2,"c":1}')
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--attack-file", str(spec),
            "--trials", "5000", "--seed", "2",
        ])
        assert result.exit_code == 0

    def test_fixed_block_attack_inline(self, runner):
        attack = json.dumps({
            "kind": "fixed_block",
            "blocks": [{
                "m": 1, "n": 1, "weight": 1.0,
                "rho": [
                    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
                ],
            }],
        })
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", attack,
            "--trials", "20000", "--seed", "3",
        ])
        assert result.exit_code == 0
        fields = next_line_fields(result.output.splitlines()[1])
        assert fields[6] == "0.0"
        assert fields[8] == "1.0"

    def test_usage_errors(self, runner):
        base = ["simulate", "--protocol", "bb84", "--trials", "10", "--seed", "1"]
        assert runner.invoke(main, base).exit_code == 2  # no attack
        assert runner.invoke(
            main, base + ["--attack", DEPOL, "--attack-file", "x"]
        ).exit_code == 2  # both sources
        assert runner.invoke(
            main, base + ["--attack", '{"kind":"nope"}']
        ).exit_code == 2  # unknown kind
        assert runner.invoke(
            main, base + ["--attack", "{not json"]
        ).exit_code == 2  # malformed json
        no_seed = [
            "simulate", "--protocol", "bb84", "--attack", DEPOL, "--trials", "10",
        ]
        assert runner.invoke(main, no_seed).exit_code == 2  # seed mandatory

    @pytest.mark.parametrize("trials", ["0", str(2**63)])
    def test_trials_outside_the_int64_tallies_is_usage_error(self, runner, trials):
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--attack", DEPOL,
            "--trials", trials, "--seed", "1",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("attack", [
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,"amps":[[NaN,0],[0,0]]}]}',
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":NaN,"amps":[[1,0],[0,0]]}]}',
        '{"kind":"fixed_block","blocks":[{"m":0,"n":1,"weight":1,'
        '"rho":[[[NaN,0],[0,0]],[[0,0],[0,0]]]}]}',
        '{"kind":"fixed_block","blocks":[{"m":1,"n":0,"weight":1,'
        '"rho":[[[Infinity,0],[0,0]],[[0,0],[0,0]]]}]}',
    ], ids=["custom-amplitude", "custom-weight", "fixed-block-rho", "fixed-block-inf"])
    def test_non_finite_attack_is_usage_error(self, runner, attack):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "simulate", "--protocol", "bbm92", "--attack", attack,
                "--trials", "100", "--seed", "1",
            ])
        assert result.exit_code == 2
        assert "malformed attack spec" in result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("attack", [
        '{"kind":"coincidence_injection","n_photons":3.9,"c":1.5}',
        '{"kind":"coincidence_injection","n_photons":3.0,"c":1}',
        '{"kind":"coincidence_injection","n_photons":3,"c":true}',
        '{"kind":"coincidence_injection","n_photons":"3","c":1}',
        '{"kind":"custom","blocks":[{"m":1.7,"n":0,"weight":1,"amps":[[1,0],[0,0]]}]}',
        '{"kind":"custom","blocks":[{"m":0,"n":true,"weight":1,"amps":[[1,0],[0,0]]}]}',
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":"1","amps":[[1,0],[0,0]]}]}',
        '{"kind":"fixed_block","blocks":[{"m":0,"n":"0","weight":1,"rho":[[[1,0]]]}]}',
        '{"kind":"fixed_block","blocks":[{"m":0,"n":0,"weight":true,"rho":[[[1,0]]]}]}',
        '{"kind":"depolarize","p":"0.1"}',
        '{"kind":"depolarize","p":false}',
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,"amps":[[true,0],[0,0]]}]}',
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,"amps":[[1,false],[0,0]]}]}',
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,"amps":[["1",0],[0,0]]}]}',
        '{"kind":"fixed_block","blocks":[{"m":0,"n":0,"weight":1,"rho":[[[true,0]]]}]}',
        '{"kind":"fixed_block","blocks":[{"m":0,"n":0,"weight":1,"rho":[[["1",0]]]}]}',
        '{"kind":"depolarize","p":%s}' % HUGE,
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":%s,"amps":[[1,0],[0,0]]}]}' % HUGE,
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,"amps":[[%s,0],[0,0]]}]}' % HUGE,
        '{"kind":"fixed_block","blocks":[{"m":0,"n":0,"weight":%s,"rho":[[[1,0]]]}]}' % HUGE,
        '{"kind":"fixed_block","blocks":[{"m":0,"n":0,"weight":1,"rho":[[[1,%s]]]}]}' % HUGE,
    ], ids=["float-photons", "integral-float", "bool-photons", "string-photons",
            "custom-float-m", "custom-bool-n", "custom-string-weight",
            "fixed-block-string-n", "fixed-block-bool-weight", "string-p", "bool-p",
            "custom-bool-amp", "custom-bool-imag", "custom-string-amp",
            "fixed-block-bool-rho", "fixed-block-string-rho", "huge-p",
            "custom-huge-weight", "custom-huge-amp", "fixed-block-huge-weight",
            "fixed-block-huge-rho"])
    def test_mistyped_attack_number_is_usage_error(self, runner, attack):
        # before, int() and float() ran each of these as a truncated or parsed
        # value, complex() read true as 1.0, and a huge integer raised
        # OverflowError (a traceback, exit 1)
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", attack,
            "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "malformed attack spec" in result.output

    def test_unnormalized_custom_block_is_usage_error(self, runner):
        attack = (
            '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,'
            '"amps":[[1.0000000003,0],[0,0]]}]}'
        )
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", attack,
            "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "trace deviates" in result.output

    @pytest.mark.parametrize("source", ["--attack", "--attack-file"])
    @pytest.mark.parametrize("attack, message", [
        (CUSTOM % "[[true,0],[0,0]]",
         "blocks[0].amps[0][0]: expected a number that fits a float, got True"),
        (CUSTOM % '[["1",0],[0,0]]',
         "blocks[0].amps[0][0]: expected a number that fits a float, got '1'"),
        (CUSTOM % "[[%s,0],[0,0]]" % HUGE,
         "blocks[0].amps[0][0]: expected a number that fits a float, got " + HUGE_SHOWN),
        (CUSTOM % "[[1,0,0],[0,0]]", "blocks[0].amps[0]: expected a pair [re, im], got [1, 0, 0]"),
        (CUSTOM % "[[1],[0,0]]", "blocks[0].amps[0]: expected a pair [re, im], got [1]"),
        (CUSTOM % "[5]", "blocks[0].amps[0]: expected a pair [re, im], got 5"),
        (CUSTOM % "[null]", "blocks[0].amps[0]: expected a pair [re, im], got None"),
        (CUSTOM % "[{}]", "blocks[0].amps[0]: expected a pair [re, im], got {}"),
        (CUSTOM % "[[1,0],5]", "blocks[0].amps[1]: expected a pair [re, im], got 5"),
        (FIXED % "[[[true,0],[0,0]],[[0,0],[0,0]]]",
         "blocks[0].rho[0][0][0]: expected a number that fits a float, got True"),
        (FIXED % '[[["1",0],[0,0]],[[0,0],[0,0]]]',
         "blocks[0].rho[0][0][0]: expected a number that fits a float, got '1'"),
        (FIXED % "[[[1,%s],[0,0]],[[0,0],[0,0]]]" % HUGE,
         "blocks[0].rho[0][0][1]: expected a number that fits a float, got " + HUGE_SHOWN),
        (FIXED % "[[[1,0,0],[0,0]],[[0,0],[0,0]]]",
         "blocks[0].rho[0][0]: expected a pair [re, im], got [1, 0, 0]"),
        (FIXED % "[[[0.5,0],[0,0]],[[0.5,0]]]",
         "blocks[0].rho[1]: expected a row as long as the first, got [[0.5, 0]]"),
        (FIXED % "[[[1,0],[0,0]],5]", "blocks[0].rho[1]: expected a list of [re, im] pairs, got 5"),
        ('{"kind":"custom","blocks":[%s,%s]}' % ((
            '{"m":0,"n":1,"weight":0.5,"amps":[[1,0],[0,0]]}',) * 2),
         "blocks[1]: duplicate block (0, 1)"),
        ('{"kind":"fixed_block","blocks":[%s,%s]}' % ((
            '{"m":0,"n":0,"weight":0.5,"rho":[[[1,0]]]}',) * 2),
         "blocks[1]: duplicate block (0, 0)"),
        (FIXED % "[[1,0],[0,0]]", "blocks[0].rho[0][0]: expected a pair [re, im], got 1"),
        (CUSTOM % "[[[1,0],[0,0]],[[0,0],[0,0]]]",
         "blocks[0].amps[0][0]: expected a number that fits a float, got [1, 0]"),
        (CUSTOM % '["ab",[0,0]]', "blocks[0].amps[0]: expected a pair [re, im], got 'ab'"),
        (CUSTOM % '[{"a":1,"b":2},[0,0]]',
         "blocks[0].amps[0]: expected a pair [re, im], got {'a': 1, 'b': 2}"),
    ], ids=["amps-bool", "amps-string", "amps-huge", "amps-long-pair", "amps-short-pair",
            "amps-int-entry", "amps-null-entry", "amps-object-entry", "amps-int-after-pair",
            "rho-bool", "rho-string", "rho-huge", "rho-long-pair", "rho-ragged-rows",
            "rho-int-row", "custom-duplicate", "fixed-block-duplicate", "rho-vector",
            "amps-matrix", "amps-string-pair", "amps-object-pair"])
    def test_malformed_block_numbers_keep_their_message(self, runner, tmp_path, source,
                                                        attack, message):
        # a block's numbers are decoded to an array as the block is read, and
        # each malformed entry is a usage error whose message names its path;
        # a list one level too deep or too shallow is named at its first entry
        # of the wrong depth
        if source == "--attack-file":
            (tmp_path / "attack.json").write_text(attack, encoding="utf-8")
            attack = str(tmp_path / "attack.json")
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", source, attack, "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert f"malformed attack spec: {message}\n" in result.output

    @pytest.mark.parametrize("attack, message", [
        ('{"kind":"depolarize"}', "p: missing field"),
        ('{"kind":"coincidence_injection","c":1}', "n_photons: missing field"),
        ('{"kind":"coincidence_injection","n_photons":3}', "c: missing field"),
        ('{"kind":"custom"}', "blocks: missing field"),
        ('{"kind":"custom","blocks":[{"n":1,"weight":1,"amps":[[1,0],[0,0]]}]}',
         "blocks[0].m: missing field"),
        ('{"kind":"custom","blocks":[{"m":0,"weight":1,"amps":[[1,0],[0,0]]}]}',
         "blocks[0].n: missing field"),
        ('{"kind":"custom","blocks":[{"m":0,"n":1,"amps":[[1,0],[0,0]]}]}',
         "blocks[0].weight: missing field"),
        ('{"kind":"custom","blocks":[{"m":0,"n":0,"weight":0.5,"amps":[[1,0]]},'
         '{"m":0,"n":1,"weight":0.5}]}', "blocks[1].amps: missing field"),
        ('{"kind":"fixed_block","blocks":[{"m":0,"n":0,"weight":1,"amps":[[1,0]]}]}',
         "blocks[0].rho: missing field"),
        ('{"p":0.1}', "kind: missing field"),
    ], ids=["p", "n_photons", "c", "blocks", "m", "n", "weight", "amps", "rho", "kind"])
    def test_missing_field_names_itself(self, runner, attack, message):
        # before, each was a bare KeyError: "malformed attack spec: 'p'"
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", attack,
            "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert f"malformed attack spec: {message}\n" in result.output

    @pytest.mark.parametrize("attack, message", [
        ('{"kind":"custom","blocks":5}', "blocks: expected a list of block objects, got 5"),
        ('{"kind":"fixed_block","blocks":{"m":1}}',
         "blocks: expected a list of block objects, got {'m': 1}"),
        ('{"kind":"custom","blocks":[null]}', "blocks[0]: expected an object, got None"),
        ('{"kind":"custom","blocks":[{"m":0,"n":0,"weight":1,"amps":[[1,0]]},5]}',
         "blocks[1]: expected an object, got 5"),
        (CUSTOM % "5", "blocks[0].amps: expected a list of [re, im] pairs, got 5"),
        (CUSTOM % "null", "blocks[0].amps: expected a list of [re, im] pairs, got None"),
        (FIXED % "5", "blocks[0].rho: expected a list of rows of [re, im] pairs, got 5"),
        ("[1]", "attack: expected an object, got [1]"),
        ('{"kind":"nope"}', "kind: expected one of depolarize, intercept_resend, "
         "coincidence_injection, fixed_block, custom, got 'nope'"),
    ], ids=["blocks-int", "blocks-object", "block-null", "block-int", "amps-int", "amps-null",
            "rho-int", "attack-list", "unknown-kind"])
    def test_mistyped_block_structure_names_its_path(self, runner, attack, message):
        # before, each was Python's own message, such as "'int' object is not iterable"
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", attack,
            "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert f"malformed attack spec: {message}\n" in result.output

    @pytest.mark.parametrize("attack, message", [
        ('{"kind":"coincidence_injection","n_photons":%s,"c":1}' % HUGE,
         "n_photons: expected an integer in [0, 2**63), got " + HUGE_SHOWN),
        ('{"kind":"custom","blocks":[{"m":%s,"n":1,"weight":1,"amps":[[1,0],[0,0]]}]}' % HUGE,
         "blocks[0].m: expected an integer in [0, 2**63), got " + HUGE_SHOWN),
        ('{"kind":"depolarize","p":%s}' % HUGE,
         "p: expected a number that fits a float, got " + HUGE_SHOWN),
    ], ids=["n_photons", "m", "p"])
    def test_absurd_number_is_named_in_brief(self, runner, attack, message):
        # before, a 400-digit n_photons read numpy's "Maximum allowed dimension
        # exceeded", and a 400-digit m was printed whole
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", attack,
            "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert result.output.endswith(f"malformed attack spec: {message}\n")
        assert len(HUGE_SHOWN) <= 40

    @pytest.mark.parametrize("source", ["--attack", "--attack-file"])
    def test_fields_the_attack_does_not_read_are_usage_errors(self, runner, tmp_path, source):
        # before, each was ignored and the run exited 0
        for attack, message in (
            ('{"kind":"depolarize","p":0.1,"extra":1}', "extra: unknown field"),
            ('{"kind":"intercept_resend","p":0.1}', "p: unknown field"),
            (CUSTOM % '[[1,0],[0,0]],"x":1', "blocks[0].x: unknown field"),
            (CUSTOM % '[[1,0],[0,0]],"rho":3', "blocks[0].rho: unknown field"),
            ('{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,'
             '"amps":[[1,0],[0,0]],"rho":[[true]]}],"amps":["x"]}', "amps: unknown field"),
        ):
            if source == "--attack-file":
                (tmp_path / "attack.json").write_text(attack, encoding="utf-8")
                attack = str(tmp_path / "attack.json")
            result = runner.invoke(main, [
                "simulate", "--protocol", "bbm92", source, attack, "--trials", "100",
                "--seed", "1",
            ])
            assert result.exit_code == 2, attack
            assert result.output.endswith(f"malformed attack spec: {message}\n"), attack

    def test_duplicate_fixed_block_is_usage_error(self, runner):
        # two (1, 1) blocks of weight 1: the second used to replace the first
        rho = [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]
        block = {"m": 1, "n": 1, "weight": 1.0, "rho": rho}
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92",
            "--attack", json.dumps({"kind": "fixed_block", "blocks": [block, block]}),
            "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "duplicate block (1, 1)" in result.output

    def test_non_utf8_attack_file_is_usage_error(self, runner, tmp_path):
        spec = tmp_path / "attack.json"
        spec.write_bytes(b'{"kind": "depolarize", "p": 0.1\xff}')
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--attack-file", str(spec),
            "--trials", "100", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "malformed attack spec" in result.output

    def test_large_photon_number_attack_runs(self, runner):
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--mode", "edp2",
            "--attack", '{"kind":"coincidence_injection","n_photons":50,"c":3}',
            "--trials", "1000", "--seed", "1",
        ])
        assert result.exit_code == 0

    @pytest.mark.parametrize("error", [MemoryError, type("_ArrayMemoryError", (MemoryError,), {})])
    def test_attack_too_large_for_memory_exits_one(self, runner, monkeypatch, error):
        # building the named state, while the attack is parsed, is where a
        # huge attack's allocation fails (here its one block); numpy
        # raises a private subclass, reported by its public name
        real = np.zeros

        def failing(shape, *args, **kwargs):
            if shape == (2 * 10**7 + 2, 2 * 10**7 + 2):
                raise error("Unable to allocate 1.5 PiB")
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", failing)
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84",
            "--attack", '{"kind":"coincidence_injection","n_photons":10000000,"c":1}',
            "--trials", "10", "--seed", "1",
        ])
        assert result.exit_code == 1
        assert result.output == "simulation failed: MemoryError: Unable to allocate 1.5 PiB\n"

    @pytest.mark.parametrize("n_photons, code, message", [
        (379_625_062, 2, "malformed attack spec: attack: n_photons: expected an integer in "
                         "[0, 379625061], a block numpy can index, got 379625062\n"),
        (10**5, 1, "simulation failed: MemoryError: Unable to allocate "),
        (379_625_061, 1, "simulation failed: MemoryError: Unable to allocate "),
    ], ids=["too-large-to-index", "too-large-to-allocate", "largest-to-index"])
    def test_photon_number_numpy_cannot_index_is_usage_error(self, n_photons, code, message):
        # numpy cannot index the (2N + 2)-square complex block past N = 379625061,
        # so a larger N is a usage error; the child's address space is capped
        # at 1 GiB, so that N = 1e5 fails to allocate whatever the machine's memory
        import resource
        import subprocess

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        attack = '{"kind":"coincidence_injection","n_photons":%d,"c":1}' % n_photons
        proc = subprocess.run(
            [sys.executable, "-m", "squashkit", "simulate", "--protocol", "bb84",
             "--attack", attack, "--trials", "10", "--seed", "1"],
            capture_output=True, text=True, env=child_env(), preexec_fn=cap_address_space,
            timeout=60,
        )
        assert proc.returncode == code
        assert message in proc.stderr
        assert "array is too big" not in proc.stderr

    @pytest.mark.parametrize("protocol, attack", [
        ("bb84", '{"kind":"coincidence_injection","n_photons":4,"c":1}'),
        ("bb84", '{"kind":"custom","blocks":[{"m":1,"n":1,"weight":1,'
                 '"amps":[[1,0],[0,0],[0,0],[0,0]]}]}'),
        ("bbm92", FIXED % "[[[1,0],[0,0]],[[0,0],[0,0]]]"),
    ], ids=["bb84-named", "bb84-explicit", "bbm92-explicit"])
    def test_one_state_build_per_run(self, runner, monkeypatch, protocol, attack):
        # every block-state construction is counted, so a second build anywhere shows
        from squashkit.povm import CompositeBlockState

        real, built = CompositeBlockState.__post_init__, []

        def counting(state):
            built.append(state)
            real(state)

        monkeypatch.setattr(CompositeBlockState, "__post_init__", counting)
        result = runner.invoke(main, [
            "simulate", "--protocol", protocol, "--attack", attack,
            "--trials", "1000", "--seed", "1",
        ])
        assert result.exit_code == 0, result.output
        assert len(built) == 1

    @pytest.mark.parametrize("attack", [
        DEPOL,
        '{"kind":"intercept_resend"}',
        '{"kind":"coincidence_injection","n_photons":4,"c":1}',
    ], ids=["depolarize", "intercept-resend", "coincidence-injection"])
    def test_named_build_numerical_failure_exits_one(self, runner, monkeypatch, attack):
        # a named state is built while the attack is parsed; a LinAlgError
        # there is a simulation failure, not a malformed attack
        import squashkit.povm as povm

        def failing(rho):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(povm, "validate_density", failing)
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--attack", attack,
            "--trials", "10", "--seed", "1",
        ])
        assert result.exit_code == 1
        assert result.output == "simulation failed: LinAlgError: Eigenvalues did not converge\n"

    def test_table_holding_nan_fails_the_simulation(self, runner, monkeypatch):
        # the sampler refuses a law it cannot draw from; the CLI exits 1
        import squashkit.protocol as protocol

        real = protocol._table

        def poisoned(*args):
            keys, cells = real(*args)
            cells[0, 0, 0, 0] = np.nan
            return keys, cells

        monkeypatch.setattr(protocol, "_table", poisoned)
        with pytest.raises(ValueError, match="finite"):
            protocol.run_simulation("bb84", "actual", protocol.Depolarize(0.1), 1000, 1)
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--attack", DEPOL, "--trials", "1000", "--seed", "1",
        ])
        assert result.exit_code == 1
        assert result.output.startswith("simulation failed: ValueError: cell weights must be")
        assert result.output.count("\n") == 1 and result.output.endswith("\n")

    def test_numerical_failure_exits_one(self, runner, monkeypatch):
        # A numerical failure inside a valid simulation (here a forced
        # LinAlgError) is a simulation failure, not a usage error.
        import squashkit.protocol as protocol

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(protocol, "run_simulation", failing)
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--mode", "edp2",
            "--attack", '{"kind":"coincidence_injection","n_photons":50,"c":3}',
            "--trials", "1000", "--seed", "1",
        ])
        assert result.exit_code == 1
        assert "simulation failed" in result.output
        # a BB84 sender that is not a single qubit is still a usage error
        two_photon_sender = json.dumps({
            "kind": "fixed_block",
            "blocks": [{
                "m": 2, "n": 1, "weight": 1.0,
                "rho": [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(6)]
                        for i in range(6)],
            }],
        })
        result = runner.invoke(main, [
            "simulate", "--protocol", "bb84", "--attack", two_photon_sender,
            "--trials", "10", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert result.output.endswith("malformed attack spec: attack: BB84 requires the sender "
                                      "side to be a single qubit; got blocks [(2, 1)]\n")


#: Valid attacks of the tests above, as the objects their JSON decodes to.
VALID_ATTACKS = [
    {"kind": "depolarize", "p": 0.17},
    {"kind": "intercept_resend"},
    {"kind": "coincidence_injection", "n_photons": 2, "c": 1},
    json.loads(CUSTOM % "[[1,0],[0,0]]"),
    json.loads(FIXED % "[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]"),
]
ATTACK_FIELDS = ["kind", "p", "n_photons", "c", "blocks", "m", "n", "weight", "amps", "rho", "x"]
# photon numbers stay at most 12, so that no mutation allocates, except the
# 400-digit integer
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.floats(-2.0, 2.0), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, int(HUGE), [], {}, [[0, 0]]]),
)


def json_paths(obj, path=()):
    """The key path of `obj` and of every value nested in it."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from json_paths(value, path + (key,))


#: A usage error's message that names a path: a field, with its indices and
#: subfields (``blocks[0].amps[3]``), or the ``attack`` itself.
NAMES_A_PATH = re.compile(r"\nError: malformed attack spec: [a-z_]+(\[\d+\]|\.[a-z_]+)*: ")


@st.composite
def mutated_attacks(draw):
    """A valid attack's JSON with one value dropped, added to, retyped, nested
    one level deeper or unwrapped by one level."""
    box = [copy.deepcopy(draw(st.sampled_from(VALID_ATTACKS)))]
    *parents, key = (0, *draw(st.sampled_from(list(json_paths(box[0])))))
    parent = box
    for k in parents:
        parent = parent[k]
    value = parent[key]
    mutation = draw(st.sampled_from(["drop", "add", "retype", "nest", "unnest"]))
    if mutation == "drop" and parent is not box:
        del parent[key]
    elif mutation == "add" and isinstance(value, dict):
        value[draw(st.sampled_from(ATTACK_FIELDS))] = draw(ODD_VALUES)
    elif mutation == "add" and isinstance(value, list):
        value.append(draw(ODD_VALUES))
    elif mutation == "nest":
        parent[key] = [value]
    elif mutation == "unnest" and isinstance(value, (dict, list)) and value:
        parent[key] = next(iter(value.values())) if isinstance(value, dict) else value[0]
    else:
        parent[key] = draw(ODD_VALUES)
    return json.dumps(box[0])


@given(attack=mutated_attacks(), protocol=st.sampled_from(["bb84", "bbm92"]))
@settings(max_examples=150, deadline=None)
def test_mutated_attack_spec_is_never_a_traceback(attack, protocol):
    result = CliRunner().invoke(main, [
        "simulate", "--protocol", protocol, "--attack", attack, "--trials", "100", "--seed", "1",
    ])
    assert result.exception is None or isinstance(result.exception, SystemExit), attack
    assert result.exit_code in (0, 1, 2), attack
    if result.exit_code == 1:
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("simulation failed: "), attack
    if result.exit_code == 2:  # every message names the path of what it rejects
        assert NAMES_A_PATH.search(result.output), (attack, result.output)


@pytest.mark.parametrize("source", ["inline", "file"])
def test_too_deeply_nested_attack_is_usage_error(runner, tmp_path, source):
    # past the JSON parser's nesting depth (about 1000), json.loads raises
    # RecursionError, which was a traceback at exit 1
    if source == "inline":
        attack = ["--attack", "[" * 3000 + "]" * 3000]
    else:
        amps = "[" * 5000 + "]" * 5000
        path = tmp_path / "deep.json"
        path.write_text('{"kind": "custom", "blocks": [{"m": 1, "n": 1, "weight": 1, '
                        f'"amps": {amps}}}]}}', encoding="utf-8")
        attack = ["--attack-file", str(path)]
    result = runner.invoke(main, ["simulate", "--protocol", "bb84", *attack,
                                  "--trials", "10", "--seed", "1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = [line for line in result.output.splitlines() if "malformed attack spec" in line]
    assert len(lines) == 1 and lines[0].startswith("Error: malformed attack spec: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command, module, work", [
    (["verify", "--nmax", "200"], "cli", "build_squash"),
    (["simulate", "--protocol", "bb84", "--attack", DEPOL, "--trials", "10", "--seed", "1"],
     "protocol", "run_simulation"),
    (["keyrate", "--sweep", "0:0.25:0.005"], "protocol", "key_rate"),
], ids=["verify", "simulate", "keyrate"])
def test_out_in_missing_directory_is_usage_error(runner, tmp_path, monkeypatch, command, module,
                                                 work):
    # checked before any work: a monkeypatched stage is never reached (the
    # CLI takes simulate's and keyrate's stages from squashkit.protocol as
    # each command runs)
    import importlib

    calls = []
    monkeypatch.setattr(importlib.import_module(f"squashkit.{module}"), work,
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "missing" / "r.json"
    result = runner.invoke(main, command + ["--out", str(out)])
    assert result.exit_code == 2
    assert "cannot write --out" in result.output
    assert not out.parent.exists()
    assert calls == []


def test_out_under_a_file_is_usage_error(runner, tmp_path):
    (tmp_path / "file").write_text("not a directory")
    result = runner.invoke(main, ["keyrate", "--ebit", "0", "--eph", "0",
                                  "--out", str(tmp_path / "file" / "r.csv")])
    assert result.exit_code == 2
    assert "cannot write --out" in result.output


def child_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    import os
    from pathlib import Path

    import squashkit

    src = str(Path(squashkit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


LADDER_SIMULATE = ["simulate", "--protocol", "bbm92", "--attack-file", "{attack}",
                   "--trials", "1000", "--seed", "1"]


@pytest.mark.parametrize("command, head", [
    (LADDER_SIMULATE + ["--format", "json"], b'{\n  "protocol": "bbm'),
    (LADDER_SIMULATE, b"protocol,mode,attack"),
    (["keyrate", "--sweep", "0:0.5:0.000001"], b"e,h2,rate\r\n0.0,0.0,1"),
], ids=["simulate-json", "simulate-csv", "keyrate-sweep"])
def test_broken_stdout_pipe_is_not_an_out_error(tmp_path, command, head):
    # a reader that takes 20 bytes of a report far larger than a pipe's
    # buffer (0.8 MB record, 0.5 MB CSV row, 25 MB curve) and closes the pipe
    import subprocess
    import sys

    attack = tmp_path / "ladder.json"
    attack.write_text(json.dumps(ladder_attack_seed1()), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "squashkit", *(arg.format(attack=attack) for arg in command)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    try:
        got = proc.stdout.read(20)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert got == head
    assert "--out" not in stderr
    assert code == 1  # click's exit for EPIPE on stdout


def test_verify_never_imports_numpy_random():
    # verify and simulate draw from the stdlib's random; numpy.random and
    # its extension modules would cost about 6 MB of peak RSS.  verify does
    # not load squashkit.protocol either, and draws its Haar gates in closed
    # form: a call of numpy.linalg.qr would turn a row into a FAIL.
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import numpy.linalg\n"
        "def no_qr(*args, **kwargs):\n"
        "    raise AssertionError('numpy.linalg.qr called')\n"
        "numpy.linalg.qr = no_qr\n"
        "from squashkit.cli import main\n"
        "for fmt in ('text', 'json'):\n"
        "    main(['verify', '--nmax', '8', '--format', fmt], standalone_mode=False)\n"
        "print('squashkit.protocol' in sys.modules, 'numpy.random' in sys.modules,\n"
        "      file=sys.stderr)\n"
        "print('---')\n"
        "for protocol in ('bb84', 'bbm92'):\n"
        "    for fmt in ('csv', 'json'):\n"
        "        main(['simulate', '--protocol', protocol, '--attack', sys.argv[1],\n"
        "              '--trials', '100000', '--seed', '1', '--format', fmt],\n"
        "             standalone_mode=False)\n"
        "print('numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, DEPOL], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    verify, simulate = proc.stdout.split("---\n")
    assert "PASS: 30 checks" in verify
    assert json.loads(verify[verify.index("{"):])["passed"] is True
    assert simulate.count("protocol,mode,attack") == 2
    assert simulate.count('"sifted_counts"') == 2
    assert proc.stderr.split("\n") == ["False False", "False", ""]


def test_verify_runs_no_complex_eigensolver():
    # every matrix the squash, its checks and the effects read is real: K
    # comes from one real eigh, and the positivity check's eigvalsh reads a real J
    import subprocess
    import sys

    code = (
        "import numpy as np\n"
        "def real_only(solver):\n"
        "    def solve(a, *args, **kwargs):\n"
        "        if np.iscomplexobj(a):\n"
        "            raise AssertionError(f'complex argument to {solver.__name__}')\n"
        "        return solver(a, *args, **kwargs)\n"
        "    return solve\n"
        "np.linalg.eigh = real_only(np.linalg.eigh)\n"
        "np.linalg.eigvalsh = real_only(np.linalg.eigvalsh)\n"
        "from squashkit.cli import main\n"
        "main(['verify', '--nmax', '12'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS: 42 checks" in proc.stdout


class TestKeyrate:
    def test_point_evaluation(self, runner):
        result = runner.invoke(main, ["keyrate", "--ebit", "0", "--eph", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    def test_sweep_produces_curve_with_crossing(self, runner):
        result = runner.invoke(main, ["keyrate", "--sweep", "0:0.25:0.005"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "e,h2,rate"
        rows = [line.split(",") for line in lines[1:] if line]
        positive = [float(r[0]) for r in rows if float(r[2]) > 0]
        zero = [float(r[0]) for r in rows if float(r[2]) == 0.0]
        assert max(positive) < 0.1101
        assert min(zero) > 0.1099 - 0.005

    def test_out_of_range_rejected(self, runner):
        assert runner.invoke(
            main, ["keyrate", "--ebit", "0.6", "--eph", "0.1"]
        ).exit_code == 2

    def test_sweep_format_validated(self, runner):
        assert runner.invoke(main, ["keyrate", "--sweep", "0:0.6:0.1"]).exit_code == 2
        assert runner.invoke(main, ["keyrate", "--sweep", "0-0.2-0.1"]).exit_code == 2
        for step in ("0", "nan"):
            args = ["keyrate", "--sweep", f"0:0.1:{step}"]
            assert runner.invoke(main, args).exit_code == 2
        for fraction in ("2", "-0.5", "nan"):
            args = ["keyrate", "--sweep", "0:0.1:0.05", "--fraction", fraction]
            assert runner.invoke(main, args).exit_code == 2

    @pytest.mark.parametrize("step", ["1e-12", "1e-320"])
    def test_sweep_row_count_capped(self, runner, step):
        # 5e11 rows would be buffered before the first is written; a
        # subnormal step makes the row count overflow to inf
        result = runner.invoke(main, ["keyrate", "--sweep", f"0:0.5:{step}"])
        assert result.exit_code == 2
        assert "cap of 1000000" in result.output

    def test_requires_some_input(self, runner):
        assert runner.invoke(main, ["keyrate"]).exit_code == 2


def reference_json_dumps(obj, level=0):
    """The writer with one recursive call per value, floats included."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):  # an attack block's numbers: the lists they stand for
        return reference_json_dumps(obj.tolist(), level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + reference_json_dumps(v, level + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {reference_json_dumps(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ladder_attack_seed1(nmax=None):
    """The benchmark's seeded 13x13-block BBM92 attack (perfbench/workloads.py),
    or its (nmax+1)x(nmax+1)-block form."""
    import importlib.util
    import sys
    from pathlib import Path

    name = "perfbench_workloads"
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        if nmax is not None:
            module.LADDER_NMAX = nmax
        return module.ladder_attack(1)
    finally:
        del sys.modules[name]


def dumps(obj):
    """The streamed writer's pieces, joined."""
    from squashkit.cli import _json_pieces

    return "".join(_json_pieces(obj))


class TestJsonSerializer:
    def test_ladder_record_matches_reference_writer(self):
        from squashkit.protocol import attack_from_dict, run_simulation

        attack = attack_from_dict(ladder_attack_seed1())
        result = run_simulation("bbm92", "actual", attack, 2_000_000, 1)
        record = {**vars(result), "runtime_ms": 1234.5678}
        assert dumps(record) == reference_json_dumps(record)

    def test_mixed_record_matches_reference_writer(self):
        record = {
            "np_scalars": [np.float64(0.1), np.float32(0.1), np.int64(-3), np.uint8(7)],
            "bools": [True, False],
            "none": None,
            "empty": [[], {}, ()],
            "nested": [[0.1, -0.0, 2.0 ** -1074], [[1e300, 1.0 / 3.0], 7, "x", None]],
            "tuple": (1.5, np.float64(-2.5), False),
            "scalar": np.float64(0.04899366530350413),
            "inf": [float("inf"), -float("inf")],
            "deep": {"a": {"b": [{"c": [0.5]}]}, "": {}},
        }
        assert dumps(record) == reference_json_dumps(record)
        for value in ([], {}, 0.25, np.float64(0.25), [0.25], [[0.25, True]]):
            assert dumps(value) == reference_json_dumps(value)

    def test_float_arrays_match_reference_writer(self):
        # an attack block's amps (k, 2) and rho (d, d, 2), read-only as
        # attack_to_dict echoes them, take the one-template-per-row path
        special = [-0.0, 2.0 ** -1074, 1e300, float("inf"), -float("inf"), 0.1]
        amps = np.resize(special, (7, 2))
        rho = np.resize(special[::-1], (3, 3, 2))
        for array in (amps, rho):
            array.flags.writeable = False
            lists = array.tolist()
            for value, written in ((array, lists), ({"amps": array}, {"amps": lists}),
                                   ([array, 7], [lists, 7])):
                assert dumps(value) == reference_json_dumps(written)
        assert dumps(np.zeros((0, 2))) == "[]"

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_equal_length_float_rows_match_reference_writer(self, width):
        # lists of Python floats, written one value per call as any other list
        special = [-0.0, 2.0 ** -1074, 1e300, float("inf"), -float("inf"), 0.1]
        rows = [[special[(i + j) % len(special)] for j in range(width)] for i in range(7)]
        for value in (rows, {"amps": rows}, [{"rho": [rows, rows]}], [rows[:1]]):
            assert dumps(value) == reference_json_dumps(value)

    @pytest.mark.parametrize("rows", [
        [[0.5, -0.0], [1e300]],                 # ragged
        [[]],                                   # one empty row
        [[], []],
        [[0.5, True], [0.25, 1.0]],             # a bool in a row
        [[0.5, 1], [0.25, 1.0]],                # an int in a row
        [[0.5, np.float64(0.1)], [0.25, 1.0]],  # an np.float64 in a row
        [[0.5, 0.25], 0.75],                    # a float beside the rows
        [(0.5, -0.0), (2.0 ** -1074, 1e300)],   # tuple rows
        ((0.5, -0.0), [float("inf"), 0.1]),     # a tuple of mixed rows
    ], ids=["ragged", "empty-row", "empty-rows", "bool", "int", "np-float64",
            "not-all-rows", "tuple-rows", "mixed-row-types"])
    def test_other_row_lists_match_reference_writer(self, rows):
        for value in (rows, {"rows": rows}, [rows, rows]):
            assert dumps(value) == reference_json_dumps(value)

    def test_ladder_record_streams_in_small_pieces(self, tmp_path):
        # the 0.8 MB record is never held whole: the largest piece is one
        # block's amps table
        from squashkit.cli import _json_pieces, _write
        from squashkit.protocol import attack_from_dict, run_simulation

        attack = attack_from_dict(ladder_attack_seed1())
        result = run_simulation("bbm92", "actual", attack, 100_000, 1)
        record = {**vars(result), "runtime_ms": 1234.5678}
        path = tmp_path / "record.json"
        tracemalloc.start()
        try:
            _write(_json_pieces(record), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 500_000
        assert peak <= 0.2 * 2**20

    @pytest.mark.parametrize("fmt, bound_mib", [("json", 6), ("csv", 8)])
    def test_large_custom_attack_is_held_once(self, tmp_path, fmt, bound_mib):
        # the ladder up to (20, 20), 2.4 MB of JSON text: its blocks are
        # arrays from the moment each is decoded and are echoed as views, so
        # the peak is the file's text, read whole by json.load (4.7 MiB as
        # JSON, 6.2 MiB as CSV); holding the attack as lists took 9.9 and
        # 23.6 MiB
        from squashkit.cli import main

        attack = tmp_path / "ladder-20.json"
        attack.write_text(json.dumps(ladder_attack_seed1(20)), encoding="utf-8")
        out = tmp_path / f"record.{fmt}"
        tracemalloc.start()
        try:
            main(["simulate", "--protocol", "bbm92", "--attack-file", str(attack),
                  "--trials", "1000", "--seed", "1", "--format", fmt, "--out", str(out)],
                 standalone_mode=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 2_000_000
        assert peak <= bound_mib * 2**20

    def test_floats_round_trip_exactly(self):
        values = [
            0.1, 1.0 / 3.0, 2.0 ** -1074, 1e300, 0.1101,
            0.04899366530350413, 1.0, 0.0,
        ]
        payload = {"values": values, "nested": {"x": [values[1]]}, "n": 7}
        parsed = json.loads(dumps(payload))
        assert parsed["values"] == values
        assert parsed["nested"]["x"][0] == values[1]
        assert parsed["n"] == 7

    def test_null_and_bool(self):
        assert json.loads(dumps({"a": None, "b": True})) == {
            "a": None,
            "b": True,
        }


def next_line_fields(line):
    """Split one CSV line, honouring the quoted attack column."""
    import csv
    import io

    return next(csv.reader(io.StringIO(line)))
