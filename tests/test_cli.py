"""Tests for the command-line interface and its output contracts."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from squashkit.cli import main
from squashkit.protocol import SimResult


@pytest.fixture
def runner():
    return CliRunner()


DEPOL = '{"kind":"depolarize","p":0.0}'


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

    def test_trial_stacks_stay_within_the_family_peak(self):
        # A single trial cannot be stacked, so at N = 40 its traced peak is
        # that of building the squash family.  Trials worked through in
        # bounded slices stay under it at every N <= 40 and at any count;
        # stacking them unsliced reaches 6 MB at 50 trials and 52 MB at 500.
        from squashkit.cli import _lift_oracle_row
        from squashkit.squash import verify_hadamard_invariance

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = peak(verify_hadamard_invariance, 40, 1) + 64 * 1024
        for n in range(1, 41):
            assert peak(verify_hadamard_invariance, n) <= bound, n
        assert peak(verify_hadamard_invariance, 40, 500) <= bound
        assert peak(_lift_oracle_row, 6, np.random.default_rng(2024)) <= bound

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

        def raising_at_two(n):
            if n == 2:
                raise RuntimeError("boom")
            return real(n)

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

    @pytest.mark.parametrize("attack", [
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":1,"amps":[[NaN,0],[0,0]]}]}',
        '{"kind":"custom","blocks":[{"m":0,"n":1,"weight":NaN,"amps":[[1,0],[0,0]]}]}',
        '{"kind":"fixed_block","blocks":[{"m":0,"n":1,"weight":1,'
        '"rho":[[[NaN,0],[0,0]],[[0,0],[0,0]]]}]}',
    ], ids=["custom-amplitude", "custom-weight", "fixed-block-rho"])
    def test_non_finite_attack_is_usage_error(self, runner, attack):
        result = runner.invoke(main, [
            "simulate", "--protocol", "bbm92", "--attack", attack,
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

    def test_numerical_failure_exits_one(self, runner, monkeypatch):
        # A numerical failure inside a valid simulation (here a forced
        # LinAlgError) is a simulation failure, not a usage error.
        import squashkit.cli as cli

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(cli, "run_simulation", failing)
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
        assert "single qubit" in result.output


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

    def test_requires_some_input(self, runner):
        assert runner.invoke(main, ["keyrate"]).exit_code == 2


class TestJsonSerializer:
    def test_floats_round_trip_exactly(self):
        from squashkit.cli import _json_dumps

        values = [
            0.1, 1.0 / 3.0, 2.0 ** -1074, 1e300, 0.1101,
            0.04899366530350413, 1.0, 0.0,
        ]
        payload = {"values": values, "nested": {"x": [values[1]]}, "n": 7}
        parsed = json.loads(_json_dumps(payload))
        assert parsed["values"] == values
        assert parsed["nested"]["x"][0] == values[1]
        assert parsed["n"] == 7

    def test_null_and_bool(self):
        from squashkit.cli import _json_dumps

        assert json.loads(_json_dumps({"a": None, "b": True})) == {
            "a": None,
            "b": True,
        }


def next_line_fields(line):
    """Split one CSV line, honouring the quoted attack column."""
    import csv
    import io

    return next(csv.reader(io.StringIO(line)))
