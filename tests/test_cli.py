import json
import subprocess
import sys

import pytest

from terwilliger.cli import main, resolve_primes


def run_cli(*args):
    """Invoke the console entry point in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


class TestExitCodes:
    def test_analyze_pass(self):
        code, _ = run_cli("analyze", "--n", "3", "--s", "2")
        assert code == 0

    def test_invalid_params_exit_2(self):
        code, _ = run_cli("analyze", "--n", "6", "--s", "2")
        assert code == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--n", "3")
        assert exc.value.code == 2

    def test_bad_sweep_range_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--n-min", "10", "--n-max", "3")
        assert exc.value.code == 2

    def test_internal_limit_exit_1(self):
        code, out = run_cli("analyze", "--n", "72", "--s", "37")
        assert code == 1
        assert "FAIL  closure_two_primes_agree" in out

    def test_audit_always_exit_0(self):
        code, _ = run_cli("audit-corollaries", "--n-min", "3", "--n-max", "8")
        assert code == 0

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code, out = run_cli("analyze", "--n", "3", "--s", "2", "--output", str(target))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()


class TestAnalyzeOutput:
    def test_json_schema(self):
        code, out = run_cli("analyze", "--n", "8", "--s", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"n", "s", "tau", "dims", "triply_transitive", "blocks", "checks",
                            "closure", "notes"}
        assert obj["dims"] == {"t0": 112, "t": 112, "t_tilde": 112, "formula": 112}
        assert obj["closure"]["provenance"] == "exact"
        assert obj["closure"]["primes"] == [1048573, 1048571]
        assert obj["closure"]["basis_size_history"][0][-1] == 112
        assert obj["notes"] == []
        assert obj["tau"] == 4
        assert obj["blocks"]["rowsum"] == [10, 2, 2, 2]
        assert obj["blocks"]["rowsum"] == obj["blocks"]["closedform"]
        assert all(isinstance(v, bool) for v in obj["checks"].values())

    def test_json_round_trip(self):
        _, out = run_cli("analyze", "--n", "3", "--s", "2", "--format", "json")
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_text_mentions_identity_class(self):
        _, out = run_cli("analyze", "--n", "8", "--s", "3")
        assert "identity class: X2 (index 1)" in out

    def test_no_closure(self):
        code, out = run_cli("analyze", "--n", "5", "--s", "4",
                            "--no-closure", "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"]["t"] is None

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli("analyze", "--n", "3", "--s", "2",
                            "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 3


class TestSweepOutput:
    def test_csv_rows(self):
        code, out = run_cli("sweep", "--n-min", "3", "--n-max", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,s,tau,dim_t0,dim_t,dim_t_tilde,formula,pass"
        rows = [line.split(",") for line in lines[1:]]
        # n = 8 contributes the three twists 3, 5, 7
        assert [r[:2] for r in rows if r[0] == "8"] == [["8", "3"], ["8", "5"], ["8", "7"]]
        assert all(r[-1] == "true" for r in rows)

    def test_prime_n_has_single_twist(self):
        _, out = run_cli("sweep", "--n-min", "7", "--n-max", "7", "--format", "csv")
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 1 and rows[0].startswith("7,6,")

    def test_closure_limit_blanks_dim_t(self):
        _, out = run_cli("sweep", "--n-min", "3", "--n-max", "6",
                         "--closure-limit", "4", "--format", "csv")
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().split("\n")[1:]}
        assert rows["3"][4] == "11"
        assert rows["6"][4] == ""          # closure disabled above the limit
        assert rows["6"][-1] == "true"     # but the counting routes still pass

    def test_text_summary(self):
        _, out = run_cli("sweep", "--n-min", "3", "--n-max", "5", "--format", "text")
        assert out.strip().endswith("3 pairs, 3 passed, 0 failed")

    def test_json_summary(self):
        _, out = run_cli("sweep", "--n-min", "3", "--n-max", "5", "--format", "json")
        obj = json.loads(out)
        assert obj["summary"] == {"pairs": 3, "passed": 3, "failed": 0,
                                  "half_tau_case": [{"n": 4, "s": 3, "ks": [1]}]}

    def test_json_summary_census(self):
        # at (8,7) the tau/2 multiplicity case fires at k=1
        _, out = run_cli("sweep", "--n-min", "8", "--n-max", "8", "--format", "json")
        census = json.loads(out)["summary"]["half_tau_case"]
        assert {"n": 8, "s": 7, "ks": [1]} in census

    def test_determinism_across_threads_and_seed_order(self):
        _, base = run_cli("sweep", "--n-min", "3", "--n-max", "12", "--format", "csv")
        _, threaded = run_cli("sweep", "--n-min", "3", "--n-max", "12",
                              "--format", "csv", "--threads", "3")
        _, permuted = run_cli("sweep", "--n-min", "3", "--n-max", "12",
                              "--format", "csv", "--generator-order", "99")
        assert base == threaded == permuted


class TestAuditOutput:
    def test_csv(self):
        code, out = run_cli("audit-corollaries", "--n-min", "3", "--n-max", "8",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,printed_blocks,derived_blocks,agree,note"
        by_n = {line.split(",")[0]: line for line in lines[1:]}
        assert by_n["6"].split(",")[3] == "true"
        assert by_n["5"].split(",")[3] == "false"
        assert by_n["8"].split(",")[3] == "false"

    def test_json_summary_counts(self):
        _, out = run_cli("audit-corollaries", "--n-min", "3", "--n-max", "10",
                         "--format", "json")
        obj = json.loads(out)
        assert obj["summary"]["agree"] + obj["summary"]["disagree"] == 8


class TestCharTableOutput:
    def test_text(self):
        code, out = run_cli("char-table", "--n", "3", "--s", "2")
        assert code == 0
        assert "lin0+" in out and "two1" in out
        assert "w^1+w^2" in out

    def test_csv_header(self):
        _, out = run_cli("char-table", "--n", "8", "--s", "3", "--format", "csv")
        assert out.startswith("character,X1,X2,Y1,Y2,Y3,Z1,Z2")

    def test_json_entries(self):
        _, out = run_cli("char-table", "--n", "6", "--s", "5", "--format", "json")
        obj = json.loads(out)
        assert obj["columns"][0] == "X1"
        assert obj["rows"][0]["label"] == "lin0+"
        assert all(len(r["entries"]) == len(obj["columns"]) for r in obj["rows"])
        first = obj["rows"][0]["entries"][0]
        assert first["re"] == 1.0 and first["im"] == 0.0

    def test_numeric_text(self):
        _, out = run_cli("char-table", "--n", "3", "--s", "2", "--numeric")
        assert "-0.5+0.866025i" in out or "-1" in out
        assert "w^" not in out


class TestTensorOutput:
    def test_csv_matches_t0(self):
        code, out = run_cli("tensor", "--n", "3", "--s", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,j,k,p_ijk"
        assert len(lines) - 1 == 11   # nonzero triples = dim T0
        assert all(int(line.split(",")[3]) > 0 for line in lines[1:])

    def test_json(self):
        _, out = run_cli("tensor", "--n", "4", "--s", "3", "--format", "json")
        obj = json.loads(out)
        assert len(obj["nonzero"]) == 28
        assert obj["class_labels"] == ["X1", "X2", "Y1", "Z1", "Z2"]


class TestPrimeHandling:
    def test_cli_primes_flag(self):
        code, out = run_cli("analyze", "--n", "4", "--s", "3",
                            "--primes", "9973,7919", "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"]["t"] == 28

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TERWILLIGER_PRIME_1", "9973")
        monkeypatch.setenv("TERWILLIGER_PRIME_2", "7919")
        assert resolve_primes(None) == (9973, 7919)

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("TERWILLIGER_PRIME_1", "11")
        assert resolve_primes("9973,7919") == (9973, 7919)

    def test_composite_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--n", "3", "--s", "2", "--primes", "9973,1000")
        assert exc.value.code == 2

    def test_equal_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--n", "3", "--s", "2", "--primes", "97,97")
        assert exc.value.code == 2

    @pytest.mark.parametrize("primes", ["9223372036854775783,9223372036854775643",
                                        "1000000007,998244353"])
    def test_outside_float64_window_rejected(self, primes):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--n", "3", "--s", "2", "--primes", primes)
        assert exc.value.code == 2

    @pytest.mark.parametrize("prime", ["9223372036854775783", "1000000007"])
    def test_env_outside_float64_window_rejected(self, monkeypatch, prime):
        monkeypatch.setenv("TERWILLIGER_PRIME_1", prime)
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--n", "3", "--s", "2")
        assert exc.value.code == 2


class TestConsoleScript:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "terwilliger.cli", "analyze",
             "--n", "3", "--s", "2", "--format", "json"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["dims"]["t0"] == 11
