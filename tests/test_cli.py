import dataclasses
import gc
import hashlib
import json
import subprocess
import sys
import weakref

import pytest

from terwilliger import pipeline, scheme
from terwilliger.cli import main

# every command, with valid arguments
ALL_COMMANDS = [
    ("analyze", "--n", "3", "--s", "2"),
    ("sweep", "--n-min", "3", "--n-max", "4"),
    ("audit-corollaries", "--n-min", "3", "--n-max", "4"),
    ("char-table", "--n", "3", "--s", "2"),
    ("tensor", "--n", "3", "--s", "2"),
]

# sha256 of stdout: the tensor and character tables, and the text report with
# its element names
PINNED_OUTPUTS = [
    ("tensor --n 8 --s 3 --format text",
     "7d86f9d7b76e70e50041aa30f625514078c95363465e83b86f8e2b23430a867e"),
    ("tensor --n 8 --s 3 --format json",
     "1b06336235817bce072df4bb7a262b51e5247fff472f0b1373c7f6cc62a92c03"),
    ("tensor --n 8 --s 3 --format csv",
     "2dd9c9a5fee32a6283dcfd37ee23a20628bbfb9acac5f72226106e9a6577f7c5"),
    ("char-table --n 8 --s 3 --format text",
     "7c22954a077a9cef58ef0f5fad5bddf66c5758236e158c23fbc8d2a2360e0704"),
    ("char-table --n 8 --s 3 --format text --numeric",
     "90565bf41420936c415c70d6ac4bd6cf08d51d0faddde615399b74f913d99f84"),
    ("char-table --n 8 --s 3 --format json",
     "ff7569954bb2536198b23a937e707172578f88af93ac754c7d7559dec829799c"),
    ("char-table --n 8 --s 3 --format json --numeric",
     "ff7569954bb2536198b23a937e707172578f88af93ac754c7d7559dec829799c"),
    ("char-table --n 8 --s 3 --format csv",
     "87333f728e59aef15aa311dd278cbbfe074d3abfd30add3d774f63c6aaae2b43"),
    ("char-table --n 8 --s 3 --format csv --numeric",
     "45d70c220526c257d1c18ca2d462e04ea0920e7e755674825a9636aa380c6f4c"),
    ("tensor --n 45 --s 26 --format text",
     "84f50ba4aa97a7fcb20fcd1a960ec88ab70bb99ef91c5eace58e1b308e65c202"),
    ("tensor --n 45 --s 26 --format json",
     "e7d0c9a4ec2269ca2109df2699056ac8698a03820264eaa3b96dfc0b0f0b4c20"),
    ("tensor --n 45 --s 26 --format csv",
     "ca6e3f79562129acf3975993b01d94493d58eb2fd191de5b5246fcfeaa7c4329"),
    ("char-table --n 45 --s 26 --format text",
     "8124a7f971642dda96b308dbc36a0094a6cf26e349ae170d3eb13c963cb8a409"),
    ("char-table --n 45 --s 26 --format text --numeric",
     "0c2f7f29a948a903759a73ee8931f48fc003b98da28f028561c028b3b555f338"),
    ("char-table --n 45 --s 26 --format json",
     "155cbb19f478ecd6f94b940f8d85afb505722aa30be83b43ce028123979ba319"),
    ("char-table --n 45 --s 26 --format json --numeric",
     "155cbb19f478ecd6f94b940f8d85afb505722aa30be83b43ce028123979ba319"),
    ("char-table --n 45 --s 26 --format csv",
     "68e8e28bf345af036ed121cce4f26d7d0a79cdbaa70749c28f9710d1e1c4dff4"),
    ("char-table --n 45 --s 26 --format csv --numeric",
     "5c3ea9b5d604e9ef7ee0e73225afe209fefe5a95401c556683520b905cc64690"),
    ("tensor --n 100 --s 51 --format text",
     "d9598c46f588ce7b6df90a9a0f0aa5d27e221f2fc548070289860bfe1e338704"),
    ("tensor --n 100 --s 51 --format json",
     "376863099d366f30158663072afcbafa38b86fd6da907bf7cac73dc3b4c9ae29"),
    ("tensor --n 100 --s 51 --format csv",
     "bd8572add0097755d82ed72c1742d47f25bf110d250944f7dcaf8ca51ba0037f"),
    ("char-table --n 100 --s 51 --format text",
     "d0b20c389c65711445d9ecabbccfdb5f4390cfaf7dd222830394b54b12fa82ec"),
    ("char-table --n 100 --s 51 --format text --numeric",
     "98738474dcab944b06595f7d0095a79b725d67e498a10aeb437d6c88ca155c15"),
    ("char-table --n 100 --s 51 --format json",
     "850dd4f6efbcf200013d3d090d25493125c32bc31abee1b376c9b15687d9ae76"),
    ("char-table --n 100 --s 51 --format json --numeric",
     "850dd4f6efbcf200013d3d090d25493125c32bc31abee1b376c9b15687d9ae76"),
    ("char-table --n 100 --s 51 --format csv",
     "4e767fe11ebcd821a41147d2a961d9faa0ab9a61780f8cecd6ff4c73d5498961"),
    ("char-table --n 100 --s 51 --format csv --numeric",
     "eca266554092a5bcdfbb81aab8472c9fbfa030cead91e3eee0d7652d50325221"),
    ("analyze --n 8 --s 3 --format text",
     "82b47606b5b0569a630a74cc18cc10111fff315a00973105171ea58fb24d7b3f"),
]


def break_product_identity(monkeypatch):
    """Make p[0, 0, identity] one too high, so that the triples fail the
    product identity."""
    count = scheme.intersection_numbers

    def wrong(group, classes):
        tensor = count(group, classes)
        return dataclasses.replace(tensor, p=tensor.p + (tensor.k == classes.identity_class)
                                   * (tensor.i == 0) * (tensor.j == 0))

    monkeypatch.setattr(scheme, "intersection_numbers", wrong)


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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_thread_count_exit_2(self, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--n-min", "3", "--n-max", "4", "--threads", threads)
        assert exc.value.code == 2
        assert "need --threads >= 1" in capsys.readouterr().err

    def test_bad_audit_range_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("audit-corollaries", "--n-min", "10", "--n-max", "3")
        assert exc.value.code == 2

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

    def test_unwritable_output_checked_before_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran before --output was checked")

        monkeypatch.setattr("terwilliger.pipeline.sweep", no_sweep)
        target = tmp_path / "missing" / "x.csv"
        code, out = run_cli("sweep", "--n-min", "3", "--n-max", "40",
                            "--output", str(target))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --output: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_closure_out_of_memory_exit_1_with_report(self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("terwilliger.algebra.algebra_closure", no_memory)
        code, out = run_cli("analyze", "--n", "8", "--s", "3")
        assert code == 1
        assert "  FAIL  closure_two_primes_agree\n" in out
        assert ("  note: closure_two_primes_agree: out of memory at (n, s) = (8, 3), "
                "dim T~ = 64\n") in out
        assert out.endswith("result: FAIL\n")
        code, out = run_cli("analyze", "--n", "8", "--s", "3", "--format", "json")
        obj = json.loads(out)
        assert code == 1 and obj["closure"] is None
        assert obj["checks"]["closure_two_primes_agree"] is False
        assert obj["notes"] == ["closure_two_primes_agree: out of memory at (n, s) = "
                                "(8, 3), dim T~ = 64"]

    @pytest.mark.parametrize("target,args", [
        ("terwilliger.pipeline.build_group", ("analyze", "--no-closure")),
        ("terwilliger.pipeline.build_group", ("analyze", "--format", "json")),
        ("terwilliger.cli.build_group", ("tensor",)),
        ("terwilliger.cli.build_group", ("char-table",)),
    ])
    def test_group_out_of_memory_exit_1(self, target, args, monkeypatch, capsys):
        # a valid pair whose Cayley table does not fit in memory: the input
        # is not at fault, so exit 1 with one line on stderr
        def no_memory(params):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(target, no_memory)
        code, out = run_cli(args[0], "--n", "100000", "--s", "99999", *args[1:])
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 298. GiB for an array\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "char-table", "tensor"])
    def test_invalid_params_leave_existing_output(self, command, tmp_path, capsys):
        target = tmp_path / "kept.json"
        target.write_bytes(b"earlier report\n")
        code, out = run_cli(command, "--n", "6", "--s", "2", "--output", str(target))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target.read_bytes() == b"earlier report\n"

    @pytest.mark.parametrize("command", ["analyze", "tensor"])
    def test_run_without_report_leaves_existing_output(self, command, tmp_path,
                                                       monkeypatch, capsys):
        # exit 1 with no report: an analysis whose group does not fit in
        # memory, or triples that fail the product identity.  The file keeps
        # its bytes; a report then replaces them, however long they were
        if command == "analyze":
            def no_memory(params):
                raise MemoryError("Unable to allocate 298. GiB for an array")
            monkeypatch.setattr("terwilliger.pipeline.build_group", no_memory)
        else:
            break_product_identity(monkeypatch)
        target = tmp_path / "kept.txt"
        earlier = b"earlier report\n" * 1000
        target.write_bytes(earlier)
        code, out = run_cli(command, "--n", "8", "--s", "3", "--output", str(target))
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(("out of memory: ", "consistency failure: "))
        assert target.read_bytes() == earlier
        monkeypatch.undo()
        code, out = run_cli(command, "--n", "8", "--s", "3")
        assert code == 0
        assert run_cli(command, "--n", "8", "--s", "3", "--output", str(target)) == (0, "")
        assert target.read_text() == out


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

    def test_exact_rational_flag_exits_2(self):
        # the closure has one path, the count, so the rational rerun's flag
        # is gone: a usage error with no traceback
        result = subprocess.run(
            [sys.executable, "-m", "terwilliger.cli", "analyze",
             "--n", "8", "--s", "3", "--exact-rational"],
            capture_output=True, text=True)
        assert result.returncode == 2 and result.stdout == ""
        assert "unrecognized arguments: --exact-rational" in result.stderr
        assert "Traceback" not in result.stderr

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

    def test_force_closure_runs_above_the_limit(self):
        # n = 41, 42 lie above the default limit of 40
        args = ("sweep", "--n-min", "41", "--n-max", "42", "--format", "json")
        _, forced = run_cli(*args, "--closure-limit", "42")
        _, default = run_cli(*args)
        forced, default = json.loads(forced)["rows"], json.loads(default)["rows"]
        assert len(forced) == len(default) == 4
        for row in forced:
            assert row["dims"]["t"] == row["dims"]["t_tilde"]
            assert row["closure"]["provenance"] == "exact"
        assert all(row["dims"]["t"] is None for row in default)

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_pairs_print_every_row(self, failing_groups, threads, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        args = ("sweep", "--n-min", "3", "--n-max", "12", "--threads", threads)
        assert run_cli(*args, "--format", "json", "--output", str(target)) == (1, "")
        assert capsys.readouterr().err == ""
        obj = json.loads(target.read_text())
        failed = {(r["n"], r["s"]): r for r in obj["rows"] if not all(r["checks"].values())}
        assert {pair: r["notes"] for pair, r in failed.items()} == {
            pair: [note] for pair, note in failing_groups.items()}
        assert set(obj["rows"][0]) == set(failed[9, 8])
        assert obj["summary"]["failed"] == 2
        assert obj["summary"]["pairs"] == len(obj["rows"]) == 14
        code, out = run_cli(*args, "--format", "csv")
        assert code == 1
        assert "\n8,3,2,,,,64,false\n" in out and "\n9,8,1,,,,56,false\n" in out
        assert out.count(",false\n") == 2
        code, out = run_cli(*args, "--format", "text")
        assert code == 1 and out.endswith("# 14 pairs, 12 passed, 2 failed\n")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep_keeps_no_analysis(self, fmt, monkeypatch):
        # when a row reaches the CLI's sink, every earlier analysis can be
        # collected: the report holds only the rows' text
        sweep = pipeline.sweep
        earlier, alive = [], []

        def watched(*args, sink, **kwargs):
            def spy(row):
                gc.collect()
                alive.append(sum(ref() is not None for ref in earlier))
                earlier.append(weakref.ref(row))
                sink(row)
            return sweep(*args, sink=spy, **kwargs)

        monkeypatch.setattr(pipeline, "sweep", watched)
        code, _ = run_cli("sweep", "--n-min", "3", "--n-max", "12", "--format", fmt)
        assert code == 0
        assert alive == [0] * 14

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

    def test_product_identity_failure_exit_1(self, monkeypatch, capsys):
        # p[0, 0, identity] one too high: the triples are not written
        break_product_identity(monkeypatch)
        code, out = run_cli("tensor", "--n", "8", "--s", "3")
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err == ("consistency failure: product identity "
                       "A_i A_j = sum_k p[i,j,k] A_k fails\n")


class TestPinnedOutput:
    @pytest.mark.parametrize("command,digest", PINNED_OUTPUTS,
                             ids=[c for c, _ in PINNED_OUTPUTS])
    def test_stdout_bytes(self, command, digest):
        code, out = run_cli(*command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestNoModulusInput:
    """The closure's two moduli are fixed: no flag or environment variable
    sets them."""

    @pytest.mark.parametrize("args", ALL_COMMANDS, ids=[a[0] for a in ALL_COMMANDS])
    def test_primes_flag_exits_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--primes", "9973,7919")
        assert exc.value.code == 2
        assert "unrecognized arguments: --primes 9973,7919" in capsys.readouterr().err

    @pytest.mark.parametrize("args", ALL_COMMANDS, ids=[a[0] for a in ALL_COMMANDS])
    def test_prime_environment_changes_no_byte(self, monkeypatch, args):
        plain = run_cli(*args)
        monkeypatch.setenv("TERWILLIGER_PRIME_1", "4")  # not a prime
        assert run_cli(*args) == plain
        assert plain[0] == 0


class TestConsoleScript:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "terwilliger.cli", "analyze",
             "--n", "3", "--s", "2", "--format", "json"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["dims"]["t0"] == 11

    def test_import_loads_no_elimination(self):
        # the CLI runs no elimination, so a fresh import loads neither the
        # prime-field and rational bases nor the exact-fraction modules
        code = ("import sys, terwilliger.cli; print(sorted(m for m in "
                "('terwilliger.modular', 'fractions', 'decimal') if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
