"""Tests for the ``python -m repro`` CLI (experiment / sweep / embed)."""

import json

import pytest

from repro.cli import main, parse_word


class TestParseWord:
    def test_compact_digits(self):
        assert parse_word("020") == (0, 2, 0)

    def test_comma_separated(self):
        assert parse_word("10,3,0") == (10, 3, 0)

    def test_garbage_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_word("0a1")

    def test_large_alphabet_digits_need_commas(self):
        # "11,0,3" is the node (11, 0, 3); compact "1103" would be 4 digits
        assert parse_word("11,0,3") == (11, 0, 3)
        assert parse_word("1103") == (1, 1, 0, 3)

    def test_comma_form_tolerates_spaces(self):
        assert parse_word(" 1, 2, 0 ") == (1, 2, 0)

    def test_empty_and_malformed_comma_forms_rejected(self):
        import argparse

        for bad in ("", "1,,2", "1,2,", ",1,2", "1;2"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_word(bad)

    def test_single_digit_both_forms(self):
        assert parse_word("7") == (7,)
        assert parse_word("12") == (1, 2)  # compact: one digit per char


class TestExperimentCommand:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "table_2_1" in out and "figure_2_ffc_example" in out

    def test_run_single_experiment(self, capsys):
        assert main(["experiment", "table_3_1"]) == 0
        out = capsys.readouterr().out
        assert "psi(d)" in out and "table_3_1" in out

    def test_fault_table_accepts_trials_and_workers(self, capsys):
        assert main(["experiment", "table_2_2", "--trials", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "B(4,5)" in out and "1019" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "table_9_9"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestSweepCommand:
    def test_text_output(self, capsys):
        code = main(["sweep", "--d", "2", "--n", "6",
                     "--fault-counts", "0,1", "--trials", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "B(2,6)" in out and "Avg. Size" in out

    def test_worker_count_invariance_via_json(self, capsys):
        argv = ["sweep", "--d", "2", "--n", "6", "--fault-counts", "0,1,3",
                "--trials", "4", "--seed", "7", "--json"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert json.loads(serial) == json.loads(parallel)
        assert serial == parallel  # byte-identical, diffable in CI

    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        argv = ["sweep", "--d", "2", "--n", "5", "--fault-counts", "1",
                "--trials", "3", "--json", "--checkpoint", path]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # resumes from the finished checkpoint
        assert capsys.readouterr().out == first

    def test_progress_flag(self, capsys):
        assert main(["sweep", "--d", "2", "--n", "5", "--fault-counts", "1",
                     "--trials", "2", "--progress"]) == 0
        assert "trials" in capsys.readouterr().err

    def test_batch_invariance_via_json(self, capsys):
        argv = ["sweep", "--d", "2", "--n", "6", "--fault-counts", "0,2,5",
                "--trials", "5", "--seed", "3", "--json"]
        assert main(argv + ["--batch", "1"]) == 0
        scalar = capsys.readouterr().out
        assert main(argv + ["--batch", "64"]) == 0
        assert capsys.readouterr().out == scalar  # byte-identical

    def test_bad_batch_is_a_one_line_diagnostic(self, capsys):
        assert main(["sweep", "--d", "2", "--n", "5", "--fault-counts", "1",
                     "--trials", "2", "--batch", "65"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro sweep:") and "batch" in err


class TestSweepTopologies:
    @pytest.mark.parametrize("topology,title", [
        ("kautz", "K(2,6)"),
        ("hypercube", "Q(6)"),
        ("shuffle_exchange", "SE(2,6)"),
        ("undirected_debruijn", "UB(2,6)"),
    ])
    def test_text_output_per_topology(self, topology, title, capsys):
        assert main(["sweep", "--topology", topology, "--d", "2", "--n", "6",
                     "--fault-counts", "0,1", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert title in out and "Avg. Size" in out

    def test_json_carries_topology_key(self, capsys):
        assert main(["sweep", "--topology", "kautz", "--d", "2", "--n", "6",
                     "--fault-counts", "0,2", "--trials", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["topology"] == "kautz"
        assert len(data["rows"]) == 2

    def test_default_topology_is_debruijn(self, capsys):
        assert main(["sweep", "--d", "2", "--n", "5", "--fault-counts", "0",
                     "--trials", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["topology"] == "debruijn"

    def test_worker_invariance_on_kautz_via_json(self, capsys):
        argv = ["sweep", "--topology", "kautz", "--d", "2", "--n", "7",
                "--fault-counts", "0,1,3", "--trials", "4", "--seed", "7", "--json"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial  # byte-identical

    def test_unknown_topology_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--topology", "torus", "--n", "5"])
        assert exc.value.code == 2

    def test_hypercube_rejects_nonbinary_d(self, capsys):
        assert main(["sweep", "--topology", "hypercube", "--d", "3", "--n", "5",
                     "--fault-counts", "0", "--trials", "1"]) == 1
        assert "d=2" in capsys.readouterr().err


class TestCsvFormats:
    def test_sweep_csv_round_trips_rows(self, capsys):
        import csv as csv_mod
        import io

        argv = ["sweep", "--d", "2", "--n", "6", "--fault-counts", "0,1,4",
                "--trials", "5", "--seed", "2"]
        assert main(argv + ["--format", "csv"]) == 0
        text = capsys.readouterr().out
        reader = list(csv_mod.reader(io.StringIO(text)))
        assert reader[0][:2] == ["f", "trials"]
        assert len(reader) == 4  # header + 3 rows
        # full precision: the avg columns agree with the JSON payload exactly
        assert main(argv + ["--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for line, row in zip(reader[1:], rows):
            assert float(line[2]) == row["avg_size"]
            assert int(line[5]) == row["reference_size"]

    def test_sweep_csv_on_other_topology(self, capsys):
        assert main(["sweep", "--topology", "shuffle_exchange", "--d", "2", "--n", "6",
                     "--fault-counts", "0,2", "--trials", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("f,trials,avg_size")
        assert len(lines) == 3

    def test_format_json_equals_json_flag(self, capsys):
        argv = ["sweep", "--d", "2", "--n", "5", "--fault-counts", "1", "--trials", "2"]
        assert main(argv + ["--format", "json"]) == 0
        a = capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        assert capsys.readouterr().out == a

    def test_experiment_csv(self, capsys):
        assert main(["experiment", "table_3_1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# table_3_1:")
        assert lines[1] == "d,psi(d)"
        assert lines[2].startswith("2,")

    def test_experiment_topology_sweep_selectable(self, capsys):
        assert main(["experiment", "topology_sweep", "--topology", "hypercube",
                     "--trials", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "hypercube" in out.splitlines()[0]
        assert "f,Avg. Size" in out.splitlines()[1]

    def test_topology_flag_rejected_when_no_experiment_accepts_it(self, capsys):
        # silently running the De Bruijn table would mislead the user
        assert main(["experiment", "table_3_1", "--topology", "hypercube"]) == 1
        assert "--topology only applies" in capsys.readouterr().err


class TestEmbedCommand:
    def test_human_output(self, capsys):
        assert main(["embed", "--d", "2", "--n", "5", "--faults", "00011"]) == 0
        out = capsys.readouterr().out
        assert "fault-free ring length: 27" in out
        assert "worst-case guarantee: 26; met: True" in out

    def test_json_output(self, capsys):
        assert main(["embed", "--d", "3", "--n", "3",
                     "--faults", "020", "112", "--json", "--show-cycle"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["d"] == 3 and data["n"] == 3
        assert data["length"] == len(data["cycle"])
        assert data["faults"] == [[0, 2, 0], [1, 1, 2]]
        assert data["meets_guarantee"] is True

    def test_show_cycle_text(self, capsys):
        assert main(["embed", "--d", "2", "--n", "4", "--show-cycle"]) == 0
        out = capsys.readouterr().out
        assert "cycle:" in out
        assert "0000" in out  # the full graph cycle visits the zero word

    def test_no_faults_full_ring(self, capsys):
        assert main(["embed", "--d", "2", "--n", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["length"] == 32 and data["faults"] == []

    def test_missing_required_args(self):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--d", "2"])
        assert exc.value.code == 2


class TestRetiredCommands:
    def test_bench_subcommand_rejected_by_argparse(self):
        # performance is measured by perfbench/, not by a CLI subcommand
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick"])
        assert exc.value.code == 2


class TestDomainErrors:
    def test_bad_fault_digit_is_a_one_line_diagnostic(self, capsys):
        assert main(["embed", "--d", "2", "--n", "5", "--faults", "00021"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro embed:") and "Traceback" not in err

    def test_checkpoint_mismatch_is_a_one_line_diagnostic(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        base = ["sweep", "--d", "2", "--n", "5", "--fault-counts", "1",
                "--trials", "2", "--checkpoint", path]
        assert main(base + ["--seed", "0"]) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro sweep:") and "different sweep" in err


class TestFreshFlag:
    def test_corrupt_checkpoint_diagnosed_then_fresh_recovers(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        base = ["sweep", "--d", "2", "--n", "5", "--fault-counts", "1",
                "--trials", "2", "--checkpoint", path]
        assert main(base) == 0
        capsys.readouterr()
        with open(path, "w") as fh:
            fh.write("{torn")  # corrupt the checkpoint in place
        assert main(base) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro sweep:") and "Traceback" not in err
        assert "corrupt" in err and "--fresh" in err
        # the escape hatch: discard the corrupt file and run clean
        assert main(base + ["--fresh"]) == 0
        assert "discarded checkpoint" in capsys.readouterr().err

    def test_fresh_without_an_existing_checkpoint_is_a_no_op(self, tmp_path, capsys):
        path = str(tmp_path / "never-written.json")
        argv = ["sweep", "--d", "2", "--n", "5", "--fault-counts", "1",
                "--trials", "2", "--checkpoint", path, "--fresh"]
        assert main(argv) == 0
        assert "discarded" not in capsys.readouterr().err
