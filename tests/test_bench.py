import csv
import subprocess
import sys

import pytest

from parashield.bench import (
    BenchRow,
    GRID_PRESETS,
    RESULT_HEADER,
    build_runtime,
    emit_results,
    random_system,
    run_bench,
    run_oracle_trials,
)
from parashield.cli import main as cli_main
from parashield.navsim import WorldParams


class TestEmitResults:
    def rows(self):
        return [BenchRow(0, 0.0123, 0.0456, 80, 7, True),
                BenchRow(1, 0.02, 0.05, 120, 0, True)]

    def test_exact_header_and_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_results(self.rows(), path)
        text = path.read_text().splitlines()
        assert text[0] == RESULT_HEADER
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert int(rows[0]["instance_id"]) == 0
        assert float(rows[0]["avg_computationAdaptive"]) == 0.0123
        assert float(rows[1]["avg_computationBaseline"]) == 0.05
        assert rows[0]["safe"] == "True"
        assert int(rows[1]["steps"]) == 120

    def test_empty_rows_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError):
            emit_results([], path)
        assert not path.exists()


class TestPresets:
    def test_presets_match_protocol(self):
        assert GRID_PRESETS["coarse"] == (0.10, 0.10, 0.30)
        assert GRID_PRESETS["medium"] == (0.08, 0.08, 0.25)
        assert GRID_PRESETS["fine"] == (0.06, 0.06, 0.20)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_runtime("ultra")


class TestRunBench:
    def test_small_protocol_run(self, coarse_rt, tmp_path):
        rows = run_bench(coarse_rt, instances=2, seed=11, max_steps=40)
        assert len(rows) == 2
        assert all(r.safe for r in rows)
        assert all(r.avg_computationAdaptive > 0 for r in rows)
        assert all(r.avg_computationBaseline > 0 for r in rows)
        emit_results(rows, tmp_path / "r.csv")

    def test_reproducible_apart_from_timings(self, coarse_rt):
        a = run_bench(coarse_rt, instances=2, seed=5, max_steps=30)
        b = run_bench(coarse_rt, instances=2, seed=5, max_steps=30)
        for ra, rb in zip(a, b):
            assert (ra.instance_id, ra.steps, ra.interventions, ra.safe) == \
                   (rb.instance_id, rb.steps, rb.interventions, rb.safe)


class TestOracleHarness:
    def test_random_system_shapes(self, rng):
        for _ in range(20):
            s = random_system(rng)
            assert 2 <= s.n_states <= 64
            assert 1 <= s.n_inputs <= 4

    def test_trials_all_pass(self):
        passed, failed = run_oracle_trials(60, seed=3)
        assert (passed, failed) == (60, 0)


class TestCli:
    def test_verify_oracle_output(self, capsys):
        rc = cli_main(["verify-oracle", "--trials", "25", "--seed", "9"])
        assert rc == 0
        assert "25/25 equal" in capsys.readouterr().out

    def test_unknown_flag_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "parashield.cli", "verify-oracle", "--bogus"],
            capture_output=True, text=True)
        assert proc.returncode != 0

    def test_run_subcommand_writes_trace(self, tmp_path):
        rc = cli_main(["run", "--grid-preset", "coarse", "--seed", "4",
                       "--mode", "dynamic", "--max-steps", "25",
                       "--out", str(tmp_path)])
        assert rc == 0
        traces = list(tmp_path.glob("trace_dynamic_*.csv"))
        assert len(traces) == 1
        header = traces[0].read_text().splitlines()[0]
        assert header.startswith("step,x,y,theta,cell")
        assert not list(tmp_path.glob("*.pshb*"))

    def test_unshielded_run_in_a_world_file_needs_no_bank(self, tmp_path, monkeypatch):
        import parashield.bench as bench_mod
        from parashield.navsim import random_world, save_world

        def no_bank(*args, **kwargs):
            raise AssertionError("an unshielded episode reads no bank")

        monkeypatch.setattr(bench_mod, "synthesize_bank", no_bank)
        world = tmp_path / "world.txt"
        save_world(random_world(5, WorldParams()), world)
        out = tmp_path / "out"
        rc = cli_main(["run", "--grid-preset", "coarse", "--seed", "4", "--mode", "unshielded",
                       "--world", str(world), "--max-steps", "10", "--out", str(out)])
        assert rc in (0, 1)  # unshielded may collide
        assert len(list(out.glob("trace_unshielded_4.csv"))) == 1
        assert not list(out.glob("*.pshb*"))

    @pytest.mark.parametrize("records, problem", [
        ("goal 7 7 7.5 7.5\nstart nan 1.5 0\n", "non-finite"),
        ("obstacle 2 2 inf 2.5\ngoal 7 7 7.5 7.5\nstart 1 1.5 0\n", "non-finite"),
        ("obstacle 3 3 2 2\ngoal 7 7 7.5 7.5\nstart 20 20 0\n", "outside the bounds"),
    ], ids=["nan-start", "inf-obstacle", "start-outside-bounds"])
    def test_run_refuses_a_non_finite_world(self, tmp_path, monkeypatch, capsys, records, problem):
        import parashield.bench as bench_mod

        def no_bank(*args, **kwargs):
            raise AssertionError("a refused world needs no bank")

        monkeypatch.setattr(bench_mod, "synthesize_bank", no_bank)
        world = tmp_path / "world.txt"
        world.write_text("bounds 0 0 8 8\n" + records)
        rc = cli_main(["run", "--grid-preset", "coarse", "--world", str(world), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValueError: ") and problem in err[0]
        assert not (tmp_path / "out").exists()

    def test_query_with_bank_file(self, tmp_path, coarse_rt, capsys):
        from parashield.shield import save_bank
        bank_path = tmp_path / "bank.pshb"
        save_bank(coarse_rt.bank, bank_path)
        rc = cli_main(["query", "--grid-preset", "coarse", "--bank", str(bank_path),
                       "--cell", "13,13,10", "--propose", "0.4,0.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chosen=" in out and "intervened=" in out

    @pytest.mark.parametrize("atomic", ["5000", "-1"])
    def test_query_refuses_an_atomic_id_out_of_range(self, tmp_path, coarse_rt, capsys, atomic):
        from parashield.shield import save_bank
        bank_path = tmp_path / "bank.pshb"
        save_bank(coarse_rt.bank, bank_path)
        rc = cli_main(["query", "--grid-preset", "coarse", "--bank", str(bank_path), f"--active={atomic}",
                       "--cell", "13,13,10", "--propose", "0.4,0.0"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: ValueError: atomic id {atomic} is outside [0, 401)"]

    @pytest.mark.parametrize("proposal", ["0.4", "0.4,0,1"], ids=["width-1", "width-3"])
    def test_query_refuses_a_proposal_of_another_width(self, tmp_path, coarse_rt, capsys, proposal):
        from parashield.shield import save_bank
        bank_path = tmp_path / "bank.pshb"
        save_bank(coarse_rt.bank, bank_path)
        rc = cli_main(["query", "--grid-preset", "coarse", "--bank", str(bank_path),
                       "--cell", "13,13,10", "--propose", proposal])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        width = len(proposal.split(","))
        assert err == [f"error: ValueError: a point of width {width} for inputs of width 2"]

    @pytest.mark.parametrize("flag", [["--out", "out"], ["--seed", "3"]], ids=["out", "seed"])
    def test_query_refuses_flags_it_does_not_read(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli_main(["query", "--grid-preset", "coarse", "--cell", "13,13,10", "--propose", "0.4,0.0"] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_synth_bank_refuses_a_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["synth-bank", "--seed", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bench_subcommand_end_to_end(self, tmp_path, capsys):
        rc = cli_main(["bench", "--grid-preset", "coarse", "--instances", "1",
                       "--seed", "1", "--max-steps", "20", "--out", str(tmp_path)])
        assert rc == 0
        (path,) = tmp_path.glob("results_coarse.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == RESULT_HEADER
        assert len(lines) == 2
        assert lines[1].endswith("True")
        assert not list(tmp_path.glob("*.pshb*"))

    def test_synth_bank_prints_phase_durations(self, tmp_path, capsys):
        rc = cli_main(["synth-bank", "--grid-preset", "coarse", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Abstraction:" in out and "Synthesis:" in out
        (path,) = tmp_path.glob("bank_coarse.pshb")
        # every column atomic uses the template; the 200 with no exception
        # row are derived, and the fence and the other columns narrowed
        assert (f"\nBank: {path.stat().st_size} bytes, 400 of 401 atomics on the template, 73872 exception rows, "
                "200 derived and 201 narrowed\n") in out
