import csv
import subprocess
import sys

import numpy as np
import pytest

from parashield.bench import (
    BenchConfig,
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


class TestBenchConfig:
    def test_presets_match_protocol(self):
        assert GRID_PRESETS["coarse"] == (0.10, 0.10, 0.30)
        assert GRID_PRESETS["medium"] == (0.08, 0.08, 0.25)
        assert GRID_PRESETS["fine"] == (0.06, 0.06, 0.20)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(preset="ultra")


class TestBankCache:
    def test_a_new_bank_drops_the_presets_stale_files(self, tmp_path):
        stale = tmp_path / "bank_coarse_0123456789abcdef_0123456789abcdef.pshb"
        kept = [tmp_path / "bank_medium_0123456789abcdef_0123456789abcdef.pshb",
                tmp_path / "bank_coarse.pshb"]
        for path in [stale] + kept:
            path.write_bytes(b"built by other sources")
        build_runtime("coarse", cache_dir=tmp_path)
        assert not stale.exists()
        assert all(path.exists() for path in kept)
        (fresh,) = tmp_path.glob("bank_coarse_*.pshb")
        assert fresh.stat().st_size > 1000

    def test_a_bank_in_the_old_layout_is_rebuilt(self, tmp_path, coarse_rt, monkeypatch):
        # earlier files also stored each diff row's domain bit ("defined")
        import parashield.bench as bench_mod
        from parashield.shield import save_bank
        bank = coarse_rt.bank
        path = tmp_path / f"bank_coarse_{coarse_rt.sys.content_hash[:16]}_{bench_mod._source_digest()[:16]}.pshb"
        save_bank(bank, path)
        with np.load(path) as z:
            members = {k: z[k] for k in z.files}
        members["defined"] = np.packbits(members["masks"].any(axis=1))
        with open(path, "wb") as f:
            np.savez(f, **members)
        calls = []
        inner = bench_mod.synthesize_bank

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(bench_mod, "synthesize_bank", counting)
        rebuilt = build_runtime("coarse", cache_dir=tmp_path).bank
        assert calls == [1]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        for name in ("ptr", "idx", "masks"):
            assert np.array_equal(getattr(rebuilt, name), getattr(bank, name))
        with np.load(path) as z:
            assert "defined" not in z.files
        build_runtime("coarse", cache_dir=tmp_path)
        assert calls == [1]


class TestRunBench:
    def test_small_protocol_run(self, coarse_rt, tmp_path):
        cfg = BenchConfig(preset="coarse", instances=2, seed=11, max_steps=40)
        rows = run_bench(cfg, rt=coarse_rt)
        assert len(rows) == 2
        assert all(r.safe for r in rows)
        assert all(r.avg_computationAdaptive > 0 for r in rows)
        assert all(r.avg_computationBaseline > 0 for r in rows)
        emit_results(rows, tmp_path / "r.csv")

    def test_reproducible_apart_from_timings(self, coarse_rt):
        cfg = BenchConfig(preset="coarse", instances=2, seed=5, max_steps=30)
        a = run_bench(cfg, rt=coarse_rt)
        b = run_bench(cfg, rt=coarse_rt)
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

    def test_run_subcommand_writes_trace(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PARASHIELD_OUT", raising=False)
        rc = cli_main(["run", "--grid-preset", "coarse", "--seed", "4",
                       "--mode", "dynamic", "--max-steps", "25",
                       "--out", str(tmp_path)])
        assert rc == 0
        traces = list(tmp_path.glob("trace_dynamic_*.csv"))
        assert len(traces) == 1
        header = traces[0].read_text().splitlines()[0]
        assert header.startswith("step,x,y,theta,cell")

    def test_runs_share_the_bank_cached_in_out(self, tmp_path, monkeypatch):
        import parashield.bench as bench_mod
        monkeypatch.delenv("PARASHIELD_OUT", raising=False)
        calls = []
        inner = bench_mod.synthesize_bank

        def counting(*args, **kwargs):
            calls.append(args[0].content_hash)
            return inner(*args, **kwargs)

        monkeypatch.setattr(bench_mod, "synthesize_bank", counting)
        argv = ["run", "--grid-preset", "coarse", "--seed", "4", "--max-steps", "5", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        assert cli_main(argv) == 0
        assert len(calls) == 1
        # a damaged cache file is deleted and rebuilt
        (bank,) = tmp_path.glob("bank_coarse_*.pshb")
        size = bank.stat().st_size
        bank.write_bytes(bank.read_bytes()[:size // 2])
        assert cli_main(argv) == 0
        assert len(calls) == 2 and bank.stat().st_size == size

    def test_unshielded_run_in_a_world_file_needs_no_bank(self, tmp_path, monkeypatch):
        import parashield.bench as bench_mod
        from parashield.navsim import random_world, save_world
        monkeypatch.delenv("PARASHIELD_OUT", raising=False)

        def no_bank(*args, **kwargs):
            raise AssertionError("an unshielded episode reads no bank")

        monkeypatch.setattr(bench_mod, "synthesize_bank", no_bank)
        monkeypatch.setattr(bench_mod, "load_bank", no_bank)
        world = tmp_path / "world.txt"
        save_world(random_world(5, WorldParams()), world)
        out = tmp_path / "out"
        rc = cli_main(["run", "--grid-preset", "coarse", "--seed", "4", "--mode", "unshielded",
                       "--world", str(world), "--max-steps", "10", "--out", str(out)])
        assert rc in (0, 1)  # unshielded may collide
        assert len(list(out.glob("trace_unshielded_4.csv"))) == 1
        assert not list(out.glob("*.pshb*"))

    @pytest.mark.parametrize("records", [
        "goal 7 7 7.5 7.5\nstart nan 1.5 0\n",
        "obstacle 2 2 inf 2.5\ngoal 7 7 7.5 7.5\nstart 1 1.5 0\n",
    ], ids=["nan-start", "inf-obstacle"])
    def test_run_refuses_a_non_finite_world(self, tmp_path, monkeypatch, capsys, records):
        import parashield.bench as bench_mod
        monkeypatch.delenv("PARASHIELD_OUT", raising=False)

        def no_bank(*args, **kwargs):
            raise AssertionError("a refused world needs no bank")

        monkeypatch.setattr(bench_mod, "synthesize_bank", no_bank)
        world = tmp_path / "world.txt"
        world.write_text("bounds 0 0 8 8\n" + records)
        rc = cli_main(["run", "--grid-preset", "coarse", "--world", str(world), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValueError: ") and "non-finite" in err[0]

    def test_out_env_overrides_flag(self, tmp_path, monkeypatch, capsys):
        override = tmp_path / "env_out"
        monkeypatch.setenv("PARASHIELD_OUT", str(override))
        rc = cli_main(["run", "--grid-preset", "coarse", "--seed", "4",
                       "--mode", "unshielded", "--max-steps", "10",
                       "--out", str(tmp_path / "flag_out")])
        assert rc in (0, 1)  # unshielded may collide
        assert list(override.glob("trace_*.csv"))
        assert not (tmp_path / "flag_out").exists()

    def test_query_with_bank_file(self, tmp_path, coarse_rt, capsys, monkeypatch):
        from parashield.shield import save_bank
        monkeypatch.delenv("PARASHIELD_OUT", raising=False)
        bank_path = tmp_path / "bank.pshb"
        save_bank(coarse_rt.bank, bank_path)
        rc = cli_main(["query", "--grid-preset", "coarse", "--bank", str(bank_path),
                       "--cell", "13,13,10", "--propose", "0.4,0.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chosen=" in out and "intervened=" in out

    def test_bench_subcommand_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PARASHIELD_OUT", raising=False)
        rc = cli_main(["bench", "--grid-preset", "coarse", "--instances", "1",
                       "--seed", "1", "--max-steps", "20", "--out", str(tmp_path)])
        assert rc == 0
        (path,) = tmp_path.glob("results_coarse.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == RESULT_HEADER
        assert len(lines) == 2
        assert lines[1].endswith("True")

    def test_synth_bank_prints_phase_durations(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PARASHIELD_OUT", raising=False)
        rc = cli_main(["synth-bank", "--grid-preset", "coarse", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Abstraction:" in out and "Synthesis:" in out
        assert list(tmp_path.glob("bank_coarse.pshb"))
