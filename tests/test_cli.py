"""Tests for the library CLI (python -m repro)."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.graph import sprand
from repro.graph.io import write_matrix_market


@pytest.fixture()
def mtx(tmp_path):
    path = tmp_path / "g.mtx"
    write_matrix_market(sprand(200, 3.0, seed=0), path)
    return str(path)


class TestCLI:
    def test_info(self, mtx, capsys):
        assert main(["info", mtx]) == 0
        out = capsys.readouterr().out
        assert "200 x 200" in out and "edges" in out

    def test_sprank(self, mtx, capsys):
        assert main(["sprank", mtx]) == 0
        assert "sprank =" in capsys.readouterr().out

    def test_scale(self, mtx, tmp_path, capsys):
        out_file = tmp_path / "scal.npz"
        assert main(
            ["scale", mtx, "--iterations", "5", "--out", str(out_file)]
        ) == 0
        with np.load(out_file) as data:
            assert data["dr"].shape == (200,)
        assert "final error" in capsys.readouterr().out

    def test_scale_ruiz(self, mtx, capsys):
        assert main(["scale", mtx, "--method", "ruiz"]) == 0

    @pytest.mark.parametrize(
        "method",
        ["one-sided", "two-sided", "karp-sipser", "karp-sipser-plus",
         "greedy", "hopcroft-karp", "mc21", "push-relabel"],
    )
    def test_match_all_methods(self, mtx, method, capsys):
        assert main(["match", mtx, "--method", method]) == 0
        assert "cardinality" in capsys.readouterr().out

    def test_match_with_quality_and_out(self, mtx, tmp_path, capsys):
        out_file = tmp_path / "m.npz"
        assert main(
            ["match", mtx, "--quality", "--out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "quality" in out
        with np.load(out_file) as data:
            assert data["row_match"].shape == (200,)

    def test_match_best_of(self, mtx, capsys):
        assert main(["match", mtx, "--method", "two-sided",
                     "--best-of", "3"]) == 0
        assert "cardinality" in capsys.readouterr().out

    def test_dm(self, mtx, capsys):
        assert main(["dm", mtx]) == 0
        out = capsys.readouterr().out
        assert "block H" in out and "total support" in out

    def test_generate_sprand(self, tmp_path, capsys):
        out_file = tmp_path / "gen.mtx"
        assert main(
            ["generate", "sprand", "--n", "100", "--degree", "3",
             "--out", str(out_file)]
        ) == 0
        assert out_file.exists()

    def test_generate_suite_instance(self, tmp_path, capsys):
        assert main(["generate", "torso1", "--n", "1200"]) == 0
        assert "edges" in capsys.readouterr().out

    def test_generate_adversarial(self, capsys):
        assert main(["generate", "adversarial", "--n", "100", "--k", "4"]) == 0

    def test_generate_one_out(self, capsys):
        assert main(["generate", "one-out", "--n", "500"]) == 0

    def test_generate_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["generate", "mystery"])

    def test_npz_round_trip_via_cli(self, tmp_path, capsys):
        npz = tmp_path / "g.npz"
        assert main(
            ["generate", "fully-indecomposable", "--n", "300",
             "--out", str(npz)]
        ) == 0
        assert main(["sprank", str(npz)]) == 0
        assert "1.0000" in capsys.readouterr().out  # full sprank
