"""End-to-end CLI tests: subcommands, exit codes, emitted files."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from layercloud.cli import main
from layercloud.io import Instance, load_instance, load_representation, save_instance
from layercloud.model import build_graph, contact_report, validate_graph


@pytest.fixture()
def fan_file(tmp_path):
    g = build_graph([[3], [1, 1, 1]], [[[0, 2]]])
    path = tmp_path / "fan.json"
    save_instance(path, Instance(graph=g, epsilon=Fraction(1)))
    return path


@pytest.fixture()
def broken_file(tmp_path):
    g = build_graph([[1, 1], [1, 1]], [[[0, 0], [1, 1]]])
    path = tmp_path / "broken.json"
    save_instance(path, Instance(graph=g, epsilon=Fraction(1)))
    return path


class TestValidate:
    def test_valid_instance_exits_zero(self, fan_file, capsys):
        assert main(["validate", str(fan_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_instance_exits_one_with_violation(self, broken_file, capsys):
        assert main(["validate", str(broken_file)]) == 1
        out = capsys.readouterr().out
        assert "share exactly one endpoint" in out

    def test_negative_width_exits_one(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text('{"layers": [[-1]], "up_neighbors": []}')
        assert main(["validate", str(path)]) == 1

    def test_garbled_file_reports_context(self, tmp_path, capsys):
        path = tmp_path / "garbled.json"
        path.write_text('{"layers": [[1]')
        assert main(["validate", str(path)]) == 1
        assert "line" in capsys.readouterr().out


class TestSolveCommands:
    def test_area_min_reports_zero_gap(self, fan_file, capsys):
        assert main(["area-min", str(fan_file), "--oracle-check"]) == 0
        out = capsys.readouterr().out
        assert "gap_total 0" in out
        assert "oracle-check: ok" in out

    def test_max_contacts_dispatches_to_sweep(self, fan_file, capsys):
        assert main(["max-contacts", str(fan_file), "--oracle-check"]) == 0
        out = capsys.readouterr().out
        assert "two-layer sweep" in out
        assert "realized 5/5" in out

    def test_max_contacts_exact_flag(self, fan_file, capsys):
        assert main(["max-contacts", str(fan_file), "--exact"]) == 0
        assert "branch and bound" in capsys.readouterr().out

    def test_three_layer_instance_uses_exact(self, tmp_path, capsys):
        g = build_graph([[1], [1], [1]], [[[0, 0]], [[0, 0]]])
        path = tmp_path / "tower.json"
        save_instance(path, Instance(graph=g, epsilon=Fraction(1)))
        assert main(["max-contacts", str(path), "--oracle-check"]) == 0
        assert "branch and bound" in capsys.readouterr().out

    def test_bbox_min_reports_width(self, fan_file, capsys):
        assert main(["bbox-min", str(fan_file), "--oracle-check"]) == 0
        assert "width 3" in capsys.readouterr().out

    def test_emitted_representation_revalidates(self, fan_file, tmp_path):
        out = tmp_path / "layout.json"
        assert main(["max-contacts", str(fan_file), "--json", str(out)]) == 0
        rep = load_representation(out)
        g = load_instance(fan_file).graph
        report = contact_report(g, rep)
        assert not report.false_adjacencies
        assert len(report.realized) == 5

    def test_emit_lp(self, fan_file, tmp_path):
        out = tmp_path / "model.lp"
        assert main(["max-contacts", str(fan_file), "--emit-lp", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("Minimize")
        assert "Binary" in text

    def test_dump_network(self, fan_file, tmp_path):
        out = tmp_path / "network.txt"
        assert main(["area-min", str(fan_file), "--dump-network", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert all(len(line.split()) == 5 for line in lines)

    def test_invalid_instance_exits_one(self, broken_file):
        assert main(["area-min", str(broken_file)]) == 1

    def test_strip_infeasible_exits_four(self, tmp_path, capsys):
        """No valid layout fits the strip: its own code, not the internal one."""
        g = build_graph([[3, 3, 5, 5], [5, 4, 5, 5]], [[[0, 1], [1, 1], [1, 1], [1, 3]]])
        path = tmp_path / "squeezed.json"
        save_instance(path, Instance(graph=g, epsilon=Fraction(1)))
        for command in (["area-min"], ["bbox-min"], ["oracle", "area-min"]):
            assert main([*command, str(path)]) == 4, command
            assert "infeasible:" in capsys.readouterr().out

    def test_glob_solves_every_match(self, tmp_path, capsys):
        for seed in range(3):
            main([
                "gen", "--sizes", "2,2", "--seed", str(seed),
                "--out", str(tmp_path / f"g{seed}.json"),
            ])
        capsys.readouterr()
        assert main(["area-min", str(tmp_path / "g*.json"), "--glob"]) == 0
        out = capsys.readouterr().out
        assert out.count("gap_total") == 3


class TestOracleCommand:
    def test_oracle_mirrors_solvers(self, fan_file, capsys):
        assert main(["oracle", "max-contacts", str(fan_file)]) == 0
        assert "realized 5/5" in capsys.readouterr().out
        assert main(["oracle", "area-min", str(fan_file)]) == 0
        assert "min gap_total 0" in capsys.readouterr().out

    def test_cap_exceeded_exits_one(self, tmp_path, capsys):
        main(["gen", "--sizes", "6,6", "--out", str(tmp_path / "big.json")])
        capsys.readouterr()
        assert main(["oracle", "max-contacts", str(tmp_path / "big.json")]) == 1


class TestGen:
    def test_generated_instance_is_valid_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--sizes", "2,3,2", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen", "--sizes", "2,3,2", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert validate_graph(load_instance(a).graph) == []

    def test_env_seed_overrides(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LAYERCLOUD_SEED", "99")
        out = tmp_path / "seeded.json"
        assert main(["gen", "--sizes", "2,2", "--seed", "1", "--out", str(out)]) == 0
        assert "seed 99" in capsys.readouterr().out

    def test_non_integer_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LAYERCLOUD_SEED", "abc")
        out = tmp_path / "x.json"
        assert main(["gen", "--sizes", "2,2", "--out", str(out)]) == 1
        assert "LAYERCLOUD_SEED" in capsys.readouterr().out
        assert not out.exists()

    def test_impossible_sizes_rejected(self, tmp_path):
        assert main(["gen", "--sizes", "0", "--out", str(tmp_path / "x.json")]) == 1

    def test_non_integer_sizes_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen", "--sizes", "2,x", "--out", str(out)]) == 1
        assert "--sizes" in capsys.readouterr().out
        assert not out.exists()

    def test_width_range_without_colon_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen", "--sizes", "2,2", "--width-range", "5", "--out", str(out)]) == 1
        assert "--width-range" in capsys.readouterr().out
        assert not out.exists()


class TestRender:
    def test_render_subcommand(self, fan_file, tmp_path):
        rep_path = tmp_path / "layout.json"
        main(["max-contacts", str(fan_file), "--json", str(rep_path)])
        out = tmp_path / "layout.svg"
        assert main(["render", str(fan_file), "--rep", str(rep_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count('class="vertex"') == 4

    def test_svg_flag_from_solver(self, fan_file, tmp_path):
        out = tmp_path / "direct.svg"
        assert main(["max-contacts", str(fan_file), "--svg", str(out)]) == 0
        assert out.read_text().startswith("<svg")
