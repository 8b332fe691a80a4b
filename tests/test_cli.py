"""CLI surface: exit codes, key=value stdout lines, stable files."""

import json

import numpy as np
import pytest

from clsibound import batteries, cli, serialize

Z4 = '{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3]]}'
STAR = '{"n": 4, "edges": [[0,1],[0,2],[0,3]]}'
P3 = '{"n": 3, "edges": [[0,1],[1,2]]}'
K2 = '{"n": 2, "edges": [[0,1]]}'
TRIANGLE = '{"n": 3, "edges": [[0,1],[1,2],[0,2]]}'
DISCONNECTED = '{"n": 4, "edges": [[0,1],[2,3]]}'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def grep(out, key):
    for line in out.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"{key}= not found in {out!r}")


class TestBound:
    def test_star_value(self, tmp_path, capsys):
        code = cli.main(["bound", "--graph", write(tmp_path, "g.json", STAR)])
        out = capsys.readouterr().out
        assert code == 0
        assert float(grep(out, "best")) == 2.0 / 1215.0
        assert float(grep(out, "lindblad")) > 0

    def test_z4_value(self, tmp_path, capsys):
        code = cli.main(["bound", "--graph", write(tmp_path, "g.json", Z4)])
        out = capsys.readouterr().out
        assert code == 0
        assert grep(out, "best") == "2.2222222222222223e-2"

    def test_disconnected_exit_three(self, tmp_path, capsys):
        code = cli.main(["bound", "--graph",
                         write(tmp_path, "g.json", DISCONNECTED)])
        captured = capsys.readouterr()
        assert code == 3
        assert "graph is disconnected" in captured.err

    def test_malformed_exit_two(self, tmp_path, capsys):
        code = cli.main(["bound", "--graph", write(tmp_path, "g.json", "{nope")])
        assert code == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.main(["bound", "--graph", str(tmp_path / "absent.json")]) == 2

    def test_certificate_file_byte_identical(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", Z4)
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        assert cli.main(["bound", "--graph", graph, "--out", str(out1)]) == 0
        assert cli.main(["bound", "--graph", graph, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["schema_version"] == 1
        assert doc["best_source"] == "cyclic-special"


class TestLindbladCommand:
    def test_transfer_printed(self, tmp_path, capsys):
        code = cli.main(["lindblad", "--graph", write(tmp_path, "g.json", K2)])
        out = capsys.readouterr().out
        lam = 2.0 / 45.0
        assert code == 0
        assert float(grep(out, "lindblad")) == pytest.approx(
            lam / (1 + 5 * np.pi ** 2 * lam))


class TestEstimate:
    def test_pauli_window(self, tmp_path, capsys):
        code = cli.main(["estimate", "--target", "pauli", "--restarts", "25",
                         "--seed", "7", "--out", str(tmp_path / "r.json")])
        out = capsys.readouterr().out
        assert code == 0
        value = float(grep(out, "estimate"))
        assert 2.0 - 1e-9 <= value <= 2.10
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["schema_version"] == 1 and doc["seed"] == 7

    def test_depolarizing_window(self, capsys):
        code = cli.main(["estimate", "--target", "depolarizing:2",
                         "--restarts", "25", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert 1.5 <= float(grep(out, "estimate")) <= 2.05

    def test_graph_sandwich_pass(self, tmp_path, capsys):
        code = cli.main(["estimate", "--graph",
                         write(tmp_path, "g.json", TRIANGLE),
                         "--restarts", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert grep(out, "sandwich") == "pass"

    def test_p_sobolev_target(self, capsys):
        code = cli.main(["estimate", "--target", "depolarizing:2", "--p", "1.5",
                         "--restarts", "10", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(grep(out, "estimate")) >= 1.45

    def test_amplified_probe(self, capsys):
        code = cli.main(["estimate", "--target", "pauli", "--m", "2",
                         "--restarts", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert 2.0 - 1e-9 <= float(grep(out, "estimate")) <= 2.15

    def test_intspec_target(self, capsys):
        code = cli.main(["estimate", "--target", "intspec:0,1",
                         "--restarts", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(grep(out, "estimate")) > 0

    def test_unknown_target(self, capsys):
        assert cli.main(["estimate", "--target", "nonsense"]) == 2

    def test_report_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert cli.main(["estimate", "--target", "pauli", "--restarts", "5",
                             "--seed", "11", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


class TestDecay:
    def test_pauli_z_witness(self, tmp_path, capsys):
        csv_path = tmp_path / "decay.csv"
        code = cli.main(["decay", "--target", "pauli", "--state", "zwitness",
                         "--t-stop", "3.0", "--t-count", "25",
                         "--out", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert last.startswith("fitted_rate=")
        assert float(last.split("=")[1]) >= 1.999
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,D,lnD"
        assert len(lines) == 26

    def test_fixed_point_exit_five(self, capsys):
        code = cli.main(["decay", "--target", "pauli", "--state", "fixed"])
        captured = capsys.readouterr()
        assert code == 5
        assert "fixed point" in captured.err

    def test_graph_random_state_monotone(self, tmp_path, capsys):
        csv_path = tmp_path / "decay.csv"
        code = cli.main(["decay", "--graph", write(tmp_path, "g.json", TRIANGLE),
                         "--state", "random:3", "--out", str(csv_path)])
        capsys.readouterr()
        assert code == 0
        rows = [line.split(",") for line in
                csv_path.read_text().strip().splitlines()[1:]]
        values = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


    @pytest.mark.parametrize("target, n", [("pauli", 2), ("depolarizing:3", 3)])
    def test_random_state_is_batteries_random_state(self, monkeypatch, capsys,
                                                    target, n):
        seen = []
        real = cli.estimator.decay_curve

        def spy(s, e_fix, rho0, grid):
            seen.append(rho0)
            return real(s, e_fix, rho0, grid)

        monkeypatch.setattr(cli.estimator, "decay_curve", spy)
        code = cli.main(["decay", "--target", target, "--state", "random:5"])
        capsys.readouterr()
        assert code == 0
        expected = batteries.random_state(np.random.default_rng(5), n)
        assert len(seen) == 1 and np.array_equal(seen[0], expected)

    def test_non_hermitian_state_file_exit_two(self, tmp_path, capsys):
        rho = np.array([[1.0, 0.3], [0.0, 1.0]])
        path = write(tmp_path, "rho.json", json.dumps(serialize.matrix_to_json(rho)))
        code = cli.main(["decay", "--target", "pauli", "--state", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "not Hermitian" in lines[0]


class TestVerify:
    def test_default_run_all_pass(self, capsys):
        code = cli.main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if ": " in l]
        assert len(lines) >= 20
        assert all(": PASS" in l for l in lines)

    def test_only_constant_chain(self, capsys):
        code = cli.main(["verify", "--only", "constant-chain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "constant-chain: PASS" in out
        assert "0.8572" in out

    def test_only_entropy_interpolation_options(self, capsys):
        code = cli.main(["verify", "--only", "entropy-interpolation", "--trials", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entropy-interpolation: PASS" in out

    def test_unknown_battery_exit_two(self, capsys):
        code = cli.main(["verify", "--only", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown battery" in captured.err

    def test_failure_exit_six(self, capsys, monkeypatch):
        from clsibound import batteries

        def broken():
            return batteries.BatteryResult("entropy-interpolation", False, 1.0, "forced")

        monkeypatch.setitem(batteries.REGISTRY, "entropy-interpolation", broken)
        code = cli.main(["verify", "--only", "entropy-interpolation"])
        out = capsys.readouterr().out
        assert code == 6
        assert "entropy-interpolation: FAIL" in out


class TestCover:
    def test_path_sequence(self, tmp_path, capsys):
        out_path = tmp_path / "cover.json"
        code = cli.main(["cover", "--graph", write(tmp_path, "g.json", P3),
                         "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["sequence"] == [0, 1, 2, 1]
        assert doc["verified"] is True

    def test_single_edge(self, tmp_path, capsys):
        code = cli.main(["cover", "--graph", write(tmp_path, "g.json", K2)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.rsplit("verified=", 1)[0])["sequence"] == [0, 1]

    def test_star_center_multiplicity(self, tmp_path, capsys):
        out_path = tmp_path / "cover.json"
        code = cli.main(["cover", "--graph", write(tmp_path, "g.json", STAR),
                         "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["sequence"]) == 6
        assert doc["vertex_multiplicity"][0] == 3
