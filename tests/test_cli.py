"""CLI surface: exit codes, key=value stdout lines, stable files."""

import argparse
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from clsibound import batteries, cli, estimator, exceptions, lindblad, serialize
from clsibound.exceptions import (
    ConsistencyError,
    DegenerateStartError,
    DisconnectedGraphError,
    GraphFormatError,
    NonHermitianError,
    NumericalIntegrityError,
    PositivityError,
    QuadratureError,
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

Z4 = '{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3]]}'
STAR = '{"n": 4, "edges": [[0,1],[0,2],[0,3]]}'
P3 = '{"n": 3, "edges": [[0,1],[1,2]]}'
K2 = '{"n": 2, "edges": [[0,1]]}'
TRIANGLE = '{"n": 3, "edges": [[0,1],[1,2],[0,2]]}'
DISCONNECTED = '{"n": 4, "edges": [[0,1],[2,3]]}'
MEASURED_C4 = ('{"n": 4, "edges": [[0,1,0.5],[1,2,2],[2,3,1.5],[0,3,0.7]], '
               '"measure": [0.1,0.4,0.2,0.3]}')
PATH2000 = json.dumps({"n": 2000, "edges": [[i, i + 1] for i in range(1999)]})
PATH33 = json.dumps({"n": 33, "edges": [[i, i + 1] for i in range(32)]})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def certificate(tmp_path, graph_text):
    """The certificate ``bound --out`` writes for a graph document."""
    out_path = tmp_path / "certificate.json"
    assert cli.main(["bound", "--graph", write(tmp_path, "g.json", graph_text),
                     "--out", str(out_path)]) == 0
    return json.loads(out_path.read_text())


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

    def test_long_path(self, tmp_path, capsys):
        code = cli.main(["bound", "--graph", write(tmp_path, "g.json", PATH2000)])
        out = capsys.readouterr().out
        assert code == 0
        assert float(grep(out, "best")) == pytest.approx(1.0 / (45.0 * 1999 ** 2),
                                                         rel=1e-12)

    def test_transfer_printed(self, tmp_path, capsys):
        code = cli.main(["bound", "--graph", write(tmp_path, "g.json", K2)])
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

    def test_amplified_probe_checks_twice_gap(self, monkeypatch, capsys):
        probe = cli.estimator.clsi_probe

        def inflated(*args, **kwargs):
            report = probe(*args, **kwargs)
            report.value = 2.0 + 1e-3
            return report

        monkeypatch.setattr(cli.estimator, "clsi_probe", inflated)
        code = cli.main(["estimate", "--target", "pauli", "--m", "2",
                         "--restarts", "2", "--seed", "3"])
        captured = capsys.readouterr()
        assert float(grep(captured.out, "gap")) == pytest.approx(1.0)
        assert code == 4
        assert captured.err.startswith("ordering violated: estimate<=2*gap")

    def test_measured_graph_sandwich_exit_two(self, tmp_path, capsys):
        code = cli.main(["estimate", "--graph", write(tmp_path, "g.json", MEASURED_C4),
                         "--restarts", "8", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "uniform measure" in captured.err

    def test_excluded_points_print_no_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["estimate", "--target", "intspec:0,2,5,9", "--p", "1.9",
                             "--restarts", "8", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_intspec_target(self, capsys):
        code = cli.main(["estimate", "--target", "intspec:0,1",
                         "--restarts", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(grep(out, "estimate")) > 0

    def test_large_rate_ordering_slack_scales(self, capsys):
        code = cli.main(["estimate", "--target", "intspec:0,1000",
                         "--restarts", "4", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert float(grep(captured.out, "estimate")) > 2.0 * float(grep(captured.out, "gap"))

    def test_unknown_target(self, capsys):
        assert cli.main(["estimate", "--target", "nonsense"]) == 2

    @pytest.mark.parametrize("form, spec", [
        (form, form.partition(":")[0] + ":" + arg)
        for form, *_ in lindblad.TARGETS for arg in ("x", "", "1,,2")],
        ids=lambda v: v)
    def test_malformed_target_spec_names_itself(self, form, spec, capsys):
        # a row that takes an argument names the spec; one that takes none
        # (pauli) does not match a spec with an argument at all
        code = cli.main(["estimate", "--target", spec, "--restarts", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        if ":" in form:
            assert line.startswith(f"error: {spec}: ")
        else:
            assert line == f"error: unknown target {spec!r}"

    @pytest.mark.parametrize("extra", [[], ["--m", "2"]], ids=["m1", "m2"])
    def test_certified_lower_above_the_estimate_exit_four(self, monkeypatch, capsys,
                                                          extra):
        monkeypatch.setattr(cli.lindblad, "SPHERE_TRANSFER_CONSTANT", 2.5)
        code = cli.main(["estimate", "--target", "intspec:0,1", "--restarts", "2",
                         "--seed", "1", *extra])
        captured = capsys.readouterr()
        assert code == 4 and float(grep(captured.out, "estimate")) < 2.5
        assert captured.err.splitlines() == [
            f"ordering violated: certified<=estimate (2.5 > "
            f"{float(grep(captured.out, 'estimate'))!r} + slack)"]

    def test_certified_lower_is_not_checked_under_p(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.lindblad, "SPHERE_TRANSFER_CONSTANT", 2.5)
        code = cli.main(["estimate", "--target", "intspec:0,1", "--restarts", "2",
                         "--seed", "1", "--p", "1.5"])
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("spec", ["intspec:0,1", "intspec:0,1,2", "intspec:0,2,5,9"])
    def test_intspec_estimate_clears_its_certified_lower(self, spec, capsys):
        code = cli.main(["estimate", "--target", spec, "--restarts", "8", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert float(grep(captured.out, "estimate")) >= 1.0 / (5.0 * np.pi ** 2)

    @pytest.mark.parametrize("spec", ["intspec:nan,1", "intspec:0,inf",
                                      "intspec:0,1e300"])
    def test_intspec_rejects_non_finite_or_huge(self, spec, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["estimate", "--target", spec, "--restarts", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: {spec}: entries must be finite numbers "
                                "of magnitude at most 1e+06\n")

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
        assert captured.err.startswith("degenerate start: initial state is a fixed point")

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

    @pytest.mark.parametrize("argv", [
        ["--target", "pauli", "--t-stop", "30"],
        ["--target", "depolarizing:3", "--t-stop", "40", "--t-count", "5"],
    ], ids=lambda argv: " ".join(argv))
    def test_values_below_the_floor_get_an_empty_lnD_cell(self, tmp_path, capsys, argv):
        csv_path = tmp_path / "decay.csv"
        code = cli.main(["decay", *argv, "--out", str(csv_path)])
        captured = capsys.readouterr()
        assert code == 0 and float(grep(captured.out, "fitted_rate")) > 1.9
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        below = [float(d) <= estimator.DECAY_VALUE_FLOOR for _, d, _ in rows]
        assert any(below) and not all(below)
        for (_, d, lnd), empty in zip(rows, below):
            assert lnd == ("" if empty else serialize.fmt17(np.log(float(d))))

    def test_huge_finite_time_prints_no_warning(self, capsys):
        # t * lambda overflows to inf, and e^-inf = 0 is the right phase; only
        # t = 0 is left above the floor, so no rate can be fitted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["decay", "--target", "pauli", "--t-stop", "1e308"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: fewer than two points of the t grid have D above 1e-12: "
            "no rate to fit"]

    def test_non_hermitian_state_file_exit_two(self, tmp_path, capsys):
        rho = np.array([[1.0, 0.3], [0.0, 1.0]])
        path = write(tmp_path, "rho.json", json.dumps(serialize.matrix_to_json(rho)))
        code = cli.main(["decay", "--target", "pauli", "--state", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "not Hermitian" in lines[0]


    @pytest.mark.parametrize("doc", [[[1]], {"a": 1}, [[[1, 0], [0, 0]]]])
    def test_malformed_state_file_exit_two(self, tmp_path, capsys, doc):
        path = write(tmp_path, "rho.json", json.dumps(doc))
        code = cli.main(["decay", "--target", "pauli", "--state", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "error: matrix: expected a square nested list of [re, im] number pairs"]


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

    @pytest.mark.parametrize("error", [ConsistencyError, QuadratureError])
    def test_numerical_error_exit_seven(self, capsys, monkeypatch, error):
        def raising():
            raise error("forced disagreement")

        monkeypatch.setitem(batteries.REGISTRY, "fisher-forms", raising)
        code = cli.main(["verify", "--only", "fisher-forms"])
        captured = capsys.readouterr()
        assert code == 7
        assert captured.out == ""
        assert captured.err.splitlines() == ["numerical error: forced disagreement"]


class TestCover:
    """The traversal cover in the certificate that ``bound --out`` writes."""

    def test_path_sequence(self, tmp_path):
        assert certificate(tmp_path, P3)["cover"]["sequence"] == [0, 1, 2, 1]

    def test_single_edge(self, tmp_path):
        assert certificate(tmp_path, K2)["cover"]["sequence"] == [0, 1]

    def test_star_center_multiplicity(self, tmp_path):
        cover = certificate(tmp_path, STAR)["cover"]
        assert len(cover["sequence"]) == 6
        assert cover["vertex_multiplicity"][0] == 3

    def test_long_path(self, tmp_path):
        assert len(certificate(tmp_path, PATH2000)["cover"]["sequence"]) == 2 * 1999


OPTIONS = {
    "bound": {"--graph", "--out"},
    "estimate": {"--target", "--graph", "--out", "--seed", "--restarts", "--p", "--m"},
    "decay": {"--target", "--graph", "--out", "--state", "--t-start", "--t-stop",
              "--t-count"},
    "verify": {"--only", "--trials"},
}

REMOVED = [(command, option)
           for command, options in [("bound", ["--seed", "--restarts", "--tol"]),
                                    ("decay", ["--seed", "--restarts", "--tol"]),
                                    ("estimate", ["--tol"]),
                                    ("verify", ["--dims"])]
           for option in options]


def declared_options():
    """Subcommand name -> the option strings its parser declares."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


class TestOptions:
    def test_each_subcommand_takes_only_what_it_reads(self):
        found = declared_options()
        assert found == OPTIONS
        assert sum(map(len, found.values())) == 18

    def test_readme_table_matches_parser(self):
        table = README.read_text().split("| subcommand | options |", 1)[1]
        rows = re.findall(r"^\| `([a-z]+)` \|(.*)\|$", table.split("\n\n", 1)[0], re.M)
        assert {name: set(re.findall(r"`(--[a-z-]+)`", options))
                for name, options in rows} == declared_options()

    @pytest.mark.parametrize("command", ["lindblad", "cover"])
    def test_folded_subcommand_exit_two(self, tmp_path, capsys, command):
        graph = write(tmp_path, "g.json", Z4)
        assert exit_code([command, "--graph", graph]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice" in captured.err

    @pytest.mark.parametrize("command, option", REMOVED)
    def test_removed_option_exit_two(self, tmp_path, capsys, command, option):
        source = {"bound": ["--graph", write(tmp_path, "g.json", Z4)],
                  "verify": []}.get(command, ["--target", "pauli"])
        with pytest.raises(SystemExit) as info:
            cli.main([command, *source, option, "1"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--target", "pauli", "--graph", "G"],
        ["decay", "--target", "pauli", "--graph", "G"],
        ["estimate", "--target", "pauli", "--p", "1.5", "--m", "2"],
        ["estimate"],
        ["decay"],
        ["estimate", "--graph", "G", "--p", "1.5"],
        ["estimate", "--graph", "G", "--m", "2"],
        ["estimate", "--target", "graph"],
    ], ids=lambda argv: " ".join(argv))
    def test_conflicting_or_missing_choice_exit_two(self, tmp_path, capsys, argv):
        graph = write(tmp_path, "g.json", TRIANGLE)
        assert exit_code([graph if a == "G" else a for a in argv]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--target", "pauli", "--seed", "-1"],
        ["estimate", "--target", "pauli", "--seed", str(2 ** 64)],
        ["estimate", "--target", "pauli", "--restarts", "0"],
        ["estimate", "--target", "pauli", "--m", "0"],
        # --tol is removed: a value once out of its range is still refused
        ["estimate", "--target", "pauli", "--tol", "nan"],
        ["estimate", "--target", "pauli", "--tol", "inf"],
        ["estimate", "--target", "pauli", "--tol=-1e-8"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-3"],
        ["decay", "--target", "pauli", "--t-count", "1000000000000000"],
        ["decay", "--target", "pauli", "--t-count", str(cli.MAX_DECAY_POINTS + 1)],
        ["decay", "--target", "pauli", "--t-count", "1"],
        ["decay", "--target", "pauli", "--t-stop", "nan"],
        ["decay", "--target", "pauli", "--t-stop", "inf"],
        ["decay", "--target", "pauli", "--t-start=-1"],
    ], ids=lambda argv: " ".join(argv[1:]))
    def test_out_of_range_number_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_range_ends_parse(self):
        args = cli.build_parser().parse_args(
            ["estimate", "--target", "pauli", "--seed", str(2 ** 64 - 1),
             "--restarts", "1", "--m", "1"])
        assert (args.seed, args.restarts, args.m) == (2 ** 64 - 1, 1, 1)
        args = cli.build_parser().parse_args(["verify", "--trials", "1"])
        assert args.trials == 1
        args = cli.build_parser().parse_args(
            ["decay", "--target", "pauli", "--t-count", str(cli.MAX_DECAY_POINTS),
             "--t-start", "0", "--t-stop", "1e308"])
        assert (args.t_count, args.t_start, args.t_stop) == (cli.MAX_DECAY_POINTS, 0.0, 1e308)

    def test_target_lists_match_the_table(self):
        forms = [form for form, *_ in lindblad.TARGETS]
        readme = re.search(r"`--target` \(a builtin system: ([^)]*)\)", README.read_text())
        assert re.findall(r"`([^`]+)`", readme.group(1)) == forms
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name in ("estimate", "decay"):
            [target] = [a for a in sub.choices[name]._actions if "--target" in a.option_strings]
            assert target.help.split(" | ") == forms

    @pytest.mark.parametrize("argv, n", [
        (["estimate", "--target", "depolarizing:1000", "--restarts", "1"], 1000),
        (["decay", "--target", "intspec:" + ",".join(str(i % 3) for i in range(33))], 33),
        (["decay", "--graph", "PATH33"], 33),
    ], ids=["estimate-depolarizing-1000", "decay-intspec-33", "decay-graph-path-33"])
    def test_target_above_the_dimension_cap_exit_two(self, tmp_path, capsys, argv, n):
        argv = [write(tmp_path, "g.json", PATH33) if a == "PATH33" else a for a in argv]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: target dimension {n} exceeds MAX_TARGET_DIM = {cli.MAX_TARGET_DIM}"]

    def test_directory_as_graph_exit_two(self, tmp_path, capsys):
        code = cli.main(["bound", "--graph", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_disconnected_sandwich_exit_three(self, tmp_path, capsys):
        code = cli.main(["estimate", "--graph", write(tmp_path, "g.json", DISCONNECTED)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.splitlines() == ["graph is disconnected"]


def _row(exc_type):
    return next(row for row in cli.ERRORS if issubclass(exc_type, row[0]))


class TestExitCodes:
    def test_every_exception_class_has_its_row(self):
        classes = {c for c in vars(exceptions).values()
                   if isinstance(c, type) and c.__module__ == exceptions.__name__}
        assert {c: _row(c)[1] for c in classes} == {
            DisconnectedGraphError: 3, GraphFormatError: 2, NonHermitianError: 2,
            PositivityError: 2, NumericalIntegrityError: 5, DegenerateStartError: 5,
            ConsistencyError: 7, QuadratureError: 7}

    def test_no_row_is_shadowed_by_an_earlier_one(self):
        for row in cli.ERRORS:
            for exc_type in row[0]:
                assert _row(exc_type) is row

    def test_codes_and_lines_are_documented(self):
        readme = README.read_text().split("Exit codes", 1)[1]
        readme_rows = dict(re.findall(r"^\| `(\d)` \|(.*)$", readme, re.M))
        docstring = cli.__doc__.split("Exit codes", 1)[1]
        docstring_codes = set(re.findall(r"^  (\d)  ", docstring, re.M))
        for _, code, line in cli.ERRORS:
            assert str(code) in docstring_codes
            assert f"`{line.replace('{}', '...')}`" in readme_rows[str(code)]

    @pytest.mark.parametrize("error, code, line", [
        (DisconnectedGraphError("forced"), 3, "graph is disconnected"),
        (GraphFormatError("forced"), 2, "error: forced"),
        (KeyError("forced"), 2, "error: 'forced'"),
        (PermissionError("forced"), 2, "error: forced"),
        (NumericalIntegrityError("forced"), 5, "decay error: forced"),
        (DegenerateStartError("forced"), 5, "degenerate start: forced"),
        (QuadratureError("forced"), 7, "numerical error: forced"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_first_matching_row_sets_code_and_line(self, capsys, monkeypatch,
                                                   error, code, line):
        def raising():
            raise error

        monkeypatch.setitem(batteries.REGISTRY, "fisher-forms", raising)
        assert cli.main(["verify", "--only", "fisher-forms"]) == code
        assert capsys.readouterr().err.splitlines() == [line]

    def test_unlisted_error_propagates(self, monkeypatch):
        def raising():
            raise RuntimeError("not in the table")

        monkeypatch.setitem(batteries.REGISTRY, "fisher-forms", raising)
        with pytest.raises(RuntimeError, match="not in the table"):
            cli.main(["verify", "--only", "fisher-forms"])
