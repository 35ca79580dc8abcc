"""End-to-end command-line driver tests.

Most cases call main(argv) in process and read the artifacts it writes;
one subprocess case exercises the installed entry point for real.
"""

import json
import math
import subprocess
import sys

import pytest

from mdelab import (
    dirac,
    kernel_to_dict,
    lifted_to_dict,
    make_kernel,
    make_lifted,
    make_measure,
    measure_to_dict,
    pvf_to_dict,
)
from mdelab.cli import RunConfig, f17, main, recipe_to_config, run
from mdelab.errors import ValidationError
from mdelab.pvf import linear_field, median_split_pvf, ode_lift_pvf


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def median_files(tmp_path):
    pvf = write_json(tmp_path / "pvf.json", pvf_to_dict(median_split_pvf()))
    init = write_json(tmp_path / "init.json", measure_to_dict(dirac(0.0)))
    return pvf, init


class TestSolve:
    def test_median_recipe_final_rows(self, tmp_path, median_files):
        pvf, init = median_files
        out = tmp_path / "traj.csv"
        code = main(["solve", "--pvf", pvf, "--init", init,
                     "--n", "10", "--horizon", "1.0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,atom_id,x_1,mass"
        final = [ln.split(",") for ln in lines if ln.startswith("1,")]
        assert len(final) == 2
        assert [f[2] for f in final] == ["-1", "1"]
        assert all(f[3] == "0.5" for f in final)

    def test_rerun_is_byte_identical(self, tmp_path, median_files):
        pvf, init = median_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["solve", "--pvf", pvf, "--init", init,
                  "--n", "7", "--horizon", "1.0", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out_path(self, capsys, median_files):
        pvf, init = median_files
        assert main(["solve", "--pvf", pvf, "--init", init,
                     "--n", "5", "--horizon", "1.0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,atom_id,x_1,mass\n")

    def test_json_format(self, tmp_path, median_files):
        pvf, init = median_files
        out = tmp_path / "traj.json"
        main(["solve", "--pvf", pvf, "--init", init,
              "--n", "5", "--horizon", "1.0", "--format", "json",
              "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["columns"] == ["t", "atom_id", "x_1", "mass"]
        assert doc["rows"][0] == [0.0, 0, 0.0, 1.0]


class TestDist:
    def test_prints_a_single_17_digit_number(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", measure_to_dict(dirac(0.0)))
        b = write_json(tmp_path / "b.json", measure_to_dict(dirac(3.0)))
        assert main(["dist", a, b]) == 0
        out = capsys.readouterr().out
        assert out == "3\n"

    def test_17_digits_round_trip(self, tmp_path, capsys):
        from mdelab import wasserstein
        mu = make_measure([(0.0, 0.5), (1.0, 0.5)])
        nu = make_measure([(1.0 / 3.0, 0.5), (2.0 / 3.0, 0.5)])
        a = write_json(tmp_path / "a.json", measure_to_dict(mu))
        b = write_json(tmp_path / "b.json", measure_to_dict(nu))
        main(["dist", a, b])
        printed = capsys.readouterr().out.strip()
        # 17 significant digits reproduce the double bit-for-bit
        assert float(printed) == wasserstein(mu, nu).distance

    def test_plan_flag_appends_coupling_rows(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", measure_to_dict(dirac(0.0)))
        b = write_json(tmp_path / "b.json", measure_to_dict(
            make_measure([(1.0, 0.5), (2.0, 0.5)])))
        main(["dist", a, b, "--plan"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "i,k,weight"
        assert lines[2:] == ["0,0,0.5", "0,1,0.5"]

    def test_wrong_arity_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dist", "only-one.json"])


@pytest.fixture
def witness_triple_files(tmp_path):
    triples = (
        [((0.0, 0.0), (1.0, 0.0), 0.5), ((1.0, 0.0), (3.0, 0.0), 0.5)],
        [((0.0, 1.0), (1.0, 0.0), 0.5), ((1.0, -1.0), (3.0, 0.0), 0.5)],
        [((1.0, 1.0), (1.0, 0.0), 0.5), ((0.0, -1.0), (3.0, 0.0), 0.5)],
    )
    return [write_json(tmp_path / f"v{i}.json",
                       lifted_to_dict(make_lifted(rows)))
            for i, rows in enumerate(triples)]


class TestFiberDist:
    def test_two_files_one_value(self, tmp_path, capsys):
        v = make_lifted([((0.0,), (1.0,), 1.0)])
        w = make_lifted([((0.0,), (3.5,), 1.0)])
        a = write_json(tmp_path / "a.json", lifted_to_dict(v))
        b = write_json(tmp_path / "b.json", lifted_to_dict(w))
        assert main(["fiber-dist", a, b]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            2.5, abs=1e-9)

    def test_three_files_print_all_pairs(self, witness_triple_files, capsys):
        # pair order is (0,1), (1,2), (0,2); the last line exhibits the
        # triangle violation of the combined cost
        main(["fiber-dist", *witness_triple_files, "--kind", "combined"])
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert values[0] == pytest.approx(1.0, abs=1e-6)
        assert values[1] == pytest.approx(1.0, abs=1e-6)
        assert values[2] == pytest.approx(3.0, abs=1e-6)

    def test_four_files_rejected(self, witness_triple_files, capsys):
        files = witness_triple_files + witness_triple_files[:1]
        assert main(["fiber-dist", *files]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"


class TestErrorChannel:
    def test_malformed_measure_exits_2_with_field(self, tmp_path, capsys,
                                                  median_files):
        pvf, _ = median_files
        bad = write_json(tmp_path / "bad.json", {"schema": 1, "dim": 1})
        code = main(["solve", "--pvf", pvf, "--init", bad,
                     "--n", "5", "--horizon", "1.0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["schema"] == 1
        assert err["error"]["type"] == "validation"
        assert err["error"]["field"] == "atoms"
        assert err["error"]["message"]

    # one bad value in an otherwise good document of each loader: every
    # one must end in exit 2 and a JSON error naming the field
    @pytest.mark.parametrize("role, doc, field", [
        ("kernel", {"name": "linear", "rate": "abc"}, "rate"),
        ("kernel", {"name": "linear", "rate": math.nan}, "rate"),
        ("kernel", {"name": "zero", "sublinear_c": "x"}, "sublinear_c"),
        ("kernel", {"schema": 2, "name": "zero"}, "schema"),
        ("pvf", {"kind": "ode_lift",
                 "params": {"field": {"name": "linear", "a": "x"}}}, "a"),
        ("pvf", {"kind": "ode_lift", "params": {"field": [1]}}, "field"),
        ("pvf", {"kind": "phi_diffusion",
                 "params": {"phi": {"name": "linear", "a": -1.0},
                            "sub_atoms": "x"}}, "sub_atoms"),
        ("pvf", {"kind": "median_split", "params": [1]}, "params"),
        ("pvf", {"kind": "median_split", "params": {"sublinear_c": "x"}},
         "sublinear_c"),
        ("pvf", {"schema": 2, "kind": "median_split"}, "schema"),
        ("pvf", {"kind": "constant", "params": {"fiber": [5]}}, "fiber"),
        ("oracle", {"name": "constant_drift", "params": {"fiber": [5]}},
         "fiber"),
        ("oracle", {"name": "constant_drift",
                    "params": {"fiber": [[1.0, "x"]]}}, "fiber"),
        ("measure", {"uniform": {"a": 0.0, "b": 1.0, "atoms": "x"}},
         "uniform.atoms"),
        ("state", {"positions": [[0.0], [1.0]], "dim": "x"}, "dim"),
        ("state", {"schema": 2, "positions": [[0.0], [1.0]]}, "schema"),
    ])
    def test_a_bad_document_exits_2_naming_its_field(self, tmp_path, capsys,
                                                     role, doc, field):
        docs = {"kernel": {"name": "zero"}, "state": {"positions": [[0.0]]},
                "pvf": {"kind": "median_split"}, "measure": {"dirac": 0.0},
                "oracle": {"name": "median_split_delta",
                           "params": {"x0": 0.0}}}
        docs[role] = doc
        path = {key: write_json(tmp_path / f"{key}.json", value)
                for key, value in docs.items()}
        particles = ["particles", "--kernel", path["kernel"],
                     "--init", path["state"], "--n", "5"]
        solve = ["solve", "--pvf", path["pvf"], "--init", path["measure"]]
        argv = {"kernel": particles, "state": particles,
                "oracle": ["converge", *solve[1:], "--oracle", path["oracle"],
                           "--n-grid", "5"]}.get(role, [*solve, "--n", "5"])
        assert main(argv + ["--horizon", "1.0"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["field"]) == ("validation", field)

    def test_unreadable_path_exits_2(self, capsys, median_files):
        pvf, _ = median_files
        code = main(["solve", "--pvf", pvf, "--init", "no-such-file.json",
                     "--n", "5", "--horizon", "1.0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == \
            "validation"

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # declared sublinear constant far below the actual field speed
        spec = ode_lift_pvf(linear_field(-1.0), sublinear_c=0.1)
        pvf = write_json(tmp_path / "pvf.json", pvf_to_dict(spec))
        init = write_json(tmp_path / "init.json",
                          measure_to_dict(dirac(1.0)))
        code = main(["solve", "--pvf", pvf, "--init", init,
                     "--n", "10", "--horizon", "1.0"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "numerical"


class TestConverge:
    def test_median_grid_is_exact_with_nan_slope(self, tmp_path, capsys,
                                                 median_files):
        pvf, init = median_files
        oracle = write_json(tmp_path / "oracle.json",
                            {"name": "median_split_delta",
                             "params": {"x0": 0.0}})
        assert main(["converge", "--pvf", pvf, "--init", init,
                     "--oracle", oracle, "--n-grid", "5,10",
                     "--horizon", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,error,slope"
        for line, n in zip(lines[1:], (5, 10)):
            cells = line.split(",")
            assert cells[0] == str(n)
            assert float(cells[1]) == 0.0
            assert cells[2] == "nan"

    def test_ode_grid_has_positive_slope(self, tmp_path, capsys):
        from mdelab import field_to_dict
        decay = linear_field(-1.0)    # v(x) = -x
        pvf = write_json(tmp_path / "pvf.json",
                         pvf_to_dict(ode_lift_pvf(decay)))
        init = write_json(tmp_path / "init.json",
                          measure_to_dict(dirac(1.0)))
        oracle = write_json(tmp_path / "oracle.json", {
            "name": "ode_flow",
            "params": {"mu0": measure_to_dict(dirac(1.0)),
                       "field": field_to_dict(decay)}})
        main(["converge", "--pvf", pvf, "--init", init, "--oracle", oracle,
              "--n-grid", "10,20,40", "--horizon", "1.0"])
        lines = capsys.readouterr().out.splitlines()
        slope = float(lines[1].split(",")[2])
        assert slope >= 0.8

    def test_oracle_file_needs_a_name(self, tmp_path, capsys, median_files):
        pvf, init = median_files
        oracle = write_json(tmp_path / "oracle.json", {"params": {}})
        assert main(["converge", "--pvf", pvf, "--init", init,
                     "--oracle", oracle, "--n-grid", "5",
                     "--horizon", "1.0"]) == 2

    def test_json_format_carries_schema(self, tmp_path, median_files):
        pvf, init = median_files
        oracle = write_json(tmp_path / "oracle.json",
                            {"name": "median_split_delta",
                             "params": {"x0": 0.0}})
        out = tmp_path / "report.json"
        main(["converge", "--pvf", pvf, "--init", init, "--oracle", oracle,
              "--n-grid", "5", "--horizon", "1.0",
              "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["columns"] == ["N", "error", "slope"]
        assert doc["rows"][0][0] == 5


class TestResidual:
    def test_stationary_median_fixed_point(self, capsys, tmp_path,
                                           median_files):
        pvf, init = median_files
        assert main(["residual", "--pvf", pvf, "--init", init,
                     "--stationary"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,residual"
        # default sample grid: five fractions of the horizon
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[1]) == 0.0

    def test_explicit_times(self, capsys, median_files):
        pvf, init = median_files
        main(["residual", "--pvf", pvf, "--init", init, "--stationary",
              "--times", "0.5"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0.5"

    def test_lattice_run_residual_is_small(self, capsys, median_files):
        pvf, init = median_files
        main(["residual", "--pvf", pvf, "--init", init,
              "--n", "20", "--horizon", "1.0"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[1]) <= 10.0 / 20

    def test_sample_times_are_fractions_of_the_run_end(self, capsys,
                                                       median_files):
        # 49 steps of dt = 1/49 end at 49 * (1/49) = 0.9999999999999999,
        # which put 0.74999999999999989 and 0.99999999999999989 in the
        # grid; the run's own end time is 49 / 49 = 1.0
        pvf, init = median_files
        assert main(["residual", "--pvf", pvf, "--init", init,
                     "--n", "49", "--horizon", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            "0", "0.25", "0.5", "0.75", "1"]

    @pytest.mark.parametrize("times", ["nan,-1", "-1", "inf"])
    def test_bad_times_exit_2_with_the_json_error(self, capsys, median_files,
                                                  times):
        # without --horizon no config check sees the times; the residual
        # itself must refuse them, not print a residual of 0
        pvf, init = median_files
        assert main(["residual", "--pvf", pvf, "--init", init,
                     "--stationary", f"--times={times}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["type"], error["field"]) == ("validation", "t")

    def test_non_stationary_needs_n_and_horizon(self, capsys, median_files):
        pvf, init = median_files
        assert main(["residual", "--pvf", pvf, "--init", init]) == 2


class TestCheck:
    def test_all_transport_checks_pass(self, capsys):
        assert main(["check", "--instances", "25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "check_name,pass,margin"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.split(",")[1] == "true"

    def test_seed_changes_instances_not_verdict(self, capsys):
        assert main(["check", "--seed", "123", "--instances", "25"]) == 0
        first = capsys.readouterr().out
        assert main(["check", "--seed", "123", "--instances", "25"]) == 0
        assert capsys.readouterr().out == first


class TestParticles:
    def test_meanfield_gap_table(self, tmp_path, capsys):
        kernel = write_json(
            tmp_path / "kernel.json",
            kernel_to_dict(make_kernel("linear", rate=1.0,
                                       sublinear_c=1.25)))
        init = write_json(tmp_path / "init.json",
                          {"dim": 1, "positions": [[0.0], [2.0]]})
        assert main(["particles", "--kernel", kernel, "--init", init,
                     "--n", "24", "--horizon", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,gap"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[1]) <= 10.0 / 24

    def test_bad_particle_file(self, tmp_path, capsys):
        kernel = write_json(tmp_path / "kernel.json",
                            kernel_to_dict(make_kernel("zero")))
        init = write_json(tmp_path / "init.json", {"dim": 2})
        assert main(["particles", "--kernel", kernel, "--init", init,
                     "--n", "5", "--horizon", "1.0"]) == 2


class TestConfigPlumbing:
    def test_recipe_round_trip(self):
        config = recipe_to_config({
            "subcommand": "converge",
            "options": {"pvf": "p.json", "init": "i.json",
                        "oracle": "o.json", "n_grid": [5, 10],
                        "horizon": 1.0, "times": [0.0, 0.5]}})
        assert config.subcommand == "converge"
        assert config.n_grid == (5, 10)
        assert config.times == (0.0, 0.5)

    def test_recipe_rejects_unknown_options(self):
        for key in ("horizn", "extras", "subcommand"):
            with pytest.raises(ValidationError) as info:
                recipe_to_config({"subcommand": "solve",
                                  "options": {key: 1.0}})
            assert info.value.field == key

    @pytest.mark.parametrize("key, value", [
        ("n", "10"), ("n", 2.5), ("horizon", "1"), ("horizon", math.inf),
        ("n_grid", [10, "x"]), ("n_grid", 10), ("times", "0.5"),
        ("inputs", "ab"), ("inputs", [1]), ("plan", 1), ("pvf", 3),
    ])
    def test_recipe_options_are_typed(self, key, value):
        with pytest.raises(ValidationError) as info:
            recipe_to_config({"subcommand": "solve",
                              "options": {key: value}})
        assert info.value.field == key

    def test_recipe_numbers_take_their_option_types(self):
        config = recipe_to_config({
            "subcommand": "residual",
            "options": {"n": 10.0, "horizon": 1, "times": [0, 1]}})
        assert (config.n, config.horizon, config.times) == (10, 1.0,
                                                            (0.0, 1.0))
        assert [type(v) for v in (config.n, config.horizon, *config.times)
                ] == [int, float, float, float]

    def test_recipe_needs_subcommand(self):
        with pytest.raises(ValidationError):
            recipe_to_config({"options": {}})

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(subcommand="solve", n=0)
        with pytest.raises(ValidationError):
            RunConfig(subcommand="solve", horizon=1.0, times=(2.0,))
        with pytest.raises(ValidationError):
            RunConfig(subcommand="solve", format="xml")

    def test_unknown_subcommand(self):
        with pytest.raises(ValidationError):
            run(RunConfig(subcommand="simulate"))

    def test_f17_round_trips_doubles(self):
        for x in (1.0 / 3.0, math.pi, 0.1, 2.0 ** -52):
            assert float(f17(x)) == x


def test_installed_entry_point_subprocess(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(measure_to_dict(dirac(0.0))))
    b.write_text(json.dumps(measure_to_dict(dirac(2.0))))
    proc = subprocess.run(
        [sys.executable, "-m", "mdelab.cli", "dist", str(a), str(b)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2\n"
