import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy import special

from lef import cli, flow, geometry, nodal, radial, spectrum


def _rewrite_header(path, edit) -> None:
    """Apply ``edit`` to a dump's JSON header in place."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


class TestDumpFormat:
    @pytest.mark.parametrize("r_in", [0.0, 0.3], ids=["disk", "annulus"])
    def test_polar_round_trip(self, tmp_path, r_in):
        g = geometry.PolarGrid(24, 16, r_in=r_in)
        rng = np.random.default_rng(0)
        v = flow.ScalarField(g, rng.standard_normal(g.n_nodes))
        path = tmp_path / "f.bin"
        cli.dump_field(path, v, p=5.0)
        loaded, header = cli.load_field(path)
        assert header["p"] == 5.0
        assert header["dtype"] == "<f8"
        assert header["count"] == g.n_nodes
        assert header["grid"] == {"type": "polar", "n_r": 24, "n_theta": 16}
        assert header["domain"] == g.domain.to_config()
        assert np.array_equal(loaded.values, v.values)
        assert np.array_equal(loaded.grid.xy, g.xy)
        assert (loaded.grid.stiffness != g.stiffness).nnz == 0

    @pytest.mark.parametrize("domain", [
        geometry.squircle_mask(1.0, 4.0),
        geometry.DomainSpec.disk(1.0),
        geometry.DomainSpec.annulus(0.3, 1.0),
    ], ids=["squircle", "disk", "annulus"])
    def test_cartesian_round_trip(self, tmp_path, domain):
        g = geometry.CartesianMaskedGrid(domain, 24)
        v = flow.ScalarField(g, np.linspace(-1, 1, g.n_nodes))
        path = tmp_path / "g.bin"
        cli.dump_field(path, v, p=8.0)
        loaded, header = cli.load_field(path)
        assert header["grid"] == {"type": "cartesian", "n": 24,
                                  "extent": 1.0}
        assert header["domain"] == domain.to_config()
        assert loaded.grid.domain.to_config() == domain.to_config()
        assert np.array_equal(loaded.values, v.values)
        assert np.array_equal(loaded.grid.xy, g.xy)
        assert (loaded.grid.stiffness != g.stiffness).nnz == 0

    @pytest.mark.parametrize("domain", [
        geometry.squircle_mask(0.8, 6.0),
        geometry.DomainSpec.disk(2.0),
        geometry.DomainSpec.annulus(0.3, 1.5),
    ], ids=["squircle", "disk", "annulus"])
    def test_domain_is_its_config_section(self, domain):
        config = domain.to_config()
        assert cli._build_domain(config) == domain
        # two domains built from one config are equal, and hash alike
        assert cli._build_domain(config) == cli._build_domain(dict(config))
        assert len({cli._build_domain(config), domain}) == 1

    def test_header_is_one_json_line(self, tmp_path, disk_grid_small):
        g = disk_grid_small
        v = flow.ScalarField(g, np.zeros(g.n_nodes))
        path = tmp_path / "h.bin"
        cli.dump_field(path, v)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            payload = fh.read()
        assert len(payload) == 8 * header["count"]


def test_report_json_takes_numpy_arrays_and_scalars():
    assert json.loads(cli._json({"a": np.zeros(3), "b": np.float64(1.5)})) \
        == {"a": [0.0, 0.0, 0.0], "b": 1.5}


def test_report_json_writes_non_finite_numbers_as_null():
    def strict(name):
        raise ValueError(f"{name} is not JSON")

    obj = {"a": np.array([1.0, np.nan]), "b": np.float64(np.inf),
           "c": [(-math.inf, 2.0)], "d": {"e": math.nan, "f": 3}}
    assert json.loads(cli._json(obj), parse_constant=strict) == {
        "a": [1.0, None], "b": None, "c": [[None, 2.0]],
        "d": {"e": None, "f": 3}}


class TestConstantsCommand:
    def test_exit_zero_and_report(self, capsys):
        assert cli.main(["constants"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["4*pi*e"]["value"] == pytest.approx(4 * math.pi * math.e)
        assert rep["alpha_bar"]["value"] == pytest.approx(0.194930535,
                                                          rel=1e-6)
        assert rep["f(1/5)"]["value"] < 4.97
        assert rep["chain"]["f(alpha_bar) <= f(1/5) <= 4.97"] is True


class TestRadialCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["radial", "--p", "20,50", "--alpha", "asymptotic",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "p,alpha,pE_annulus,pE_ball,total,bound,delta"
        assert len(lines) == 3
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["p"]) == 20.0
        assert float(row["total"]) == pytest.approx(
            float(row["pE_annulus"]) + float(row["pE_ball"]), rel=1e-9)

    def test_optimal_sweep_oracle_and_one_ball_per_p(self, tmp_path,
                                                     monkeypatch):
        # pinned rows: total to 10 significant digits, alpha within the
        # optimizer's xatol 1e-5
        oracle = {20.0: ("156.8163302", 0.23237359619129289),
                  200.0: ("161.3359995", 0.20347069671477458)}
        balls = []
        solve_ball = radial.solve_ball
        monkeypatch.setattr(radial, "solve_ball",
                            lambda *a, **kw: balls.append(a) or
                            solve_ball(*a, **kw))
        out = tmp_path / "sweep.csv"
        assert cli.main(["radial", "--p", "20,200", "--alpha", "optimal",
                         "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        rows = [dict(zip(lines[0].split(","), ln.split(",")))
                for ln in lines[1:]]
        assert [float(r["p"]) for r in rows] == list(oracle)
        for row in rows:
            total, alpha = oracle[float(row["p"])]
            assert row["total"] == total
            assert abs(float(row["alpha"]) - alpha) < 1e-5
        assert len(balls) == 2

    def test_one_integration_per_shot(self, tmp_path, monkeypatch):
        # each annulus shot and each ball solve is one radial.solve_ivp call
        calls = {"solve_ivp": 0, "_shoot_annulus": 0, "solve_ball": 0}

        def counted(name):
            inner = getattr(radial, name)

            def call(*a, **kw):
                calls[name] += 1
                return inner(*a, **kw)
            monkeypatch.setattr(radial, name, call)

        for name in calls:
            counted(name)
        assert cli.main(["radial", "--p", "8", "--alpha", "optimal",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert calls["solve_ball"] == 1 and calls["_shoot_annulus"] > 0
        assert calls["solve_ivp"] == (calls["_shoot_annulus"]
                                      + calls["solve_ball"])

    def test_optimal_row_solves_no_profile_again(self, tmp_path,
                                                 monkeypatch):
        optimal_alpha = radial.optimal_alpha

        def then_no_solves(p):
            choice = optimal_alpha(p)
            for name in ("solve_annulus", "solve_ball", "solve_ivp"):
                monkeypatch.setattr(radial, name, None)  # calling raises
            return choice

        monkeypatch.setattr(radial, "optimal_alpha", then_no_solves)
        assert cli.main(["radial", "--p", "8", "--alpha", "optimal",
                         "--out", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--p", "abc"], "p must be a number in (1, inf), got 'abc'"),
        (["--p", "1.0"], "p must be a number in (1, inf), got '1.0'"),
        (["--p", "20", "--alpha", "-1"],
         "alpha must be a number > 0, 'optimal' or 'asymptotic', got '-1'"),
        (["--p", "20,1000", "--alpha", "0.8"],
         "alpha*p = 800 at p = 1000: the ball radius e^(-alpha*p) must lie "
         "in (0, 1) and e^(alpha*p) be a finite float"),
        (["--p", "8", "--alpha", "1e-300"],
         "alpha*p = 8e-300 at p = 8: the ball radius e^(-alpha*p) must lie "
         "in (0, 1)"),
    ], ids=["p-not-a-number", "p-one", "alpha-negative", "alpha-p-guard",
            "ball-radius-rounds-to-1"])
    def test_bad_arguments_exit_2_before_any_shot(self, tmp_path, capsys,
                                                  monkeypatch, argv,
                                                  message):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        rc = cli.main(["radial", *argv, "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef radial: ") and message in err[0]
        assert shots == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_optimal_alpha_past_p_600(self, tmp_path):
        # the alpha search stays inside the float range at p = 1000
        out = tmp_path / "s.csv"
        assert cli.main(["radial", "--p", "1000", "--alpha", "optimal",
                         "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) == 2
        delta = float(rows[1].split(",")[-1])
        assert math.isfinite(delta) and 0.96 < delta < 0.98

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alpha_inside_the_float_rule_runs_to_the_radial_stage(
            self, tmp_path, capsys):
        # e^(700) is a float, so alpha = 0.7 at p = 1000 passes the
        # argument check; the energy of the annulus on (e^(-700), 1) then
        # passes the float range, a radial-stage exit 3
        out = tmp_path / "s.csv"
        assert cli.main(["radial", "--p", "1000", "--alpha", "0.7",
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef radial: radial stage: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", ["1500", "2500"])
    def test_budget_past_the_float_range_exits_3(self, tmp_path, capsys, p):
        # the ball's |u|^(p+1) and u_r^2 pass the float range: no csv
        # with a row of nan is written
        out = tmp_path / "s.csv"
        rc = cli.main(["radial", "--p", p, "--alpha", "0.2", "--out",
                       str(out)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef radial: radial stage: ")
        assert "float range" in err[0]
        assert not out.exists()


def _ball_flow_config(tmp_path, **extra):
    config = {
        "p": 5.0,
        "domain": {"type": "disk", "radius": 1.0},
        "grid": {"type": "polar", "n_r": 32, "n_theta": 16},
        "initial": {"type": "ball", "scale": 0.5},
        "flow": {"t_max": 30.0},
        "outdir": str(tmp_path / "out"),
        **extra,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    return cfg_path


class TestFlowCommand:
    def test_decay_run_outputs(self, tmp_path, capsys):
        cfg_path = _ball_flow_config(tmp_path)
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "out" / "flow_report.json").read_text())
        assert rep["classification"] == "DecayToZero"
        assert rep["energy_overflow"] is False
        csv_lines = (tmp_path / "out" / "trajectory.csv").read_text(
            encoding="utf-8").strip().splitlines()
        assert csv_lines[0] == "t,energy,sup"
        assert len(csv_lines) == rep["steps"] + 2
        assert (tmp_path / "out" / "final.bin").exists()

    def test_ball_datum_resolves_no_alpha(self, tmp_path, monkeypatch):
        # only the scaled-ball datum needs alpha and its annulus solves
        solves = []
        solve_annulus = radial.solve_annulus

        def counted(*args, **kwargs):
            solves.append(args)
            return solve_annulus(*args, **kwargs)

        monkeypatch.setattr(radial, "solve_annulus", counted)
        cfg_path = _ball_flow_config(tmp_path)
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        assert solves == []

    def test_scaled_ball_with_numeric_alpha_solves_no_annulus(
            self, tmp_path, monkeypatch):
        def no_annulus(*args, **kwargs):
            raise AssertionError("annulus solved for a scaled-ball datum")

        monkeypatch.setattr(radial, "solve_annulus", no_annulus)
        cfg_path = _ball_flow_config(
            tmp_path, alpha=0.25,
            initial={"type": "scaled-ball", "scale": 0.5})
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0

    def test_report_counts_energy_defects(self, tmp_path):
        cfg_path = _ball_flow_config(tmp_path)
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "out" / "flow_report.json").read_text())
        assert rep["energy_defects"] == 0

    def test_group_run_is_the_invariant_full_grid_flow(self, tmp_path):
        # a datum that is not C4-invariant is put on the orbit grid once;
        # the full-grid flow of its C4 average is the oracle, nodal samples
        # included
        g, G = geometry.PolarGrid(32, 16), geometry.cyclic(4)
        r, th = np.hypot(*g.xy.T), np.arctan2(g.xy[:, 1], g.xy[:, 0])
        datum = flow.ScalarField(g, 6.0 * np.cos(np.pi * r) * np.cos(4 * th)
                                 * (1.0 + 0.3 * np.cos(4 * th)
                                    + 0.2 * np.sin(th)))
        cli.dump_field(tmp_path / "datum.bin", datum)
        cfg_path = _ball_flow_config(
            tmp_path, p=3.0, group={"kind": "cyclic", "order": 4},
            initial={"type": "dump", "path": str(tmp_path / "datum.bin")},
            flow={"t_max": 2.0, "record_nodal_every": 10})
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "out" / "flow_report.json").read_text())
        final, header = cli.load_field(tmp_path / "out" / "final.bin")
        assert header["grid"] == g.to_config() and header["p"] == 3.0

        oracle = flow.evolve(
            flow.ScalarField(g, g.symmetrize(datum.values, G)), 3.0,
            flow.FlowConfig(t_max=2.0, record_nodal_every=10))
        assert rep["classification"] == oracle.classification.value
        assert rep["steps"] == len(oracle.dts) > 10
        assert rep["t_final"] == pytest.approx(oracle.t_final, rel=1e-14)
        assert [count for _, count in rep["nodal_counts"]] == [
            count for _, count in oracle.nodal_counts]
        assert max(count for _, count in rep["nodal_counts"]) > 2
        assert rep["energy_final"] == pytest.approx(oracle.energies[-1],
                                                    rel=1e-10)
        assert g.symmetry_defect(final.values, G) == 0.0
        assert np.max(np.abs(final.values - oracle.final.values)) <= (
            1e-10 * oracle.final.sup)

    def test_overflowing_step_rate_is_a_blowup(self, tmp_path):
        # sup^(p-1) passes the float range: the step size underflows at
        # t = 0
        cfg_path = _ball_flow_config(
            tmp_path, initial={"type": "ball", "scale": 1e300})
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0

        def strict(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads((tmp_path / "out" / "flow_report.json").read_text(),
                         parse_constant=strict)
        assert rep["classification"] == "Blowup"
        assert rep["steps"] == 0 and rep["t_final"] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_energy_past_the_float_range_is_null_without_warnings(
            self, tmp_path):
        # the norms of a datum of sup 1e300 pass the float range: the
        # energies are written null and labelled, with no numpy warning
        config = {"p": 5.0, "grid": {"type": "polar", "n_r": 16, "n_theta": 8},
                  "initial": {"type": "ball", "scale": 1e300},
                  "flow": {"t_max": 0.5}, "outdir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "out" / "flow_report.json").read_text())
        assert rep["energy_initial"] is None and rep["energy_final"] is None
        assert rep["energy_overflow"] is True
        assert rep["final_residual"] is None
        assert rep["classification"] == "Blowup"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_squircle_whose_radius_power_passes_the_float_range(
            self, tmp_path, capsys):
        # 2.0 ** 2000 passes the float range; the mask compares
        # (|x|/R)^q + (|y|/R)^q < 1 and the run ends in a report
        config = {"p": 5.0, "grid": {"type": "cartesian", "n": 16},
                  "domain": {"type": "squircle", "radius": 2.0,
                             "power": 2000},
                  "outdir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "flow_report.json").exists()

    @pytest.mark.parametrize("initial, message", [
        ({"type": "hexagon"}, "unknown initial datum type 'hexagon'"),
        ({"type": "annulus", "a": 1.2},
         "initial annulus needs numbers 0 < a < b, got a = 1.2, b = 1.0"),
    ], ids=["unknown-type", "annulus-a-above-b"])
    def test_bad_initial_datum_exits_2_before_any_shot(
            self, tmp_path, capsys, monkeypatch, initial, message):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        config = {"p": 5.0,
                  "grid": {"type": "polar", "n_r": 16, "n_theta": 8},
                  "initial": initial, "outdir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["flow", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef flow: ") and message in err[0]
        assert shots == []


class TestDumpDatum:
    def _dump(self, tmp_path, grid):
        path = tmp_path / "v.bin"
        v = flow.field_from_radial(grid, radial.solve_ball(5.0)).scaled(0.5)
        cli.dump_field(path, v, p=5.0)
        return path

    def test_runs_on_the_config_grid(self, tmp_path, monkeypatch):
        path = self._dump(tmp_path, geometry.PolarGrid(32, 16))
        built, evolved = [], []
        build_grid, evolve = cli._build_grid, flow.evolve
        monkeypatch.setattr(cli, "_build_grid", lambda *a: (
            built.append(build_grid(*a)), built[-1])[1])
        monkeypatch.setattr(flow, "evolve", lambda v0, *a, **kw: (
            evolved.append(v0.grid), evolve(v0, *a, **kw))[1])
        cfg_path = _ball_flow_config(
            tmp_path, initial={"type": "dump", "path": str(path)})
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "out" / "flow_report.json").read_text())
        assert rep["classification"] == "DecayToZero"
        assert rep["energy_overflow"] is False
        # the config's grid, built first; the dump's grid only checks it
        assert len(built) == 2 and evolved == [built[0]]

    @pytest.mark.parametrize("grid, initial, message", [
        (geometry.PolarGrid(24, 16), None,
         "the dump's grid {'type': 'polar', 'n_r': 24"),
        (geometry.PolarGrid(32, 16, r_in=0.3), None,
         "on {'type': 'annulus'"),
        (geometry.PolarGrid(32, 16), {"type": "dump"},
         "initial dump needs a 'path'"),
    ], ids=["other-grid", "other-domain", "no-path"])
    def test_other_grid_exits_2(self, tmp_path, capsys, grid, initial,
                                message):
        path = self._dump(tmp_path, grid)
        cfg_path = _ball_flow_config(
            tmp_path, initial=initial or {"type": "dump", "path": str(path)})
        assert cli.main(["flow", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef flow: ") and message in err[0]
        assert not (tmp_path / "out" / "flow_report.json").exists()


@pytest.fixture(scope="module")
def polished_ball():
    g = geometry.PolarGrid(48, 16)
    v = flow.field_from_radial(g, radial.solve_ball(5.0))
    u, res = spectrum.newton_polish(v, 5.0)
    assert res < 1e-10
    return u


@pytest.fixture(scope="module")
def polished_dipole():
    # a two-domain steady state at p = 2 whose nodal diameter passes
    # between node rays: not symmetric about the x2-axis
    g = geometry.PolarGrid(32, 16)
    r = np.hypot(g.xy[:, 0], g.xy[:, 1])
    th = np.arctan2(g.xy[:, 1], g.xy[:, 0])
    phi = special.j1(3.8317 * r) * np.cos(th + g.dtheta / 2.0)
    u, res = spectrum.newton_polish(
        flow.ScalarField(g, 7.0 * phi / np.max(np.abs(phi))), 2.0)
    assert res < 1e-10
    assert nodal.decompose(u).n_domains == 2
    return u


class TestSpectrumCommand:
    def test_morse_report_from_dump(self, tmp_path, capsys, polished_ball):
        path = tmp_path / "ball.bin"
        cli.dump_field(path, polished_ball, p=5.0)
        rc = cli.main(["spectrum", "--field", str(path),
                       "--group", "cyclic:4", "--k", "8"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["morse_index"] == 1
        assert out["symmetric_morse_index"] == 1
        assert out["odd_extension_residual"] < 1e-6
        assert len(out["eigenvalues"]) == 8

    def test_cartesian_dump_reports_half_domain_mu(self, tmp_path, capsys):
        g = geometry.CartesianMaskedGrid(geometry.DomainSpec.disk(1.0), 32)
        u, res = spectrum.newton_polish(
            flow.field_from_radial(g, radial.solve_ball(5.0)), 5.0)
        assert res < 1e-10
        path = tmp_path / "ball.bin"
        cli.dump_field(path, u, p=5.0)
        assert cli.main(["spectrum", "--field", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["morse_index"] == 1
        assert out["half_domain_mu"] > 0.0  # the ball's Morse index is 1
        assert out["odd_extension_residual"] < 1e-6

    @pytest.mark.parametrize("roll", [0, 1], ids=["dipole", "rolled"])
    def test_axis_asymmetric_dump_reports_null_half_domain_mu(
            self, tmp_path, capsys, polished_dipole, roll):
        # a steady state not symmetric about the x2-axis keeps its Morse
        # record; the half-domain figures are null
        g = polished_dipole.grid
        values = np.roll(polished_dipole.values.reshape(g.n_r, g.n_theta),
                         roll, axis=1).ravel()
        path = tmp_path / "dipole.bin"
        cli.dump_field(path, flow.ScalarField(g, values), p=2.0)
        assert cli.main(["spectrum", "--field", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["morse_index"] >= 1
        assert out["half_domain_mu"] is None
        assert out["odd_extension_residual"] is None

    def test_eigensolve_failure_exits_3(self, tmp_path, capsys, monkeypatch,
                                        polished_ball):
        def fail(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                           np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", fail)
        path = tmp_path / "ball.bin"
        cli.dump_field(path, polished_ball, p=5.0)
        assert cli.main(["spectrum", "--field", str(path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef spectrum: spectrum stage:")

    def test_k_below_one_exits_2(self, tmp_path, capsys, polished_ball):
        path = tmp_path / "ball.bin"
        cli.dump_field(path, polished_ball, p=5.0)
        assert cli.main(["spectrum", "--field", str(path), "--k", "0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["lef spectrum: --k must be >= 1, got 0"]

    @pytest.mark.parametrize("argv, message", [
        (["--group", "cyclic"], "group order must be an integer >= 1, "
                                "got ''"),
        (["--group", "cyclic:x"], "group order must be an integer >= 1, "
                                  "got 'x'"),
        (["--group", "cyclic:5"], "does not realize the group cyclic:5"),
        (["--p", "abc"], "p must be a number in (1, inf), got 'abc'"),
        (["--p", "1"], "p must be a number in (1, inf), got '1'"),
    ], ids=["group-without-order", "group-order-not-a-number",
            "group-not-realized", "p-not-a-number", "p-one"])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, polished_ball,
                                  argv, message):
        path = tmp_path / "ball.bin"
        cli.dump_field(path, polished_ball, p=5.0)
        assert cli.main(["spectrum", "--field", str(path), *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef spectrum: ") and message in err[0]

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("grid"), "dump header has no key 'grid'"),
        (lambda h: h.pop("domain"), "dump header has no key 'domain'"),
        (lambda h: h["grid"].pop("n_r"), "dump header has no key 'n_r'"),
        (lambda h: h.pop("count"), "dump header has no key 'count'"),
        (lambda h: h["grid"].update(n_r=24), "grid of 384 nodes"),
        (lambda h: h.update(count=10), "header count 10"),
        (lambda h: h.update(p="x"), "p must be a number in (1, inf), "
                                    "got 'x'"),
        (lambda h: h.update(p=0.5), "p must be a number in (1, inf), "
                                    "got 0.5"),
        (lambda h: h.pop("p"), "p not in dump header; pass --p"),
    ], ids=["no-grid", "no-domain", "no-n_r", "no-count", "grid-not-count",
            "count-not-values", "p-not-a-number", "p-below-one", "no-p"])
    def test_bad_header_exits_2(self, tmp_path, capsys, polished_ball, edit,
                                message):
        path = tmp_path / "ball.bin"
        cli.dump_field(path, polished_ball, p=5.0)
        _rewrite_header(path, edit)
        assert cli.main(["spectrum", "--field", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef spectrum: ") and message in err[0]

    def test_non_steady_dump_exits_4(self, tmp_path, capsys, polished_ball):
        path = tmp_path / "scaled.bin"
        cli.dump_field(path, polished_ball.scaled(1.5), p=5.0)
        assert cli.main(["spectrum", "--field", str(path)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "not a converged steady state" in err[0]


class TestAlphaResolution:
    def test_asymptotic_and_numeric(self):
        from lef import energy
        assert cli._resolve_alpha("asymptotic", 8.0).alpha == pytest.approx(
            energy.minimize_f().alpha_bar)
        assert cli._resolve_alpha(0.25, 8.0).alpha == 0.25
        assert cli._resolve_alpha("0.25", 8.0).alpha == 0.25

    def test_optimal_is_per_p(self):
        a8 = cli._resolve_alpha("optimal", 8.0).alpha
        assert 0.2 < a8 < 0.4


class TestPipelineAdmissibility:
    def test_inadmissible_group_exits_2(self, tmp_path):
        config = {
            "p": 8.0,
            "domain": {"type": "disk", "radius": 1.0},
            "grid": {"type": "polar", "n_r": 16, "n_theta": 16},
            "group": {"kind": "cyclic", "order": 2},
            "outdir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 2


class TestConfigValidation:
    def test_unknown_flow_key_exits_2_before_any_work(self, tmp_path, capsys,
                                                      monkeypatch):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        for key in ("project_every", "dt_min"):
            config = {"p": 8.0, "flow": {key: 10},
                      "outdir": str(tmp_path / "out")}
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            assert cli.main(["pipeline", "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert f"'{key}'" in err[0] and "t_max" in err[0]
        assert shots == []

    @pytest.mark.parametrize("key, value", [
        ("grid", {"type": "hex", "n": 16}),
        ("domain", {"type": "ellipse"}),
        ("group", {"kind": "tetrahedral", "order": 12}),
        ("domain", {"type": "annulus", "a": 1.2}),
        ("domain", {"type": "disk", "radius": 0.0}),
        ("domain", {"type": "squircle", "radius": -1.0}),
        ("domain", {"type": "squircle", "power": "x"}),
        ("domain", {"type": "squircle", "power": 0.0}),
    ])
    @pytest.mark.parametrize("command", ["flow", "pipeline"])
    def test_unknown_type_exits_2_before_any_work(self, tmp_path, capsys,
                                                  monkeypatch, command, key,
                                                  value):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        # on both grid kinds (a "grid" case replaces the grid)
        for grid in ({"type": "polar", "n_r": 16, "n_theta": 8},
                     {"type": "cartesian", "n": 16}):
            config = {"p": 8.0, "grid": grid, key: value,
                      "outdir": str(tmp_path / "out")}
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            assert cli.main([command, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert repr(value.get("type", value.get("kind"))) in err[0]
        assert shots == []

    @pytest.mark.parametrize("extra, message", [
        ({"grid": {"type": "polar", "n_r": 16, "n_theta": 8},
          "group": {"kind": "cyclic", "order": 6}},
         "does not realize the group cyclic:6"),
        ({"grid": {"type": "cartesian", "n": 16},
          "group": {"kind": "cyclic", "order": 8}},
         "does not realize the group cyclic:8"),
        ({"grid": {"type": "polar", "n_r": 16, "n_theta": 8},
          "domain": {"type": "squircle"}},
         "polar grid needs a disk or annulus domain, got 'squircle'"),
        ({"group": {"kind": "cyclic", "order": "4"}},
         "group order must be an integer >= 1, got '4'"),
        ({"group": {"kind": "dihedral", "order": 0}},
         "group order must be an integer >= 1, got 0"),
        ({"group": {"kind": "dihedral", "order": 4, "axis_angle": "x"}},
         "group axis_angle must be a number in (-inf, inf), got 'x'"),
        ({"grid": {"type": "polar", "n_r": 1, "n_theta": 8}},
         "grid n_r must be an integer >= 2, got 1"),
        ({"grid": {"type": "cartesian", "n": 16, "extent": "x"}},
         "grid extent must be a number in (1e-100, 1e+100), got 'x'"),
    ], ids=["c6-on-polar-8", "c8-on-cartesian", "squircle-on-polar",
            "order-string", "order-zero", "axis-angle-string", "n_r-one",
            "extent-string"])
    @pytest.mark.parametrize("command", ["flow", "pipeline"])
    def test_group_and_grid_exit_2_before_any_shot(self, tmp_path, capsys,
                                                   monkeypatch, command,
                                                   extra, message):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        config = {"p": 8.0, "grid": {"type": "polar", "n_r": 16,
                                     "n_theta": 8},
                  "outdir": str(tmp_path / "out"), **extra}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"lef {command}: ") and message in err[0]
        assert shots == []

    def test_pipeline_without_group_is_inadmissible(self, tmp_path, capsys,
                                                    monkeypatch):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        config = {"p": 8.0, "group": None,
                  "grid": {"type": "polar", "n_r": 16, "n_theta": 8},
                  "outdir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["admissible"] is False
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "the group None is not admissible" in err[0]
        assert shots == []

    @pytest.mark.parametrize("scan", [{"refine": 30}, {"ratio": [0.5]}],
                             ids=["refine", "ratio"])
    def test_unknown_scan_key_exits_2_before_any_work(self, tmp_path, capsys,
                                                      monkeypatch, scan):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        config = {"p": 8.0, "scan": scan, "outdir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"lef pipeline: unknown scan config key "
                       f"{next(iter(scan))!r}; allowed: ratios"]
        assert shots == []

    @pytest.mark.parametrize("ratios, message", [
        (["a"], "scan ratios entry must be a number in (-inf, inf), "
                "got 'a'"),
        (5, "scan ratios must be a nonempty list of angles, got 5"),
        ([None], "scan ratios entry must be a number in (-inf, inf), "
                 "got None"),
        ([0.5, True], "scan ratios entry must be a number in (-inf, inf), "
                      "got True"),
        ([1e400], "scan ratios entry must be a number in (-inf, inf), "
                  "got inf"),
        ([], "scan ratios must be a nonempty list of angles, got []"),
    ], ids=["string", "number", "null", "boolean", "overflow", "empty"])
    def test_bad_scan_ratios_exit_2_before_any_work(self, tmp_path, capsys,
                                                    monkeypatch, ratios,
                                                    message):
        shots = []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        config = {"p": 8.0, "scan": {"ratios": ratios},
                  "grid": {"type": "polar", "n_r": 16, "n_theta": 8},
                  "outdir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"lef pipeline: {message}"]
        assert shots == []

    @pytest.mark.parametrize("key, value, message", [
        *[(key, value, f"flow {key} must be a number in (0, inf), "
                       f"got {value!r}")
          for key in ("dt_max", "c_stab", "t_max", "residual_tol")
          for value in ("x", True, 0, -1.0, math.inf, math.nan)],
        *[("decay_factor", value, f"flow decay_factor must be a number in "
                                  f"(0, 1), got {value!r}")
          for value in ("x", False, 0.0, 1, 1.5, -1e-6)],
        *[("record_nodal_every", value, f"flow record_nodal_every must be "
                                        f"an integer >= 0, got {value!r}")
          for value in ("5", True, -1, 2.5)],
    ])
    @pytest.mark.parametrize("command", ["flow", "pipeline"])
    def test_bad_flow_value_exits_2_before_any_work(self, tmp_path, capsys,
                                                    monkeypatch, command,
                                                    key, value, message):
        shots, runs = [], []
        monkeypatch.setattr(radial, "solve_ivp",
                            lambda *a, **kw: shots.append(a))
        monkeypatch.setattr(flow, "evolve", lambda *a, **kw: runs.append(a))
        config = {"p": 8.0, "flow": {key: value},
                  "grid": {"type": "polar", "n_r": 16, "n_theta": 8},
                  "outdir": str(tmp_path / "out")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"lef {command}: {message}"]
        assert shots == [] and runs == []

    def test_flow_values_in_range_are_accepted(self):
        cfg = cli._flow_config({"dt_max": 1, "c_stab": 0.5, "t_max": 7,
                                "residual_tol": 1e-8, "decay_factor": 0.5,
                                "record_nodal_every": 0})
        assert cfg == flow.FlowConfig(dt_max=1.0, c_stab=0.5, t_max=7.0,
                                      residual_tol=1e-8, decay_factor=0.5,
                                      record_nodal_every=0)

    @pytest.mark.parametrize("config, key", [
        ({}, "p"),
        ({"p": 8.0, "grid": {"type": "polar", "n_theta": 16}}, "n_r"),
    ])
    def test_missing_key_exits_2(self, tmp_path, capsys, config, key):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"lef pipeline: missing config key {key!r}"]

    @pytest.mark.parametrize("text, message", [
        (None, "not a readable JSON config"),
        ('{"p": 8.0,', "not a readable JSON config"),
        ("[1, 2]", "a config is a JSON object, got list"),
        ('{"p": 8.0, "grid": 5}', "section 'grid' must be a JSON object"),
        ('{"p": 8.0, "domain": "disk"}',
         "section 'domain' must be a JSON object"),
        ('{"p": 8.0, "group": "cyclic:4"}',
         "section 'group' must be a JSON object"),
    ], ids=["missing-file", "not-json", "top-level-list", "grid-number",
            "domain-string", "group-string"])
    @pytest.mark.parametrize("command", ["flow", "pipeline"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command,
                                       text, message):
        cfg_path = tmp_path / "run.json"
        if text is not None:
            cfg_path.write_text(text, encoding="utf-8")
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"lef {command}: ") and message in err[0]

    @pytest.mark.parametrize("p", [1.0, "abc"])
    def test_bad_exponent_exits_2(self, tmp_path, capsys, p):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"p": p}), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"lef pipeline: p must be a number in (1, inf), "
                       f"got {p!r}"]


def _tiny_argv(tmp_path, argv, extra):
    """argv, with a config on polar 16x8 made of ``extra`` if given."""
    if extra is None:
        return argv
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(dict(
        extra, grid={"type": "polar", "n_r": 16, "n_theta": 8},
        outdir=str(tmp_path / "out"))), encoding="utf-8")
    return argv + ["--config", str(cfg_path)]


def _audit_on(tmp_path, capsys, monkeypatch, transform):
    """A small C4 pipeline whose audit decomposes transform(candidate);
    returns its exit code, stderr lines and report."""
    decompose = nodal.decompose
    monkeypatch.setattr(nodal, "decompose",
                        lambda v: decompose(transform(v)))
    config = {
        "p": 8.0, "alpha": 0.28,
        "grid": {"type": "polar", "n_r": 24, "n_theta": 16},
        "group": {"kind": "cyclic", "order": 4},
        "outdir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    rc = cli.main(["pipeline", "--config", str(cfg_path)])
    err = capsys.readouterr().err.strip().splitlines()
    rep = json.loads((tmp_path / "out" / "pipeline_report.json")
                     .read_text(encoding="utf-8"))
    return rc, err, rep


class TestLabelledFailures:
    def test_annulus_hole_swallowing_the_ball_exits_3(self, tmp_path,
                                                      capsys):
        # alpha = 0.44 puts the ball radius e^{-alpha p} at 0.11 < a = 0.3
        config = {
            "p": 5.0, "alpha": 0.44,
            "domain": {"type": "annulus", "a": 0.3},
            "grid": {"type": "polar", "n_r": 24, "n_theta": 16},
            "group": {"kind": "cyclic", "order": 4},
            "outdir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "profiles stage" in err[0]
        rep = json.loads((tmp_path / "out" / "pipeline_report.json")
                         .read_text(encoding="utf-8"))
        failure = rep["failure"]
        assert failure["stage"] == "profiles"
        assert failure["ball_radius"] == pytest.approx(math.exp(-2.2))
        assert failure["domain_radii"] == [0.3, 1.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_budget_past_the_float_range_exits_3_at_the_radial_stage(
            self, tmp_path, capsys):
        config = {
            "p": 1500.0, "alpha": 0.2,
            "grid": {"type": "polar", "n_r": 16, "n_theta": 8},
            "group": {"kind": "cyclic", "order": 4},
            "outdir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef pipeline: radial stage: ")
        assert "float range" in err[0]

    def test_scan_without_candidate_exits_3_with_report(self, tmp_path,
                                                        capsys):
        # one ray gives no sign-changing candidate and no flip to refine
        config = {
            "p": 8.0,
            "grid": {"type": "polar", "n_r": 24, "n_theta": 16},
            "group": {"kind": "cyclic", "order": 4},
            "scan": {"ratios": [0.1]},
            "outdir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "scan stage" in err[0]
        rep = json.loads((tmp_path / "out" / "pipeline_report.json")
                         .read_text(encoding="utf-8"))
        assert rep["failure"] == {"stage": "scan", "n_rays": 1}
        assert rep["scan"]["success"] is False

    def test_eigensolve_failure_exits_3_with_report(self, tmp_path, capsys,
                                                    monkeypatch):
        def fail(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                           np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", fail)
        config = {
            "p": 8.0, "alpha": 0.28,
            "grid": {"type": "polar", "n_r": 24, "n_theta": 16},
            "group": {"kind": "cyclic", "order": 4},
            "outdir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("lef pipeline: spectrum stage:")
        rep = json.loads((tmp_path / "out" / "pipeline_report.json")
                         .read_text(encoding="utf-8"))
        assert rep["failure"]["stage"] == "spectrum"
        assert "morse" not in rep

    def test_three_nodal_domains_exit_4_naming_the_check(
            self, tmp_path, capsys, monkeypatch):
        # the candidate is audited on the nodal domains of a +/-/+ field
        # with nodal circles at r = 0.2 and 0.6
        def three_domains(v):
            r = np.hypot(v.grid.xy[:, 0], v.grid.xy[:, 1])
            return flow.ScalarField(v.grid, np.cos(2.5 * np.pi * r))

        rc, err, rep = _audit_on(tmp_path, capsys, monkeypatch,
                                 three_domains)
        assert rc == 4
        assert len(err) == 1
        assert err[0].startswith("lef pipeline: audit stage:")
        assert "nodal count" in err[0]
        assert rep["audit"]["nodal_count"] == 3
        assert rep["failure"] == {"stage": "audit", "failed": ["nodal count"]}
        assert [name for name, _ in rep["energy_ledger"]["stages"]] == [
            "v0", "candidate"]

    def test_nodal_line_across_edges_to_the_boundary_exits_4(
            self, tmp_path, capsys, monkeypatch):
        # the candidate is audited on its product with the sign of
        # cos(theta + dtheta/2): a nodal diameter between node rays, with
        # no zero-band node on it, reaches the boundary
        def split_by_diameter(v):
            th = np.arctan2(v.grid.xy[:, 1], v.grid.xy[:, 0])
            sign = np.sign(np.cos(th + v.grid.dtheta / 2.0))
            return flow.ScalarField(v.grid, v.values * sign)

        rc, err, rep = _audit_on(tmp_path, capsys, monkeypatch,
                                 split_by_diameter)
        assert rc == 4
        assert len(err) == 1
        assert err[0].startswith("lef pipeline: audit stage:")
        assert rep["audit"]["boundary_contact"] is True
        assert rep["failure"]["stage"] == "audit"
        assert "boundary contact" in rep["failure"]["failed"]

    @pytest.mark.parametrize("argv, extra", [
        (["radial", "--p", "1.0001"], None),
        (["radial", "--p", "1.003"], None),
        (["flow"], {"p": 1.0001}),
        (["flow"], {"p": 1.003}),
        (["flow"], {"p": 1.01, "alpha": 5,
                    "initial": {"type": "scaled-ball"}}),
    ], ids=["radial-p-near-1", "radial-p-1.003", "flow-ball-p-near-1",
            "flow-ball-p-1.003", "flow-scaled-ball-alpha-5"])
    def test_amplitude_past_the_float_range_exits_3(self, tmp_path, capsys,
                                                   argv, extra):
        # the rescaled amplitude lambda^(2/(p-1)) of the ball, or its
        # square in the energy, overflows
        assert cli.main(_tiny_argv(tmp_path, argv, extra)) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"lef {argv[0]}: radial stage: the "
                                 f"rescaled amplitude")
        assert "passes the float range" in err[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, extra", [
        (["radial", "--p", "3000", "--alpha", "0.1"], None),
        (["flow"], {"p": 3000}),
        (["flow"], {"p": 2 ** 63}),
    ], ids=["radial-p-3000", "flow-ball-p-3000", "flow-ball-p-2^63"])
    def test_ball_zero_past_the_float_range_exits_3(self, tmp_path, capsys,
                                                    argv, extra):
        # the unit-amplitude ball solution's first zero exp(t_zero) passes
        # the float range from p = 2849 on
        assert cli.main(_tiny_argv(tmp_path, argv, extra)) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"lef {argv[0]}: radial stage: the first "
                                 f"zero")
        assert "passes the float range" in err[0]

    def test_radial_solve_error_exits_3(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(radial, "ENDPOINT_TOL", 0.0)
        rc = cli.main(["radial", "--p", "5", "--alpha", "0.2",
                       "--out", str(tmp_path / "sweep.csv")])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("lef radial: radial stage")


_POLAR_C4 = {"grid": {"type": "polar", "n_r": 32, "n_theta": 16},
             "group": {"kind": "cyclic", "order": 4}}
_SQUIRCLE_D4 = {"domain": {"type": "squircle", "radius": 1.0, "power": 4.0},
                "grid": {"type": "cartesian", "n": 24},
                "group": {"kind": "dihedral", "order": 4}}


class TestScenarioMatrix:
    """The edge-tracking scenarios on small grids, default fan and t_max:
    every row ends in a labelled exit, never in a traceback."""

    @pytest.mark.parametrize("p, spec", [
        (5.0, dict(_POLAR_C4, domain={"type": "disk"})),
        (8.0, dict(_POLAR_C4, domain={"type": "disk"})),
        (16.0, dict(_POLAR_C4, domain={"type": "disk"})),
        (5.0, _SQUIRCLE_D4),
        (8.0, _SQUIRCLE_D4),
        (8.0, dict(_POLAR_C4, domain={"type": "annulus", "a": 0.05})),
        (8.0, dict(_POLAR_C4, domain={"type": "annulus", "a": 0.3})),
    ], ids=["disk-p5", "disk-p8", "disk-p16", "squircle-p5", "squircle-p8",
            "annulus-0.05", "annulus-0.3"])
    def test_row_ends_in_a_labelled_exit(self, tmp_path, capsys, p, spec):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(spec, p=p,
                                            outdir=str(tmp_path / "out"))),
                            encoding="utf-8")
        rc = cli.main(["pipeline", "--config", str(cfg_path)])
        assert rc in (0, 3, 4)
        report = json.loads((tmp_path / "out" / "pipeline_report.json")
                            .read_text(encoding="utf-8"))
        if rc in (3, 4):
            err = capsys.readouterr().err.strip().splitlines()
            stage = report["failure"]["stage"]
            assert len(err) == 1 and f"{stage} stage" in err[0]
        else:
            assert "failure" not in report
            assert set(report["candidate"]) == {"theta", "source",
                                                "residual"}
        if "morse" in report:
            # lambda_1 is found on the orbit grid: the full grid's is equal
            candidate, _ = cli.load_field(tmp_path / "out" / "candidate.bin")
            lam1, _ = spectrum.lowest_eigenpair(
                spectrum.assemble_linearized(candidate, p),
                candidate.grid.weights)
            assert report["morse"]["lambda_1"] == pytest.approx(lam1,
                                                                rel=1e-10)
