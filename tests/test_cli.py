"""Command-line interface: argument handling, file outputs, validate suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latres
from latres.cli import build_parser, main
from latres.resonance import peak_dip_curves

ERROR_SCHEMA = Path(__file__).resolve().parent.parent / "docs/schemas/error.json"


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _loads(text):
    """JSON as the CLI must write it: NaN and +-Infinity are refused."""
    return json.loads(text, parse_constant=_no_constant)


@pytest.fixture()
def config1(tmp_path, fixture1):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(fixture1.to_dict()))
    return str(path)


@pytest.fixture()
def config_decoupled(tmp_path, decoupled):
    path = tmp_path / "decoupled.json"
    path.write_text(json.dumps(decoupled.to_dict()))
    return str(path)


def _read_csv(path):
    lines = open(path).read().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _error_doc(capsys):
    """The last stderr line, validated against the error.json schema."""
    jsonschema = pytest.importorskip("jsonschema")
    err = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    jsonschema.validate(err, json.loads(ERROR_SCHEMA.read_text()))
    return err


def test_missing_config_exits(capsys):
    assert main(["bands", "--kappa-grid=0,0.5,3"]) == 2
    assert _error_doc(capsys) == {
        "error": "ValueError",
        "message": "a --config JSON file with the structure is required"}


SEARCH_REFUSED = ("the mode search needs kappa_min < kappa_max, omega_min < "
                  "omega_max and density >= 2, got window ({}) and density "
                  "{}")


@pytest.mark.parametrize("gammas, window, argv, message", [
    ([1.0, 1.0], "0.0,0.3,0.7,1.2", [], "no guided mode found in the window"),
    ([1.0, 7.0], "0.02,0.11,0.93,1.02", ["--mode-index=5"],
     "mode index 5 out of range (1 found)"),
    ([1.0, 7.0], "0.02,0.11,0.93,1.02", ["--mode-index=-1"],
     "mode index -1 out of range (1 found)"),
    ([1.0, 7.0], "0.11,0.02,0.93,1.02", [],
     SEARCH_REFUSED.format("0.11, 0.02, 0.93, 1.02", 60)),
    ([1.0, 7.0], "0.02,0.11,1.02,0.93", [],
     SEARCH_REFUSED.format("0.02, 0.11, 1.02, 0.93", 60)),
    ([1.0, 7.0], "0.02,0.11,0.93,1.02", ["--density=1"],
     SEARCH_REFUSED.format("0.02, 0.11, 0.93, 1.02", 1)),
])
def test_mode_not_found_exit_code(tmp_path, capsys, gammas, window, argv,
                                  message):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(dict(N=2, masses=[2, 1], springs=[1, 1],
                                    gammas=gammas)))
    assert main(["dispersion", "--config", str(path), f"--window={window}",
                 "--density=60"] + argv) == 2
    assert _error_doc(capsys) == {"error": "ValueError", "message": message}


def test_regions_csv(config1, tmp_path):
    out = str(tmp_path / "regions.csv")
    assert main(["regions", "--config", config1, "--out", out,
                 "--kappa-grid=-0.5,0.5,11", "--omega-grid=0,8,11"]) == 0
    header, rows = _read_csv(out)
    assert header == ["kappa", "omega", "num_propagating"]
    assert len(rows) == 121
    counts = {int(r[2]) for r in rows}
    assert counts <= {0, 1, 2}


def test_bands_csv(config1, tmp_path):
    out = str(tmp_path / "bands.csv")
    assert main(["bands", "--config", config1, "--out", out,
                 "--kappa-grid=0,0.5,6"]) == 0
    header, rows = _read_csv(out)
    assert header == ["kappa", "band_0", "band_1"]
    assert len(rows) == 6
    for r in rows:
        assert float(r[1]) <= float(r[2])


def test_scatter_json_fourier(config1, tmp_path):
    out = str(tmp_path / "scatter.json")
    assert main(["scatter", "--config", config1, "--out", out,
                 "--kappa=0.2", "--omega=1.5"]) == 0
    doc = _loads(open(out).read())
    assert doc["method"] == "fourier"
    assert doc["T"] == pytest.approx(0.3776283265443278, abs=1e-12)
    assert doc["R"] == pytest.approx(0.925957259808103, abs=1e-12)
    assert len(doc["c"]) == 2
    assert doc["flags"] == []


def test_scatter_json_dtn_agrees(config1, tmp_path):
    out = str(tmp_path / "dtn.json")
    assert main(["scatter", "--config", config1, "--out", out,
                 "--kappa=0.2", "--omega=1.5",
                 "--method=dtn", "--M", "12"]) == 0
    doc = _loads(open(out).read())
    assert doc["method"] == "dtn"
    assert doc["linear_residual"] < 1e-12
    # the truncated solver reports the chain field z_n; at n=0 that is the
    # sum of the two Fourier chain coefficients
    z0 = complex(doc["z"][0]["re"], doc["z"][0]["im"])
    expected = ((0.16764957417194712 - 0.4110823510747128j)
                + (0.014311328437585065 - 0.035091854961057094j))
    assert z0 == pytest.approx(expected, abs=1e-10)


# run in a fresh interpreter: the test process has scipy loaded already
SCIPY_PROBE = """
import contextlib, io, json, sys
import latres, latres.cli
config = sys.argv[1]
doc = {"import": sorted(m for m in ("scipy.optimize", "scipy.sparse")
                        if m in sys.modules)}
# the refusals run before the dtn solve, which loads scipy.sparse
for name, argv in (
        ("scan", ["scan", "--kappa-grid=0.1,0.3,3", "--omega-grid=1.2,1.8,4"]),
        ("scatter", ["scatter", "--kappa=0.2", "--omega=1.5"]),
        ("bands", ["bands", "--kappa-grid=0,0.5,3"]),
        ("regions", ["regions", "--kappa-grid=0,0.5,3", "--omega-grid=0,8,3"]),
        ("bifurcate refused",
         ["bifurcate", "--gamma0-min=1.0", "--gamma0-max=1.03"]),
        ("scatter --method=dtn refused",
         ["scatter", "--kappa=0", "--omega=4", "--method=dtn"]),
        ("scatter --method=dtn",
         ["scatter", "--kappa=0.2", "--omega=1.5", "--method=dtn"])):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = latres.cli.main(argv[:1] + ["--config", config] + argv[1:])
    doc[name] = [rc, sorted(m for m in ("scipy", "scipy.sparse",
                                        "scipy.optimize") if m in sys.modules)]
print(json.dumps(doc))
"""


def test_cli_loads_scipy_only_where_called(config1):
    src = str(Path(latres.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, config1],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    doc = _loads(proc.stdout)
    assert doc.pop("import") == []
    assert doc.pop("scatter --method=dtn") == [0, ["scipy", "scipy.sparse"]]
    assert doc == {"scan": [0, []], "scatter": [0, []], "bands": [0, []],
                   "regions": [0, []], "bifurcate refused": [2, []],
                   "scatter --method=dtn refused": [2, []]}


def test_cached_parser_reused(config1, capsys):
    """The parser is built once per process, and a request answers the same
    on the first call, after a usage error and after another subcommand."""
    build_parser.cache_clear()
    argv = ["scatter", "--config", config1, "--kappa=0.2", "--omega=1.5"]

    def scatter():
        rc = main(argv)
        return rc, capsys.readouterr().out

    first = scatter()
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--config", config1, "--omega=1.5"])
    assert exc.value.code == 2
    assert "--kappa" in capsys.readouterr().err
    after_usage_error = scatter()
    assert main(["bands", "--config", config1, "--kappa-grid=0,0.5,3"]) == 0
    assert capsys.readouterr().out.startswith("kappa,band_0,band_1")
    after_bands = scatter()
    assert first[0] == 0 and '"method": "fourier"' in first[1]
    assert after_usage_error == first
    assert after_bands == first


def test_scatter_threshold_error_exit_code(config1):
    assert main(["scatter", "--config", config1,
                 "--kappa=0", "--omega=4"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["scatter", "--order=5"], "incident order 5 outside 0..1"),
    (["scatter", "--order=-1"], "incident order -1 outside 0..1"),
    (["scatter", "--a-inc=[1,0,0]"], "--a-inc must be a JSON list"),
    (["scatter", "--b-inc=[0,0,1]"], "--b-inc must be a JSON list"),
    (["scatter", '--a-inc=[{"im": 1}]'], "--a-inc entries must be"),
    (["scatter", "--b-inc=[[1, 2]]"], "--b-inc entries must be"),
    (["scan", "--order=3"], "incident order 3 outside 0..1"),
    (["scan", "--order=-1"], "incident order -1 outside 0..1"),
])
def test_malformed_incidence_exit_code(config1, capsys, argv, message):
    point = (["--kappa=0.2", "--omega=1.5"] if argv[0] == "scatter" else
             ["--kappa-grid=0.2,0.2,1", "--omega-grid=1.5,1.5,1"])
    assert main(argv[:1] + ["--config", config1] + point + argv[1:]) == 2
    err = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert message in err["message"]


GOOD = {"N": 2, "masses": [2, 1], "springs": [1, 1], "gammas": [1, 7]}


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "structure config must be a JSON object, got list"),
    ({k: v for k, v in GOOD.items() if k != "gammas"},
     "structure config lacks gammas"),
    ({k: v for k, v in GOOD.items() if k != "N"}, "structure config lacks N"),
    (dict(GOOD, N="2"), "N must be an integer, got '2'"),
    (dict(GOOD, N=2.5), "N must be an integer, got 2.5"),
    (dict(GOOD, N=True), "N must be an integer, got True"),
    (dict(GOOD, masses={"a": 1}), "masses must be a list of numbers"),
    (dict(GOOD, springs=[True, 1]), "springs must be a list of numbers"),
    (dict(GOOD, gammas=[{"real": 1}, 7]), "gammas must be a list of numbers"),
    (dict(GOOD, gammas=[{"im": 1}, 7]), "gammas must be a list of numbers"),
    (dict(GOOD, gammas=[{"re": "1"}, 7]), "gammas must be a list of numbers"),
    (dict(GOOD, gammas=["1+2j", 7]), "gammas must be a list of numbers"),
    (dict(GOOD, gammas=[True, 7]), "gammas must be a list of numbers"),
    (dict(GOOD, gammas=7), "gammas must be a list of numbers"),
    (dict(GOOD, extra=3), "structure config has unknown keys ['extra']"),
    (dict(GOOD, gamma=[1, 7]), "structure config has unknown keys ['gamma']"),
])
def test_malformed_config_exit_code(tmp_path, capsys, doc, message):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    assert main(["scatter", "--config", str(path), "--kappa=0.2",
                 "--omega=1.5"]) == 2
    err = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(err) == {"error", "message"}
    assert err["error"] == "ValueError"
    assert message in err["message"]


def test_scan_csv_and_threads(config1, tmp_path):
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--config", config1, "--out", out,
                 "--kappa-grid=0.1,0.3,3", "--omega-grid=1.2,1.8,4",
                 "--threads=2"]) == 0
    header, rows = _read_csv(out)
    assert header == ["kappa", "omega", "T", "R", "energy_residual", "flags"]
    assert len(rows) == 12
    for r in rows:
        t, rr = float(r[2]), float(r[3])
        assert t ** 2 + rr ** 2 == pytest.approx(1.0, abs=1e-10)


def test_scan_resolves_full_anomaly_swing(config1, tmp_path, fixture1, mode1,
                                          fit1):
    # scan windows centered on the root-found peak/dip frequencies must
    # reach transmission 1 and 0 to 1e-6
    curves = peak_dip_curves(fixture1, mode1, fit1,
                             kt_samples=np.array([0.002]))
    kap = mode1.kappa0 + 0.002
    ts = []
    for center in (curves.omega_a[0], curves.omega_b[0]):
        out = str(tmp_path / "swing.csv")
        grid = f"{center - 1e-9:.17g},{center + 1e-9:.17g},21"
        assert main(["scan", "--config", config1, "--out", out,
                     "--kappa-grid", f"{kap:.17g},{kap:.17g},1",
                     "--omega-grid", grid]) == 0
        _, rows = _read_csv(out)
        ts.extend(float(r[2]) for r in rows)
    assert max(ts) >= 1.0 - 1e-6
    assert min(ts) <= 1e-6


def test_guided_json(config1, tmp_path):
    out = str(tmp_path / "guided.json")
    assert main(["guided", "--config", config1, "--out", out,
                 "--window=0.02,0.11,0.93,1.02", "--density=80"]) == 0
    modes = _loads(open(out).read())
    assert len(modes) == 1
    assert modes[0]["kappa0"] == pytest.approx(0.0616737, abs=1e-6)
    assert modes[0]["omega0"] == pytest.approx(0.9791667, abs=1e-6)
    assert modes[0]["num_propagating"] == 1
    kinds = {v["kind"] for v in modes[0]["null_vector"]}
    assert kinds == {"a_minus", "b_plus", "c"}


def test_dispersion_csv(config1, tmp_path, capsys):
    out = str(tmp_path / "disp.csv")
    assert main(["dispersion", "--config", config1, "--out", out,
                 "--window=0.02,0.11,0.93,1.02", "--density=80",
                 "--radius=0.003"]) == 0
    header, rows = _read_csv(out)
    assert header == ["kappa", "re_omega", "im_omega"]
    assert len(rows) == 21
    assert all(float(r[2]) <= 1e-12 for r in rows)
    meta = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert meta["linear_coefficient"] == pytest.approx(0.3299, abs=1e-3)


def test_anomaly_csv_and_meta(config1, tmp_path, capsys):
    out = str(tmp_path / "anomaly.csv")
    assert main(["anomaly", "--config", config1, "--out", out,
                 "--window=0.02,0.11,0.93,1.02", "--density=80"]) == 0
    header, rows = _read_csv(out)
    assert header == ["kappa", "omega", "T_direct", "T_approx"]
    assert len(rows) == 66
    err = max(abs(float(r[2]) - float(r[3])) for r in rows)
    assert err < 0.05
    meta = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert meta["peak_curvature"] == pytest.approx(2.6596, abs=1e-3)
    assert meta["dip_curvature"] == pytest.approx(2.3975, abs=1e-3)
    assert meta["ordering_sign"] == -1


def test_bifurcate_csv(config1, tmp_path, capsys):
    out = str(tmp_path / "branch.csv")
    assert main(["bifurcate", "--config", config1, "--out", out,
                 "--gamma0-min=1.0294", "--gamma0-max=1.029533513",
                 "--num=2"]) == 0
    header, rows = _read_csv(out)
    assert header == ["gamma0", "kappa0", "omega0"]
    rows = {float(r[0]): r for r in rows}
    assert sorted(rows) == [1.0294, 1.029533513]
    row = rows[1.029533513]
    assert float(row[1]) == pytest.approx(0.003564296929, abs=1e-6)
    assert float(row[2]) == pytest.approx(0.9778903229, abs=1e-7)
    meta = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert meta["gamma0_star"] == pytest.approx(1.029633513, abs=1e-6)
    assert meta["omega0_star"] == pytest.approx(0.9778859328, abs=1e-6)
    assert meta["sqrt_slope"] == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("argv", [
    ["--gamma0-min=1.0294", "--gamma0-max=1.0295", "--num=1"],
    ["--gamma0-min=1.0294", "--gamma0-max=1.0295", "--num=0"],
    ["--gamma0-min=1.0295", "--gamma0-max=1.0295", "--num=8"],
])
def test_bifurcate_refuses_one_gamma0(config1, capsys, monkeypatch, argv):
    # one gamma0 has no square-root law to fit (its slope would print as
    # NaN, which is not JSON); the refusal comes before any solve
    def solve(*args, **kwargs):
        raise AssertionError("trace_branch ran")

    monkeypatch.setattr(latres.cli, "trace_branch", solve)
    assert main(["bifurcate", "--config", config1, *argv]) == 2
    err = _error_doc(capsys)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("bifurcate fits the square-root law to "
                                     "at least two distinct gamma0 values")


def test_enhance_csv(config1, tmp_path):
    out = str(tmp_path / "enh.csv")
    assert main(["enhance", "--config", config1, "--out", out,
                 "--window=0.02,0.11,0.93,1.02", "--density=80",
                 "--kt-min=1e-3", "--kt-max=1e-2", "--num=5"]) == 0
    header, rows = _read_csv(out)
    assert header == ["kappa_tilde", "omega_opt", "amplitude"]
    kt = np.array([float(r[0]) for r in rows])
    amp = np.array([float(r[2]) for r in rows])
    slope = np.polyfit(np.log(kt), np.log(amp), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


@pytest.mark.parametrize("argv", [["--kt-min=0"], ["--kt-max=-1e-2"]])
def test_enhance_refuses_kt_bounds(config1, capsys, monkeypatch, argv):
    # kt runs on a log scale; the refusal comes before the mode search
    def locate(*args, **kwargs):
        raise AssertionError("mode search ran")

    monkeypatch.setattr(latres.cli, "_locate_mode", locate)
    assert main(["enhance", "--config", config1,
                 "--window=0.02,0.11,0.93,1.02", *argv]) == 2
    err = _error_doc(capsys)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("enhance samples kt on a log scale")


def test_dispersion_refuses_zero_radius(config1, capsys):
    assert main(["dispersion", "--config", config1,
                 "--window=0.02,0.11,0.93,1.02", "--density=80",
                 "--radius=0"]) == 2
    err = _error_doc(capsys)
    assert err["error"] == "ValueError"
    assert "radius must be > 0" in err["message"]


def test_evolve_refuses_zero_width(config1, capsys):
    # the pulse width is mx / 8
    assert main(["evolve", "--config", config1, "--steps=1", "--mx=0"]) == 2
    err = _error_doc(capsys)
    assert err["error"] == "ValueError"
    assert err["message"] == "pulse width must be > 0, got 0.0"


def test_evolve_csv(config1, tmp_path):
    out = str(tmp_path / "evolve.csv")
    assert main(["evolve", "--config", config1, "--out", out,
                 "--dt=0.01", "--steps=100", "--mx=20",
                 "--record-every=20"]) == 0
    header, rows = _read_csv(out)
    assert header == ["t", "norm", "waveguide_energy"]
    norms = [float(r[1]) for r in rows]
    assert max(norms) - min(norms) < 1e-6 * norms[0]


def test_validate_all_pass(config_decoupled, capsys):
    assert main(["validate", "--config", config_decoupled, "--seed=3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert [line.split()[0] for line in out.splitlines()] == [
        "energy_conservation", "cross_oracle", "discrete_identities",
        "green_identity_field"]


def test_log_env_variable(config1, tmp_path, monkeypatch):
    monkeypatch.setenv("LATRES_LOG", "DEBUG")
    out = str(tmp_path / "bands.csv")
    assert main(["bands", "--config", config1, "--out", out,
                 "--kappa-grid=0,0.5,3"]) == 0


@pytest.mark.parametrize("flags, doc, message", [
    (["--record-every=0"], None, "record_every must be >= 1, got 0"),
    (["--steps=-1"], None, "steps must be >= 0, got -1"),
    (["--init=file"], None, "--init file requires --init-file"),
    (["--init=file"], {"z": ["1", 0], "u": [[0, 0]]},
     "--init-file must hold lists z and u"),
    (["--init=file"], {"z": [{"im": 1}, 0], "u": [[0, 0]]},
     "--init-file must hold lists z and u"),
    (["--init=file"], {"z": [0, 0], "u": [0, 0]},
     "--init-file must hold lists z and u"),
    (["--init=file"], {"u": [[0, 0]]}, "--init-file must hold lists z and u"),
    (["--init=file"], {"z": [0, 0, 0], "u": [[0, 0, 0]]},
     "--init-file z must have N=2 entries, got 3"),
    (["--init=file"], {"z": [0, 0], "u": [[0, 0], [0, 0]]},
     "u must be 2-d with an odd number of rows"),
])
def test_malformed_evolve_exit_code(config1, tmp_path, capsys, flags, doc,
                                    message):
    if doc is not None:
        path = tmp_path / "init.json"
        path.write_text(json.dumps(doc))
        flags = flags + ["--init-file", str(path)]
    assert main(["evolve", "--config", config1, "--steps=10", "--mx=4"]
                + flags) == 2
    err = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert message in err["message"]


def test_evolve_init_file_entry_forms(config1, tmp_path):
    # plain numbers and {re, im} objects decode to the same state
    z = [0.5, -1.0]
    u = [[0.0, 1.0], [2.0, -0.5], [0.25, 0.0]]
    docs = {"plain": {"z": z, "u": u},
            "objects": {"z": [{"re": v} for v in z],
                        "u": [[{"re": v, "im": 0.0} for v in row]
                              for row in u]}}
    texts = []
    for name, doc in docs.items():
        init, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        init.write_text(json.dumps(doc))
        assert main(["evolve", "--config", config1, "--out", str(out),
                     "--steps=20", "--record-every=5", "--init=file",
                     "--init-file", str(init)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) == 6


@pytest.mark.parametrize("argv", [
    ["evolve", "--steps=30", "--mx=10", "--record-every=10"],
    ["scatter", "--kappa=0.2", "--omega=1.5", "--method=dtn", "--M=6"],
])
def test_output_unchanged_by_debug_log(config1, monkeypatch, capsys, argv):
    outs = []
    for level in ("WARNING", "DEBUG"):
        monkeypatch.setenv("LATRES_LOG", level)
        assert main(argv[:1] + ["--config", config1] + argv[1:]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""
