"""Every JSON document the CLI emits validates against its shipped schema."""

import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")
from referencing import Registry, Resource

from latres.cli import main

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _loads(text):
    """JSON as the CLI must write it: NaN and +-Infinity are refused."""
    return json.loads(text, parse_constant=_no_constant)


def _validator(name):
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        doc = _loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = _loads((SCHEMA_DIR / name).read_text())
    return jsonschema.Draft202012Validator(schema, registry=registry)


@pytest.fixture()
def config1(tmp_path, fixture1):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(fixture1.to_dict()))
    return str(path)


def test_config_matches_schema(config1):
    _validator("structure-config.json").validate(
        _loads(open(config1).read()))


def test_scatter_fourier_schema(config1, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["scatter", "--config", config1, "--out", str(out),
                 "--kappa=0.2", "--omega=1.5"]) == 0
    _validator("scatter-fourier.json").validate(_loads(out.read_text()))


def test_scatter_dtn_schema(config1, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["scatter", "--config", config1, "--out", str(out),
                 "--kappa=0.2", "--omega=1.5", "--method=dtn", "--M=6"]) == 0
    _validator("scatter-dtn.json").validate(_loads(out.read_text()))


def test_guided_schema(config1, tmp_path):
    out = tmp_path / "modes.json"
    assert main(["guided", "--config", config1, "--out", str(out),
                 "--window=0.02,0.11,0.93,1.02", "--density=80"]) == 0
    _validator("guided-modes.json").validate(_loads(out.read_text()))


def test_dispersion_meta_schema(config1, tmp_path, capsys):
    assert main(["dispersion", "--config", config1,
                 "--out", str(tmp_path / "d.csv"),
                 "--window=0.02,0.11,0.93,1.02", "--density=80",
                 "--radius=0.003"]) == 0
    meta = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    _validator("dispersion-meta.json").validate(meta)


def test_anomaly_meta_schema(config1, tmp_path, capsys):
    assert main(["anomaly", "--config", config1,
                 "--out", str(tmp_path / "a.csv"),
                 "--window=0.02,0.11,0.93,1.02", "--density=80"]) == 0
    meta = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    _validator("anomaly-meta.json").validate(meta)


def test_bifurcate_meta_schema(tmp_path, bif_params, capsys):
    config = tmp_path / "bif.json"
    config.write_text(json.dumps(bif_params.to_dict()))
    assert main(["bifurcate", "--config", str(config),
                 "--out", str(tmp_path / "b.csv"),
                 "--gamma0-min=1.0294", "--gamma0-max=1.0296",
                 "--num=2"]) == 0
    meta = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    _validator("bifurcate-meta.json").validate(meta)


def test_error_schema(config1, capsys):
    assert main(["scatter", "--config", config1,
                 "--kappa=0", "--omega=4"]) == 2
    err = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    _validator("error.json").validate(err)


@pytest.mark.parametrize("argv", [
    ["bands", "--config", "{missing}"],
    ["evolve", "--config", "{config}", "--init=file", "--steps=1",
     "--init-file", "{missing}"],
])
def test_missing_file_error_schema(config1, tmp_path, capsys, argv):
    missing = str(tmp_path / "absent.json")
    argv = [a.format(missing=missing, config=config1) for a in argv]
    assert main(argv) == 2
    err = _loads(capsys.readouterr().err.strip().splitlines()[-1])
    _validator("error.json").validate(err)
    assert err["error"] == "FileNotFoundError"
