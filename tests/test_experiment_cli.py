import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sobosvd as sv
from sobosvd.cli import main
from sobosvd.errors import ConfigError, DegenerateDataError, SampleFileError, SobosvdError
from sobosvd.experiment import (
    CHECK_NAMES,
    ExperimentConfig,
    load_samples,
    run_experiment,
    save_samples,
)

from conftest import bracket_holds, stage_peaks, traced_peak

_ENV_VARS = (
    "SOBOSVD_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@pytest.fixture(autouse=True)
def _restore_thread_env():
    # the cli pins thread vars straight into os.environ
    saved = {v: os.environ.get(v) for v in _ENV_VARS}
    yield
    for var, val in saved.items():
        if val is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = val


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), "utf-8")
    return p


def test_config_minimal_defaults():
    cfg = ExperimentConfig.from_dict({"function": {"case": "SEP1"}})
    assert cfg.data == {"function": {"case": "SEP1"}}
    assert cfg.base_dir == Path(".")
    assert cfg.checks == CHECK_NAMES
    assert cfg.tolerance("sandwich") == 1e-9


def test_config_checks_keep_canonical_order():
    cfg = ExperimentConfig.from_dict(
        {"function": {"case": "SEP1"}, "checks": ["sandwich", "eckart_young"]}
    )
    assert cfg.checks == ("eckart_young", "sandwich")


def test_config_schema_rejections():
    bad = [
        {},
        {"function": {}},
        {"function": {"case": "SEP1", "file": "x.raw"}},
        {"function": {"case": "SEP1"}, "grid": {"n": [2, 2]}},
        {"function": {"case": "SEP1"}, "surprise": 1},
        {"function": {"case": "SEP1"}, "checks": ["nonsense"]},
        {"function": {"case": "SEP1"}, "ranks": {}},
        {"function": {"case": "SEP1"}, "ranks": {"explicit": [[1]], "sweep": {"from": 1, "to": 2}}},
        {"function": {"case": "SEP1"}, "ranks": {"explicit": [[-1, 1]]}},
        {"function": {"case": "SEP1"}, "tolerances": {"sandwich": 0.0}},
    ]
    for data in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)


def test_config_unknown_tolerance_key():
    with pytest.raises(ConfigError, match="unknown tolerance"):
        ExperimentConfig.from_dict(
            {"function": {"case": "SEP1"}, "tolerances": {"typo": 1e-9}}
        )
    # a config built directly is checked too, not run with the default
    with pytest.raises(ConfigError, match="unknown tolerance"):
        ExperimentConfig({"function": {"case": "SEP1"}, "tolerances": {"sandwhich": 1e-3}})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"checks": ["eckart_young", "eckart_young"]},
        {"tolerances": {"eckart_young": float("inf")}},
        {"tolerances": {"sandwich": float("nan")}},
        {"tolerances": {"sandwich": 0.0}},
        {"tolerances": {"sandwich": "1e-9"}},
    ],
)
def test_config_built_directly_obeys_the_schema(kwargs):
    data = {"function": {"case": "SEP1"}, "grid": {"n": [9, 9]}, **kwargs}
    with pytest.raises(ConfigError):
        ExperimentConfig(data)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


def test_config_has_one_representation(monkeypatch):
    import sobosvd.experiment as experiment

    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["data", "base_dir"]
    schemas = []
    real = experiment._validate

    def counting(data, schema, *args, **kwargs):
        schemas.append(schema)
        return real(data, schema, *args, **kwargs)

    monkeypatch.setattr(experiment, "_validate", counting)
    data = {"function": {"case": "SEP1"}, "grid": {"n": [9, 9]}, "checks": ["sandwich"]}
    cfg = ExperimentConfig.from_dict(data)
    assert schemas == [experiment.CONFIG_SCHEMA]  # validated once, as a whole
    monkeypatch.undo()

    # the config holds a copy: changing the caller's dict changes neither
    # the config nor its run
    data["grid"]["n"][0] = 11
    data["checks"].append("eckart_young")
    data["function"]["case"] = "NOPE"
    assert cfg.data == {
        "function": {"case": "SEP1"}, "grid": {"n": [9, 9]}, "checks": ["sandwich"]
    }
    report = run_experiment(cfg).report
    assert report["grid"]["n"] == [9, 9]
    assert [c["name"] for c in report["checks"]] == ["sandwich"]


@pytest.mark.parametrize("token", ["Infinity", "NaN", "1e999"])
def test_config_file_rejects_non_finite_tolerance(tmp_path, capsys, token):
    # Infinity and NaN are not JSON; 1e999 is, and parses to inf
    p = tmp_path / "config.json"
    p.write_text(
        '{"function": {"case": "SEP1"}, "grid": {"n": [9, 9]}, '
        f'"tolerances": {{"eckart_young": {token}}}}}',
        "utf-8",
    )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(p)
    assert main(["run", "--config", str(p)]) == 2
    assert "sobosvd:" in capsys.readouterr().err


def test_config_from_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json", "utf-8")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(p)
    p.write_text("[1, 2]", "utf-8")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(p)


def test_config_paths_resolve_against_config_dir(tmp_path, monkeypatch):
    sub = tmp_path / "nested"
    save_samples(sv.sample_case(sv.get_case("SEP1"), (9, 9)), sub / "data.raw")
    p = write_config(
        sub, {"function": {"file": "data.raw"}, "output": "results", "checks": ["eckart_young"]}
    )
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig.from_file(p)
    assert cfg.base_dir == sub
    result = run_experiment(cfg)
    assert result.report["function"]["file"] == str(sub / "data.raw")
    assert result.report_path == sub / "results" / "report.json"
    assert result.report_path.exists() and not (tmp_path / "results").exists()


def sample_grid(shape=(9, 7)):
    rng = np.random.default_rng(42)
    axes = tuple(
        sv.make_axis(n, -1.0, 2.0) if j == 0 else sv.make_axis(n)
        for j, n in enumerate(shape)
    )
    return sv.GridFunction(axes, rng.standard_normal(shape))


def test_samples_round_trip_is_exact(tmp_path):
    u = sample_grid()
    p = save_samples(u, tmp_path / "u.raw")
    back = load_samples(p)
    assert back.shape == u.shape
    assert np.array_equal(back.values, u.values)
    assert back.axes[0].lower == -1.0 and back.axes[0].upper == 2.0
    again = tmp_path / "again.raw"
    save_samples(back, again)
    assert again.read_bytes() == p.read_bytes()
    meta = json.loads((tmp_path / "u.raw.meta.json").read_text("utf-8"))
    assert meta["format"] == "sobosvd-raw-1"
    assert meta["shape"] == [9, 7]


def test_load_samples_failure_modes(tmp_path):
    u = sample_grid()
    p = save_samples(u, tmp_path / "u.raw")
    meta_p = tmp_path / "u.raw.meta.json"

    with pytest.raises(SampleFileError):
        load_samples(tmp_path / "absent.raw")

    good = meta_p.read_text("utf-8")
    meta_p.write_text("{oops", "utf-8")
    with pytest.raises(SampleFileError):
        load_samples(p)

    meta = json.loads(good)
    meta["format"] = "other"
    meta_p.write_text(json.dumps(meta), "utf-8")
    with pytest.raises(SampleFileError):
        load_samples(p)

    meta = json.loads(good)
    meta["axes"] = meta["axes"][:1]
    meta_p.write_text(json.dumps(meta), "utf-8")
    with pytest.raises(SampleFileError):
        load_samples(p)

    meta = json.loads(good)
    del meta["axes"][0]["upper"]
    meta_p.write_text(json.dumps(meta), "utf-8")
    with pytest.raises(SampleFileError):
        load_samples(p)

    meta = json.loads(good)
    meta["axes"][0]["upper"] = meta["axes"][0]["lower"]
    meta_p.write_text(json.dumps(meta), "utf-8")
    with pytest.raises(SampleFileError):
        load_samples(p)

    # malformed shape and axes entries; [-9, -7], "97" and [9.7, 7] read
    # as integers multiply out to the file's size, so the size check
    # alone does not catch them
    for key, value in [
        ("shape", None),
        ("axes", 3),
        ("shape", [-9, -7]),
        ("shape", "97"),
        ("shape", [9.7, 7]),
    ]:
        meta = json.loads(good)
        meta[key] = value
        meta_p.write_text(json.dumps(meta), "utf-8")
        with pytest.raises(SampleFileError):
            load_samples(p)

    # an infinite endpoint, as the non-JSON token, as a literal that parses
    # to inf and as an integer too large for a float, and endpoints that
    # are not JSON numbers
    assert good.count('"upper": 2.0') == 1
    for upper in ("Infinity", "1e999", "1" + "0" * 400, "true", '"2"'):
        meta_p.write_text(good.replace('"upper": 2.0', f'"upper": {upper}'), "utf-8")
        with pytest.raises(SampleFileError):
            load_samples(p)
    meta = json.loads(good)
    meta["axes"][0]["lower"] = str(meta["axes"][0]["lower"])
    meta_p.write_text(json.dumps(meta), "utf-8")
    with pytest.raises(SampleFileError):
        load_samples(p)

    meta_p.write_text(good, "utf-8")
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(SampleFileError):
        load_samples(p)


def test_sidecar_shape_takes_integral_floats(tmp_path):
    # the sidecar schema's integers are JSON Schema's, as grid.n is in a
    # config: 9.0 reads as 9; a fraction, a bool or a string does not
    u = sample_grid()
    p = save_samples(u, tmp_path / "u.raw")
    meta_p = tmp_path / "u.raw.meta.json"
    good = json.loads(meta_p.read_text("utf-8"))
    want = load_samples(p)
    meta_p.write_text(json.dumps({**good, "shape": [9.0, 7]}), "utf-8")
    back = load_samples(p)
    assert back.shape == (9, 7) and all(type(n) is int for n in back.shape)
    assert np.array_equal(back.values, want.values)
    for got, ax in zip(back.axes, want.axes):
        assert (got.lower, got.upper) == (ax.lower, ax.upper)
        assert np.array_equal(got.nodes, ax.nodes)
        assert np.array_equal(got.quad_weights, ax.quad_weights)
    for shape in ([9.7, 7], [True, 7], ["9", 7]):
        meta_p.write_text(json.dumps({**good, "shape": shape}), "utf-8")
        with pytest.raises(SampleFileError, match="invalid at shape/0"):
            load_samples(p)


def test_run_experiment_catalog_case(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"function": {"case": "SEP1"}, "grid": {"n": [21, 21]}}
    )
    result = run_experiment(cfg, out_dir=tmp_path / "out")
    assert result.passed
    report = result.report
    assert report["schema"] == "sobosvd-report-1"
    assert report["function"]["case"] == "SEP1"
    assert report["grid"]["n"] == [21, 21]
    # default sweep is balanced 1..8
    assert report["ranks"][0] == [1, 1] and len(report["ranks"]) == 8
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert set(statuses) == set(CHECK_NAMES)
    assert all(s == "pass" for s in statuses.values())

    assert result.report_path is not None and result.report_path.exists()
    on_disk = json.loads(result.report_path.read_text("utf-8"))
    assert on_disk["passed"] is True
    assert on_disk == result.report
    assert not list((tmp_path / "out").glob("*.tmp"))


def test_run_experiment_is_deterministic(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "function": {"case": "BROWNIAN"},
            "grid": {"n": [17, 17]},
            "ranks": {"sweep": {"from": 1, "to": 4}},
        }
    )
    a = run_experiment(cfg, out_dir=tmp_path / "a")
    b = run_experiment(cfg, out_dir=tmp_path / "b")
    assert a.sigma_path.read_text("utf-8") == b.sigma_path.read_text("utf-8")
    assert json.dumps(a.report, sort_keys=True) == json.dumps(b.report, sort_keys=True)


def test_sigma_csv_layout(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "function": {"case": "EXPXY"},
            "grid": {"n": [33, 33]},
            "ranks": {"explicit": [[1, 1], [2, 2], [3, 3]]},
        }
    )
    result = run_experiment(cfg, out_dir=tmp_path)
    lines = result.sigma_path.read_text("utf-8").splitlines()
    assert lines[0] == "mode,k,sigma,dpsi_norm,bound_value"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert float(first[2]) == pytest.approx(result.report["spectra"][0]["sigmas"][0])
    # directions past the retained block carry sigma only
    retained = result.report["spectra"][0]["retained"]
    assert retained < 33
    tail = lines[1 + retained].split(",")
    assert tail[3] == "" and tail[4] == ""


def test_run_experiment_three_dims_skips_h1_identity():
    cfg = ExperimentConfig.from_dict(
        {
            "function": {"case": "SUM3D"},
            "grid": {"n": [13, 13, 13]},
            "ranks": {"explicit": [[1, 1, 1], [2, 2, 2]]},
        }
    )
    result = run_experiment(cfg)
    statuses = {c["name"]: c["status"] for c in result.report["checks"]}
    assert statuses["h1_identity"] == "skipped"
    assert statuses["diagnostics"] == "skipped"
    assert result.passed
    assert result.report_path is None


def test_run_experiment_from_sample_file(tmp_path):
    u = sv.sample_case(sv.get_case("SINSUM"), (17, 17))
    save_samples(u, tmp_path / "u.raw")
    p = write_config(
        tmp_path,
        {
            "function": {"file": "u.raw"},
            "ranks": {"sweep": {"from": 1, "to": 3}},
        },
    )
    result = run_experiment(ExperimentConfig.from_file(p))
    assert result.passed
    assert result.report["function"]["file"].endswith("u.raw")


def test_report_holds_flags_scale_invariant(tmp_path):
    # EXPXY (1, 2) violates the residual H1 bracket at every scale; the
    # sandwich check, the one verdict, must say so at each of them
    u = sv.sample_case(sv.get_case("EXPXY"), (33, 33))
    seen = {}
    for c in (1e-6, 1.0, 1e6):
        save_samples(sv.GridFunction(u.axes, c * u.values), tmp_path / f"{c}.raw")
        cfg = ExperimentConfig.from_dict(
            {
                "function": {"file": f"{c}.raw"},
                "ranks": {"explicit": [[1, 2]]},
                "checks": ["sandwich"],
            },
            base_dir=tmp_path,
        )
        seen[c] = [ch["status"] for ch in run_experiment(cfg).report["checks"]]
    assert seen[1e-6] == seen[1.0] == seen[1e6] == ["fail"], seen


def test_run_experiment_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="grid sizes"):
        run_experiment(ExperimentConfig.from_dict({"function": {"case": "SEP1"}}))
    with pytest.raises(ConfigError, match="'edge_cases' is not one of"):
        ExperimentConfig({"function": {"case": "SEP1"}, "checks": ["edge_cases"]})
    with pytest.raises(ConfigError, match="dimensions"):
        run_experiment(
            ExperimentConfig.from_dict(
                {"function": {"case": "SEP3D"}, "grid": {"n": [9, 9]}}
            )
        )
    with pytest.raises(ConfigError, match="exceeds"):
        run_experiment(
            ExperimentConfig.from_dict(
                {
                    "function": {"case": "SEP1"},
                    "grid": {"n": [9, 9]},
                    "ranks": {"explicit": [[1, 10]]},
                }
            )
        )
    with pytest.raises(ConfigError, match="step"):
        run_experiment(
            ExperimentConfig.from_dict(
                {
                    "function": {"case": "SEP1"},
                    "grid": {"n": [9, 9]},
                    "ranks": {"sweep": {"from": 1, "to": 3, "step": 0}},
                }
            )
        )
    with pytest.raises(ConfigError, match="below"):
        run_experiment(
            ExperimentConfig.from_dict(
                {
                    "function": {"case": "SEP1"},
                    "grid": {"n": [9, 9]},
                    "ranks": {"sweep": {"from": 3, "to": 1}},
                }
            )
        )

    u = sv.sample_case(sv.get_case("SEP1"), (9, 9))
    save_samples(u, tmp_path / "u.raw")
    with pytest.raises(ConfigError, match="does not match"):
        run_experiment(
            ExperimentConfig.from_dict(
                {"function": {"file": "u.raw"}, "grid": {"n": [11, 11]}},
                base_dir=tmp_path,
            )
        )

    one_d = sv.sample(lambda x: x, (sv.make_axis(9),))
    save_samples(one_d, tmp_path / "line.raw")
    with pytest.raises(ConfigError, match="two axes"):
        run_experiment(
            ExperimentConfig.from_dict(
                {"function": {"file": "line.raw"}}, base_dir=tmp_path
            )
        )


def test_rank_sweep_takes_integral_floats():
    # an integral float is a JSON Schema integer, as a scalar sweep bound too
    cfg = ExperimentConfig.from_dict(
        {
            "function": {"case": "SEP1"},
            "grid": {"n": [9, 9]},
            "ranks": {"sweep": {"from": 1.0, "to": [3.0, 3], "step": 1.0}},
            "checks": ["eckart_young"],
        }
    )
    assert run_experiment(cfg).report["ranks"] == [[1, 1], [2, 2], [3, 3]]


def test_run_experiment_edge_cases_block():
    cfg = ExperimentConfig.from_dict(
        {"function": {"case": "SINSUM"}, "grid": {"n": [17, 17]}}
    )
    result = run_experiment(cfg, edge_cases=True)
    statuses = {c["name"]: c["status"] for c in result.report["checks"]}
    assert statuses["edge_cases"] == "pass"
    assert result.passed


def test_edge_check_fails_a_rank_zero_projection_that_underflows(monkeypatch):
    # a rank-zero projection of 1e-170 everywhere squares to 0.0, so its
    # norm reads 0 and the residual |u - P u| equals |u|; the edge check
    # still finds the nonzero entries and fails
    import sobosvd.truncation as truncation

    real = truncation._apply_projection

    def nonzero_at_rank_zero(u, bases):
        if all(q.shape[1] == 0 for q in bases.values()):
            return np.full(u.shape, 1e-170)
        return real(u, bases)

    monkeypatch.setattr(truncation, "_apply_projection", nonzero_at_rank_zero)
    cfg = ExperimentConfig.from_dict({"function": {"case": "BROWNIAN"}, "grid": {"n": [33, 33]}})
    result = run_experiment(cfg, edge_cases=True)
    (edge,) = [c for c in result.report["checks"] if c["name"] == "edge_cases"]
    assert edge["status"] == "fail"
    assert edge["detail"] == "rank-zero projection is not identically zero"
    assert not result.passed


def test_cli_list_cases(capsys):
    assert main(["list-cases"]) == 0
    out = capsys.readouterr().out
    for name in ("SEP1", "SINSUM", "BROWNIAN", "SEP3D", "SUM3D", "EXPXY"):
        assert name in out


def test_cli_verify_passes(capsys, tmp_path):
    code = main(["verify", "--case", "SEP1", "--n", "21", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    assert (tmp_path / "report.json").exists()


def test_cli_run_and_failure_exit(tmp_path, capsys):
    ok = write_config(
        tmp_path,
        {
            "function": {"case": "BROWNIAN"},
            "grid": {"n": [17, 17]},
            "ranks": {"sweep": {"from": 1, "to": 4}},
            "output": "out",
        },
    )
    assert main(["run", "--config", str(ok)]) == 0
    assert (tmp_path / "out" / "report.json").exists()
    capsys.readouterr()

    strict = write_config(
        tmp_path,
        {
            "function": {"case": "BROWNIAN"},
            "grid": {"n": [17, 17]},
            "ranks": {"sweep": {"from": 1, "to": 4}},
            "tolerances": {"eckart_young": 1e-300},
        },
        name="strict.json",
    )
    assert main(["run", "--config", str(strict)]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text("utf-8"))
    assert report["passed"] is True


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["verify", "--case", "NOPE", "--n", "17"]) == 2
    assert "unknown case" in capsys.readouterr().err
    assert main(["verify", "--case", "NOPE", "--n", "9"]) == 2
    assert capsys.readouterr().err == (
        "sobosvd: unknown case 'NOPE', have "
        "['BROWNIAN', 'EXPXY', 'SEP1', 'SEP3D', 'SINSUM', 'SUM3D']\n"
    )
    assert main(["verify", "--case", "SEP1", "--n", "2"]) == 2
    capsys.readouterr()
    assert main(["verify", "--case", "SEP1", "--n", "x"]) == 2
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()

    missing = write_config(tmp_path, {"function": {"file": "ghost.raw"}})
    assert main(["run", "--config", str(missing)]) == 3
    assert "ghost.raw" in capsys.readouterr().err

    # case parameters are JSON numbers, and coeffs a list of them
    for case, params in [
        ("SINSUM", {"coeffs": 5}),
        ("SINSUM", {"coeffs": [1, "a"]}),
        ("SINSUM", {"coeffs": "123"}),
        ("SUM3D", {"c1": "x"}),
        ("SUM3D", {"c1": "2"}),
        ("SUM3D", {"c1": True}),
    ]:
        bad = write_config(
            tmp_path, {"function": {"case": case, "params": params}, "grid": {"n": [9]}}
        )
        assert main(["run", "--config", str(bad)]) == 2, params
        assert "must be a" in capsys.readouterr().err, params


@pytest.mark.parametrize(
    "exc, code",
    [
        (ConfigError("boom"), 2),
        (SampleFileError("boom"), 3),
        (OSError("boom"), 3),
        (SobosvdError("boom"), 1),
        (DegenerateDataError("boom"), 1),
    ],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x),
)
def test_cli_exit_code_table(monkeypatch, capsys, exc, code):
    # one message format for every error the command line catches, and
    # the exit code of the first class in the table the error is
    import sobosvd.experiment as experiment

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(experiment, "run_experiment", fail)
    assert main(["verify", "--case", "SEP1", "--n", "9"]) == code
    assert capsys.readouterr().err == "sobosvd: boom\n"


@pytest.mark.parametrize(
    "case, params",
    [
        ("SINSUM", '{"coeffs": [1e999]}'),
        pytest.param("SINSUM", '{"coeffs": [1.0, 1' + "0" * 400 + "]}", id="SINSUM-1e400"),
        ("SUM3D", '{"c1": 1e999}'),
        ("SUM3D", '{"c1": 2.0, "c2": -1e999}'),
    ],
)
def test_cli_rejects_infinite_case_parameters(tmp_path, capsys, case, params):
    # JSON reads 1e999 as infinity; a long integer overflows a float
    p = tmp_path / "config.json"
    text = f'{{"function": {{"case": "{case}", "params": {params}}}, "grid": {{"n": [9]}}}}'
    p.write_text(text, "utf-8")
    assert main(["run", "--config", str(p)]) == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("lower, upper", [(-1e308, 1e308), (0.0, 5e-324)])
def test_cli_rejects_a_sidecar_axis_whose_spacing_overflows_or_underflows(
    tmp_path, capsys, lower, upper
):
    # the spacing (upper - lower) / 8 is inf, or 0
    u = sv.sample_case(sv.get_case("SEP1"), (9, 9))
    p = save_samples(u, tmp_path / "u.raw")
    meta_p = tmp_path / "u.raw.meta.json"
    meta = json.loads(meta_p.read_text("utf-8"))
    meta["axes"][0] = {"lower": lower, "upper": upper}
    meta_p.write_text(json.dumps(meta), "utf-8")
    with pytest.raises(SampleFileError, match="spacing"):
        load_samples(p)
    config = write_config(tmp_path, {"function": {"file": "u.raw"}})
    assert main(["run", "--config", str(config)]) == 3
    assert "spacing" in capsys.readouterr().err


def _cube_on(tmp_path, upper):
    """Random 9^3 samples on [0, upper]^3, saved; the sample file's path."""
    axes = (sv.make_axis(9, 0.0, upper),) * 3
    values = np.random.default_rng(7).standard_normal((9, 9, 9))
    return save_samples(sv.GridFunction(axes, values), tmp_path / "cube.raw")


@pytest.mark.parametrize("upper", [1e200, 1e-170, 1e-160])
def test_cli_rejects_sidecar_axes_whose_weight_products_overflow_or_underflow(
    tmp_path, capsys, upper
):
    # each axis passes make_axis, but mode j's column weights, products of
    # the other two axes' weights, are inf (1e200), 0 (1e-170) or
    # subnormal (1e-160, about 4e-323), which the eigensolver behind
    # h1_sandwich's Bernstein constants does not survive
    p = _cube_on(tmp_path, upper)
    with pytest.raises(SampleFileError, match="overflow or underflow"):
        load_samples(p)
    config = write_config(tmp_path, {"function": {"file": "cube.raw"}})
    assert main(["run", "--config", str(config)]) == 3
    assert "overflow or underflow" in capsys.readouterr().err


@pytest.mark.parametrize("upper", [1e100, 1e-150])
def test_load_samples_keeps_axes_whose_weight_products_fit(tmp_path, upper):
    # 1e-150: the smallest product, about 4e-303, is a normal float
    u = load_samples(_cube_on(tmp_path, upper))
    assert u.shape == (9, 9, 9) and u.axes[2].upper == upper


def test_cli_thread_pinning(capsys):
    os.environ.pop("SOBOSVD_THREADS", None)
    assert main(["verify", "--case", "SEP1", "--n", "9", "--threads", "3"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["SOBOSVD_THREADS"] == "3"
    capsys.readouterr()

    # the environment variable wins over the flag
    os.environ["SOBOSVD_THREADS"] = "2"
    assert main(["verify", "--case", "SEP1", "--n", "9", "--threads", "5"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    report = capsys.readouterr().out
    assert report

    os.environ["SOBOSVD_THREADS"] = "zebra"
    assert main(["list-cases"]) == 2
    assert "not an integer" in capsys.readouterr().err

    os.environ.pop("SOBOSVD_THREADS", None)
    assert main(["verify", "--case", "SEP1", "--n", "9", "--threads", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_cli_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "sobosvd.cli", "list-cases"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "BROWNIAN" in proc.stdout


@pytest.mark.skipif(shutil.which("sobosvd") is None, reason="script not on PATH")
def test_cli_console_script():
    proc = subprocess.run(
        ["sobosvd", "list-cases"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "SINSUM" in proc.stdout


def test_run_experiment_decomposes_each_mode_once(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    cfg = ExperimentConfig.from_dict(
        {
            "function": {"case": "BROWNIAN"},
            "grid": {"n": [33, 33]},
            "ranks": {"sweep": {"from": 1, "to": 4}},
        }
    )
    assert "quasi_opt" in cfg.checks
    result = run_experiment(cfg, edge_cases=True)
    assert result.passed
    # one decomposition in 2D (mode 1 is its adjoint), plus the
    # zero-input edge check on a 3-node grid
    assert calls == [(33, 33), (3, 3)]


def test_run_experiment_reports_a_transfer_bound_violation(monkeypatch):
    # singular values scaled by 10 shrink each transferred norm tenfold and
    # its bound a hundredfold; the run records the violation and returns
    import dataclasses

    import sobosvd.experiment as experiment

    real = experiment.mode_svds

    def inflated(u):
        return tuple(dataclasses.replace(s, sigmas=s.sigmas * 10) for s in real(u))

    monkeypatch.setattr(experiment, "mode_svds", inflated)
    cfg = ExperimentConfig.from_dict({"function": {"case": "SEP1"}, "grid": {"n": [17, 17]}})
    result = run_experiment(cfg)
    assert not result.passed
    check = next(c for c in result.report["checks"] if c["name"] == "derivative_bound")
    assert check["status"] == "fail"
    assert check["worst"] > 0.1


def _config(case, n, ranks):
    return ExperimentConfig.from_dict(
        {"function": {"case": case}, "grid": {"n": n}, "ranks": ranks}
    )


def _stencil_calls(monkeypatch, config):
    """Grid differentiations of a run of ``config`` with edge cases, and
    the run's result. The stencil is patched in every ``sobosvd`` module
    that binds it, and only calls on grid-shaped arrays count: a stencil
    applied to an n x R basis differentiates no grid."""
    import sobosvd.discretization as discretization

    calls = []
    real = discretization._fd2
    shape = tuple(config.data["grid"]["n"])

    def counting(values, h, axis, out):
        if values.shape == shape:
            calls.append(axis)
        return real(values, h, axis, out)

    for name, module in list(sys.modules.items()):
        if name == "sobosvd" or name.startswith("sobosvd."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    result = run_experiment(config, edge_cases=True)
    # the derivative transfer differentiates u once per direction
    assert len(calls) >= len(shape)
    return len(calls), result


# unequal explicit ranks: the rank vector (3, 1) names the single-mode
# pair (0, 3), which no Tucker projection of the run equals
_UNEQUAL_RANKS = {"explicit": [[1, 2], [3, 1], [2, 2], [4, 4]]}


def test_run_experiment_differentiates_each_projection_once(monkeypatch):
    # per mode: u, in the derivative transfer, and the one residual that
    # h1_sandwich measures at the largest ranks; every rank vector's
    # residual and the single-mode projections follow in coefficient
    # space, from stencils applied to bases, not grids
    d, n_ranks = 2, 4
    config = _config("BROWNIAN", [33, 33], {"sweep": {"from": 1, "to": n_ranks}})
    calls, result = _stencil_calls(monkeypatch, config)
    assert result.passed
    assert calls == 2 * d


def test_run_experiment_unequal_ranks_differentiate_each_projection_once(monkeypatch):
    d = 2
    calls, _ = _stencil_calls(monkeypatch, _config("BROWNIAN", [33, 33], _UNEQUAL_RANKS))
    assert calls == 2 * d


def test_run_experiment_3d_differentiates_each_projection_once(monkeypatch):
    d, n_ranks = 3, 2
    config = _config("SUM3D", [9, 9, 9], {"sweep": {"from": 1, "to": n_ranks}})
    calls, result = _stencil_calls(monkeypatch, config)
    assert result.passed
    assert calls == 2 * d


def test_run_experiment_3d_unfolds_each_grid_twice_per_mode(monkeypatch):
    # per mode: u in mode_svd (its unfolding view, scaled into the one
    # copy) and D_j u in derivative_data; the single-mode pass contracts
    # the grids first and unfolds only the coefficients
    import sobosvd.sobolev as sobolev
    import sobosvd.svd_engine as svd_engine
    import sobosvd.truncation as truncation

    shape, calls = (17, 17, 17), []

    def counting(real):
        def spy(values, mode):
            if np.shape(values) == shape:
                calls.append(mode)
            return real(values, mode)

        return spy

    unfoldings = ((svd_engine, "_unfolding_view"), (sobolev, "matricize"), (truncation, "matricize"))
    for module, name in unfoldings:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    config = ExperimentConfig.from_dict(
        {"function": {"case": "SUM3D"}, "grid": {"n": list(shape)}}
    )
    assert run_experiment(config, edge_cases=True).passed
    assert sorted(calls) == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize(
    "case, shape, grids", [("BROWNIAN", (129, 129), 10.25), ("SUM3D", (17, 17, 17), 6.25)]
)
def test_verify_run_traced_peak(tmp_path, case, shape, grids):
    # a verify run with edge cases, from a sample file as the benchmark's
    # runs read one: the traced peak above entry is 9.70 grids on BROWNIAN
    # 129^2, set by h1_sandwich beside the systems and the transferred
    # derivatives, and 5.51 on SUM3D 17^3. No D_j u may outlive
    # derivative_data (kept, the peak reads 11.73 and 8.59 grids), and
    # on BROWNIAN the edge check's full-rank projection must run beside
    # the systems only (beside the transferred derivatives: 10.49). Half
    # a grid-sized array more at the peak fails the bound.
    u = sv.sample_case(sv.get_case(case), shape)
    save_samples(u, tmp_path / "u.raw")
    config = ExperimentConfig.from_dict({"function": {"file": "u.raw"}}, base_dir=tmp_path)
    result, peak, _ = traced_peak(lambda: run_experiment(config, edge_cases=True), u.values)
    assert result.passed
    assert peak <= grids


def test_derivative_data_3d_traced_peak(monkeypatch):
    # per call in a 3D verify run: D_j u, its unfolding copy, and the
    # squares of D_j u written into that copy once the transfer has read
    # it. The traced peak above entry is 2.13 grids on SUM3D 33x35x37
    # (3.03 with the squares in a new grid), so one more grid-sized array
    # fails the bound
    shape = (33, 35, 37)
    config = ExperimentConfig.from_dict({"function": {"case": "SUM3D"}, "grid": {"n": list(shape)}})
    result, peaks = stage_peaks(
        monkeypatch,
        ("derivative_data",),
        lambda: run_experiment(config, edge_cases=True),
        np.empty(shape),
    )
    assert result.passed
    assert peaks["derivative_data"] <= 2.5


def test_edge_check_runs_before_the_derivative_transfer(monkeypatch):
    # the edge check's projections are made right after the decomposition,
    # before derivative_data allocates a transferred derivative; its
    # verdict is still reported after the selected checks
    import sobosvd.experiment as experiment

    calls = []

    def spying(name, real):
        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return spy

    for name in ("hosvd_project", "derivative_data"):
        monkeypatch.setattr(experiment, name, spying(name, getattr(experiment, name)))
    config = _config("SUM3D", [9, 9, 9], {"sweep": {"from": 1, "to": 2}})
    result = run_experiment(config, edge_cases=True)
    assert calls == ["hosvd_project"] * 2 + ["derivative_data"] * 3
    assert [c["name"] for c in result.report["checks"]][-1] == "edge_cases"
    assert result.passed


@pytest.mark.parametrize("case, n", [("BROWNIAN", [33, 33]), ("SUM3D", [9, 9, 9])])
def test_run_experiment_sums_u_squared_in_the_derivative_transfer_only(monkeypatch, case, n):
    # |u|^2 is summed on the grid once per run (u.sq_l2), with or without
    # the edge check: each mode's derivative data, the edge check's scale,
    # the run's norm scales and h1_sandwich all read that one sum. Only
    # sums of u's own values count: the edge check's rank-zero residual
    # u - 0, measured in its workspace, equals u but is not u.
    import sobosvd.discretization as discretization
    import sobosvd.experiment as experiment

    real, build, run_u, sums = discretization._sq_l2, experiment._build_function, [], []

    def building(config):
        u, fdesc = build(config)
        run_u.append(u)
        return u, fdesc

    def counting(values, axes, out=None):
        if values is run_u[-1].values:
            sums.append(values.shape)
        return real(values, axes, out)

    monkeypatch.setattr(experiment, "_build_function", building)
    for name, module in list(sys.modules.items()):
        if name == "sobosvd" or name.startswith("sobosvd."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    for edge_cases in (False, True):
        sums.clear()
        config = _config(case, n, {"sweep": {"from": 1, "to": 3}})
        assert run_experiment(config, edge_cases=edge_cases).passed
        assert len(sums) == 1, edge_cases
    u = sv.sample_case(sv.get_case(case), tuple(n))
    derivs = [sv.derivative_data(u, s) for s in sv.mode_svds(u)]
    assert all(dv.u_sq == sv.inner_l2(u, u) for dv in derivs)


_SINGLE_MODE_KEYS = ("l2_error_sq", "ek_norm_sq", "ek_error_sq")


def _single_mode_entries(rep) -> list[tuple]:
    """Per mode j, the (l2_error_sq, ek_norm_sq, ek_error_sq) of the rank
    report ``rep``: the projection of mode j onto its first min(r_j, k_max)
    left vectors. The report holds exactly these keys, one entry per mode."""
    single = rep["measured"]["single_mode"]
    assert set(single) == set(_SINGLE_MODE_KEYS)
    assert len({len(v) for v in single.values()} | {len(rep["rank_vector"])}) == 1
    return list(zip(*(single[k] for k in _SINGLE_MODE_KEYS)))


_SINGLE_MODE_CASES = [
    ("BROWNIAN", (33, 33)),
    ("EXPXY", (33, 33)),
    ("SINSUM", (33, 33)),
    ("EXPXY", (33, 21)),
    ("SUM3D", (17, 17, 17)),
    ("SEP3D", (17, 13, 9)),
]


def test_single_mode_matches_grid_projections():
    # every single-mode entry of each rank vector's report, the vector on
    # its own, equals a single-mode projection and its residual built as
    # grid functions and measured by sobolev_sq in direction j, at
    # min(r_j, k_max). The catalog cases are symmetric, so 33x21 and
    # 17x13x9 grids tell the modes apart.
    from sobosvd.sobolev import _root_sum
    from sobosvd.truncation import _apply_projection, _leading_bases

    for name, shape in _SINGLE_MODE_CASES:
        u = sv.sample_case(sv.get_case(name), shape)
        systems = sv.mode_svds(u)
        derivs = tuple(sv.derivative_data(u, s) for s in systems)
        sq = (sv.norm_l2(u) ** 2, *(dv.du_sq for dv in derivs))
        fresh = {}
        for j, system in enumerate(systems):
            scales = (sq[0], sq[0] + sq[1 + j], sq[0] + sq[1 + j])
            for r in range(min(6, system.k_max + 1)):
                pu = _apply_projection(u, _leading_bases((system,), (r,)))
                proj = sv.GridFunction(u.axes, pu)
                kept, tail = (sv.sobolev_sq(f) for f in (proj, u - proj))
                ek = [(f[0], f[1 + j]) for f in (kept, tail)]
                values = [_root_sum(t) ** 2 for t in (tail[:1], *ek)]
                fresh[j, r] = list(zip(values, scales))
        for rv in itertools.product(range(6), repeat=len(shape)):
            (rep,) = sv.h1_sandwich(u, [rv], systems=systems, derivs=derivs)
            for j, got in enumerate(_single_mode_entries(rep)):
                key = (j, min(rv[j], systems[j].k_max))
                for g, (want, scale) in zip(got, fresh[key]):
                    assert abs(g - want) <= 1e-13 * scale, (name, shape, rv, key)


def test_single_mode_coefficients_match_the_differentiated_grid():
    # E = S^T M(u) with S = D^T W D Q, the stencil moved onto the basis,
    # is (D Q)^T W M(D u) with D u differentiated on the grid, and F is
    # the analysis of u, over every held left vector of each mode
    from sobosvd.truncation import _analysis_map, _single_mode_coeffs, _stencil_gram
    from sobosvd.tensor_core import matricize

    for name, shape in _SINGLE_MODE_CASES:
        u = sv.sample_case(sv.get_case(name), shape)
        for j, system in enumerate(sv.mode_svds(u)):
            q = system.left_vectors
            dq, _ = _stencil_gram(u, q, j)
            f, e = _single_mode_coeffs(u, q, dq, j)
            du = sv.partial_derivative(u, j).values
            for got, grid, basis in ((f, u.values, q), (e, du, dq)):
                want = matricize(sv.mode_product(grid, _analysis_map(u, basis, j), j), j)
                assert got.shape == want.shape
                gap = np.max(np.abs(got - want))
                assert gap <= 1e-13 * np.max(np.abs(want)), (name, shape, j)


def test_single_mode_explicit_ranks():
    result = run_experiment(_config("BROWNIAN", [33, 33], _UNEQUAL_RANKS), edge_cases=True)
    statuses = {c["name"]: c["status"] for c in result.report["checks"]}
    # sandwich fails on the unequal vectors through the residual_h1
    # upper bracket (ROADMAP item 3), which no single-mode entry enters
    assert statuses.pop("sandwich") == "fail"
    assert set(statuses.values()) == {"pass"}, statuses
    # one entry per mode per report, the same wherever a pair recurs
    k_max = [len(s["sigmas"]) for s in result.report["spectra"]]
    seen = {}
    for rv, rep in zip(_UNEQUAL_RANKS["explicit"], result.report["reports"]):
        for j, entry in enumerate(_single_mode_entries(rep)):
            assert seen.setdefault((j, min(rv[j], k_max[j])), entry) == entry, (rv, j)
    assert len(seen) == 7


@pytest.mark.parametrize("name", ["EXPXY", "BROWNIAN", "SINSUM"])
@pytest.mark.parametrize("shape", [(17, 25), (33, 21)], ids=["17x25", "33x21"])
def test_run_experiment_mode_swap_equivariance(tmp_path, name, shape):
    # u and its transpose, run from sample files with their axes and
    # ranks swapped, get the same statuses, and each report's single-mode
    # entry of mode j is the other run's entry of mode 1 - j
    u = sv.sample_case(sv.get_case(name), shape)
    ranks = [[1, 2], [3, 1], [2, 2], [0, 3], [5, 5]]
    results = []
    for label, f, rvs in [
        ("u", u, ranks),
        ("ut", sv.GridFunction(u.axes[::-1], u.values.T), [rv[::-1] for rv in ranks]),
    ]:
        sv.save_samples(f, tmp_path / f"{label}.raw")
        cfg = ExperimentConfig.from_dict(
            {"function": {"file": f"{label}.raw"}, "ranks": {"explicit": rvs}},
            base_dir=tmp_path,
        )
        results.append(run_experiment(cfg, edge_cases=True))
    statuses = [[c["status"] for c in res.report["checks"]] for res in results]
    assert statuses[0] == statuses[1]
    sq = sv.sobolev_sq(u)
    reports, swapped = (res.report["reports"] for res in results)
    for rv, rep, rep_t in zip(ranks, reports, swapped):
        entries, entries_t = _single_mode_entries(rep), _single_mode_entries(rep_t)[::-1]
        for j, (entry, entry_t) in enumerate(zip(entries, entries_t)):
            ek_scale = sq[0] + sq[1 + j]
            for got, want, scale in zip(entry, entry_t, (sq[0], ek_scale, ek_scale)):
                assert abs(got - want) <= 1e-12 * scale, (rv, j)


@pytest.mark.parametrize(
    "c, passed, statuses",
    [
        (1e-300, False, "ppppppfpp"),
        (1e-160, False, "ppppppfpp"),
        (1.0, True, "ppppppppp"),
        (1e160, False, "fffffffpp"),
        (1e300, False, "fffffffpp"),
    ],
)
def test_run_experiment_statuses_across_scales(tmp_path, c, passed, statuses):
    # the statuses of the default checks and the edge checks on BROWNIAN
    # 65^2 scaled by c, as measured before the projections were measured
    # through D_j u: a NaN or inf from an overflowing scale still fails a
    # check through its verdict (the vacuous passes at tiny scales are
    # ROADMAP item 2)
    u = sv.sample_case(sv.get_case("BROWNIAN"), (65, 65))
    sv.save_samples(sv.GridFunction(u.axes, c * u.values), tmp_path / "s.raw")
    cfg = ExperimentConfig.from_dict(
        {"function": {"file": "s.raw"}, "ranks": {"sweep": {"from": 1, "to": 4}}},
        base_dir=tmp_path,
    )
    result = run_experiment(cfg, edge_cases=True)
    assert result.passed is passed
    got = "".join(ch["status"][0] for ch in result.report["checks"])
    assert got == statuses


def test_run_experiment_writes_strict_json_or_nothing(tmp_path):
    # BROWNIAN 65^2 scaled by 1e300 overflows into NaN and infinity in the
    # report: run_experiment raises before either file is written, and
    # the CLI exits 1
    u = sv.sample_case(sv.get_case("BROWNIAN"), (65, 65))
    sv.save_samples(sv.GridFunction(u.axes, 1e300 * u.values), tmp_path / "s.raw")
    data = {"function": {"file": "s.raw"}, "ranks": {"sweep": {"from": 1, "to": 4}}}
    out = tmp_path / "out"
    with np.errstate(all="ignore"), pytest.raises(SobosvdError, match="non-finite"):
        run_experiment(ExperimentConfig.from_dict(data, tmp_path), out_dir=out, edge_cases=True)
    config = write_config(tmp_path, {**data, "output": "out"})
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(config)]) == 1
    assert not (out / "report.json").exists() and not (out / "sigma.csv").exists()


@pytest.mark.parametrize("case, n", [("EXPXY", 257), ("BROWNIAN", 65)])
def test_report_holds_each_modes_held_vector_count(case, n):
    # EXPXY takes the low-rank route, numerical rank + 8 vector columns;
    # BROWNIAN fails its screen and holds all k_max
    cfg = ExperimentConfig.from_dict(
        {"function": {"case": case}, "grid": {"n": [n, n]}, "ranks": {"explicit": [[1, 1]]}}
    )
    for spec in run_experiment(cfg).report["spectra"]:
        low_rank = spec["numerical_rank"] + 8
        assert spec["held_vectors"] == (low_rank if case == "EXPXY" else len(spec["sigmas"]))


def test_diagnostics_bernstein_slope_brownian():
    # Gamma_j(r) grows like r pi for the Brownian covariance, whose
    # singular vectors are sines; the fit stops at the retained count
    cfg = ExperimentConfig.from_dict(
        {"function": {"case": "BROWNIAN"}, "grid": {"n": [65, 65]}}
    )
    block = run_experiment(cfg).report["diagnostics"]
    assert len(block["bernstein_slope"]) == 2
    for slope in block["bernstein_slope"]:
        assert 1.1 <= slope <= 1.3, block


def test_diagnostics_bernstein_slope_needs_three_retained_ranks():
    # SEP1 retains one direction per mode, so one point is left to fit
    cfg = ExperimentConfig.from_dict({"function": {"case": "SEP1"}, "grid": {"n": [17, 17]}})
    result = run_experiment(cfg)
    assert result.report["diagnostics"]["bernstein_slope"] == [None, None]
    assert result.passed


@pytest.mark.parametrize(
    "check, path",
    [
        ("h1_identity", "measured.h1"),
        ("hosvd_bound", "measured.l2"),
        ("quasi_opt", "measured.l2"),
        ("sandwich", "measured.h1"),
    ],
)
def test_check_with_nan_defect_fails(check, path):
    import copy

    import sobosvd.experiment as experiment

    u = sv.sample_case(sv.get_case("SINSUM"), (17, 17))
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    good = sv.h1_sandwich(u, [(r, r) for r in (1, 2)], systems=systems, derivs=derivs)
    # the NaN comes second, in the entry the check reads: a plain running
    # max(worst, nan) would keep worst
    bad = copy.deepcopy(good[1])
    *keys, last = path.split(".")
    entry = bad
    for key in keys:
        entry = entry[key]
    entry[last] = float("nan")

    def run_check(reps):
        run = experiment._Run(u, (), (), (), reps, sv.sobolev_sq(u))
        return experiment._CHECKS[check][0](run, 1e-9)

    status, worst, detail = run_check([good[0], bad])
    assert status == "fail"
    assert worst is None
    assert "non-finite" in detail
    status, worst, _ = run_check(good)
    assert status == "pass"
    assert worst is not None


@pytest.mark.parametrize("case, n", [("SINSUM", 17), ("SUM3D", 9)])
def test_l2_bracket_floor_is_judged(case, n):
    # both L2 checks judge the lower side max_j tail_j: a measured
    # |u - Pu|^2 (the value of both brackets) pushed below it by twice
    # the tolerance, relative to |u|^2, fails hosvd_bound and quasi_opt
    import sobosvd.experiment as experiment

    analytic = sv.get_case(case)
    u = sv.sample_case(analytic, (n,) * analytic.dim)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    reps = sv.h1_sandwich(u, [(r,) * u.ndim for r in (1, 2)], systems=systems, derivs=derivs)
    run = experiment._Run(u, (), (), (), reps, sv.sobolev_sq(u))
    checks = {name: experiment._CHECKS[name][0] for name in ("hosvd_bound", "quasi_opt")}
    tol = 1e-10
    assert all(check(run, tol)[0] == "pass" for check in checks.values())

    # at rank 1, where the floor is far above 2 tol |u|^2 in both cases
    pushed = max(reps[0]["series"]["l2_error_sq"]) - 2 * tol * sv.norm_l2(u) ** 2
    reps[0]["measured"]["l2"] = pushed**0.5
    for name, check in checks.items():
        status, worst, _ = check(run, tol)
        assert status == "fail", name
        assert worst == pytest.approx(2 * tol, rel=1e-6), name


@pytest.mark.parametrize("case, n", [("SINSUM", 17), ("SUM3D", 9)])
def test_each_bracket_is_judged_by_its_check(case, n):
    # a bracket's upper side moved below its value by twice the owning
    # check's default tolerance, relative to that check's norm scale,
    # fails exactly that check. The upper side moves, not the value:
    # measured.l2 is the value of both L2 brackets, and h1_identity reads
    # measured.h1 and approx_h1_sq too, while each bounds key is one
    # bracket's side only
    import copy

    import sobosvd.experiment as experiment

    analytic = sv.get_case(case)
    u = sv.sample_case(analytic, (n,) * analytic.dim)
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    rvs = [(r,) * u.ndim for r in (1, 2)]
    good = sv.h1_sandwich(u, rvs, systems=systems, derivs=derivs)
    run = experiment._Run(u, systems, derivs, tuple(rvs), good, sv.sobolev_sq(u))

    def failing(reps):
        bad_run = dataclasses.replace(run, reports=reps)
        table = experiment._CHECKS.items()
        return [name for name, (check, tol) in table if check(bad_run, tol)[0] == "fail"]

    assert failing(good) == []
    owners = {
        "approx_h1": ("sandwich", "norm_upper", "h1"),
        "residual_h1": ("sandwich", "h1_upper", "h1"),
        "residual_l2": ("hosvd_bound", "l2_tail_sq_sum", "l2"),
        "quasi_opt": ("quasi_opt", "quasi_opt_reference", "l2"),
    }
    for bracket, (owner, key, norm) in owners.items():
        excess = 2 * experiment.DEFAULT_TOLERANCES[owner] * getattr(run, norm) ** 2
        bad = copy.deepcopy(good)
        bad[1]["bounds"][key] = experiment._brackets(bad[1])[bracket][1] - excess
        assert failing(bad) == [owner], bracket
        if norm == "l2":
            # an L2 excess of 2e-10 |u|_0^2 lies within the H1-scaled
            # sandwich slack 1e-9 |u|_1^2, and still fails its L2 check
            assert bracket_holds(bad[1], 1e-9 * run.h1**2)[bracket], bracket


@pytest.mark.parametrize(
    "case, n, ranks",
    [
        ("SINSUM", 17, {"explicit": [[1, 1], [0, 2], [3, 1]]}),
        ("SUM3D", 9, {"explicit": [[1, 2, 1], [2, 2, 2]]}),
    ],
)
def test_rank_report_has_one_representation(case, n, ranks):
    # the report's entries are the objects h1_sandwich returns, called
    # with the run's rank vectors and mode systems
    config = ExperimentConfig.from_dict(
        {"function": {"case": case}, "grid": {"n": [n]}, "ranks": ranks}
    )
    result = run_experiment(config)
    u = sv.sample_case(sv.get_case(case), [n])
    systems = sv.mode_svds(u)
    derivs = tuple(sv.derivative_data(u, s) for s in systems)
    reports = result.report["reports"]
    assert [rep["rank_vector"] for rep in reports] == ranks["explicit"]
    assert sv.h1_sandwich(u, ranks["explicit"], systems=systems, derivs=derivs) == reports
