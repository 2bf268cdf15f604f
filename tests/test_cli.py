"""End-to-end tests for the command-line interface.

Everything runs in process through ``main(argv)`` except one subprocess
check of the installed entry point.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import make_five_net

from gnar import (
    ModelSpec,
    coefficients_to_json,
    fit,
    ic_grid,
    load_network,
    load_series_csv,
    make_coefficients,
    model_spec_from_json,
    model_spec_to_json,
    normalize_by_node_sd,
    save_network,
    search,
    stationarity_margin,
    write_adjacency_csv,
)
from gnar.cli import main


@pytest.fixture
def workdir(tmp_path):
    net = make_five_net()
    save_network(net, tmp_path / "net.json")
    spec = ModelSpec(p=2, s=(1, 1))
    coef = make_coefficients(spec, 5, alpha=[0.2, 0.1],
                             beta=[[0.25], [0.1]], sigma=1.0)
    (tmp_path / "spec.json").write_text(
        json.dumps(model_spec_to_json(spec, net.node_names))
    )
    (tmp_path / "coef.json").write_text(
        json.dumps(coefficients_to_json(spec, coef))
    )
    return tmp_path


def _simulate(workdir, out="sim.csv", n=80, seed=11, extra=()):
    rc = main([
        "simulate", "--net", str(workdir / "net.json"),
        "--spec", str(workdir / "spec.json"),
        "--coef", str(workdir / "coef.json"),
        "--n", str(n), "--seed", str(seed),
        "--out", str(workdir / out), *extra,
    ])
    assert rc == 0
    return workdir / out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic_and_well_formed(workdir):
    a = _simulate(workdir, "a.csv")
    b = _simulate(workdir, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    c = _simulate(workdir, "c.csv", seed=12)
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "A,B,C,D,E"
    assert len(lines) == 81
    series = load_series_csv(a)
    assert series.values.shape == (80, 5)
    assert not np.isnan(series.values).any()


def test_simulate_seed_env_variable_supplies_default(workdir, monkeypatch):
    monkeypatch.setenv("GNAR_SEED", "11")
    rc = main([
        "simulate", "--net", str(workdir / "net.json"),
        "--spec", str(workdir / "spec.json"),
        "--coef", str(workdir / "coef.json"),
        "--n", "80", "--out", str(workdir / "env.csv"),
    ])
    assert rc == 0
    explicit = _simulate(workdir, "explicit.csv", seed=11)
    assert (workdir / "env.csv").read_bytes() == explicit.read_bytes()


def test_malformed_seed_env_variable_is_a_usage_error(workdir, monkeypatch,
                                                     capsys):
    monkeypatch.setenv("GNAR_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate", "--net", str(workdir / "net.json"),
            "--spec", str(workdir / "spec.json"),
            "--coef", str(workdir / "coef.json"), "--n", "20",
        ])
    assert exc.value.code == 2
    assert "GNAR_SEED must be an integer, got 'abc'" in capsys.readouterr().err


def test_simulate_unstable_coefficients_warn_on_stderr(workdir, capsys):
    spec = ModelSpec(p=1, s=(1,))
    coef = make_coefficients(spec, 5, alpha=[0.2], beta=[[0.85]], sigma=1.0)
    (workdir / "hotspec.json").write_text(
        json.dumps(model_spec_to_json(spec, make_five_net().node_names))
    )
    (workdir / "hotcoef.json").write_text(
        json.dumps(coefficients_to_json(spec, coef))
    )
    rc = main([
        "simulate", "--net", str(workdir / "net.json"),
        "--spec", str(workdir / "hotspec.json"),
        "--coef", str(workdir / "hotcoef.json"),
        "--n", "20", "--seed", "1", "--out", str(workdir / "hot.csv"),
    ])
    assert rc == 0
    assert "warning" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit and predict


def test_fit_writes_the_expected_parameter_names(workdir, capsys):
    sim = _simulate(workdir)
    rc = main([
        "fit", "--series", str(sim), "--net", str(workdir / "net.json"),
        "--p", "2", "--s", "1,1",
    ])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert list(blob["coefficients"]) == [
        "alpha1", "beta1.1", "alpha2", "beta2.1"
    ]
    assert blob["model"] == "GNAR(2,[1,1])"
    assert math.isfinite(blob["bic"])
    assert blob["t_eff"] == 78
    assert set(blob["n_obs_per_node"]) == {"A", "B", "C", "D", "E"}


def test_fit_per_group_mode_uses_group_labels(workdir, capsys):
    sim = _simulate(workdir)
    (workdir / "groups.json").write_text(json.dumps(
        {"A": "west", "B": "west", "C": "east", "D": "east", "E": "east"}
    ))
    rc = main([
        "fit", "--series", str(sim), "--net", str(workdir / "net.json"),
        "--p", "1", "--s", "1", "--alpha-mode", "per_group",
        "--groups", str(workdir / "groups.json"),
    ])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert list(blob["coefficients"]) == [
        "alpha1 'east'", "alpha1 'west'",
        "beta1.1 'east'", "beta1.1 'west'",
    ]


def test_fit_optional_csv_outputs(workdir):
    sim = _simulate(workdir)
    rc = main([
        "fit", "--series", str(sim), "--net", str(workdir / "net.json"),
        "--p", "2", "--s", "1,0",
        "--out", str(workdir / "fit.json"),
        "--fitted-out", str(workdir / "fitted.csv"),
        "--residuals-out", str(workdir / "resid.csv"),
    ])
    assert rc == 0
    fitted = load_series_csv(workdir / "fitted.csv")
    resid = load_series_csv(workdir / "resid.csv")
    assert np.isnan(fitted.values[:2]).all()
    observed = load_series_csv(sim).values[2:]
    recon = fitted.values[2:] + resid.values[2:]
    assert np.max(np.abs(recon - observed)) < 1e-12


def test_fit_then_predict_pipeline_with_scores(workdir, capsys):
    sim = _simulate(workdir, n=90)
    history = workdir / "history.csv"
    actuals = workdir / "actuals.csv"
    full = load_series_csv(sim)
    history.write_text("\n".join(sim.read_text().splitlines()[:88]) + "\n")
    actuals.write_text(
        "A,B,C,D,E\n"
        + "\n".join(sim.read_text().splitlines()[88:])
        + "\n"
    )
    rc = main([
        "fit", "--series", str(history), "--net", str(workdir / "net.json"),
        "--p", "2", "--s", "1,1", "--out", str(workdir / "fit.json"),
    ])
    assert rc == 0
    rc = main([
        "predict", "--fit", str(workdir / "fit.json"),
        "--series", str(history), "--h", "3",
        "--actuals", str(actuals),
        "--out", str(workdir / "pred.csv"),
        "--score-out", str(workdir / "score.json"),
    ])
    assert rc == 0
    pred = load_series_csv(workdir / "pred.csv")
    assert pred.values.shape == (3, 5)
    score = json.loads((workdir / "score.json").read_text())
    assert len(score["per_step"]) == 3
    assert abs(score["total"] - sum(score["per_step"])) < 1e-12
    assert all(v >= 0 for v in score["per_step"])
    # horizon 3 exceeds the two actual rows on offer
    rc = main([
        "predict", "--fit", str(workdir / "fit.json"),
        "--series", str(history), "--h", "3",
        "--actuals", str(history),
        "--out", str(workdir / "pred2.csv"),
    ])
    assert rc == 0
    capsys.readouterr()


def test_missing_input_file_gives_structured_error(workdir, capsys):
    rc = main([
        "fit", "--series", str(workdir / "absent.csv"),
        "--net", str(workdir / "net.json"), "--p", "1", "--s", "1",
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "FileNotFoundError"


def test_infinite_series_cell_is_a_data_error_with_its_line(workdir, capfd):
    sim = _simulate(workdir)
    lines = sim.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "inf"
    lines[5] = ",".join(cells)
    bad = workdir / "inf.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main([
        "fit", "--series", str(bad), "--net", str(workdir / "net.json"),
        "--p", "1", "--s", "1",
    ])
    assert rc == 1
    out, err = capfd.readouterr()
    blob = json.loads(err)["error"]
    assert blob["type"] == "DataError"
    assert "line 6" in blob["message"]
    assert "time 5, node 'C'" in blob["message"]
    assert "DLASCL" not in out + err


def test_ragged_series_row_names_its_line(workdir):
    sim = _simulate(workdir)
    lines = sim.read_text().splitlines()
    lines[3] += ",1.0"
    bad = workdir / "ragged.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4: row has 6 cells"):
        load_series_csv(bad)


def test_column_name_mismatch_names_the_offenders(workdir, capsys):
    sim = _simulate(workdir)
    renamed = workdir / "renamed.csv"
    body = sim.read_text().splitlines()[1:]
    renamed.write_text("A,B,C,D,Z\n" + "\n".join(body) + "\n")
    rc = main([
        "fit", "--series", str(renamed), "--net", str(workdir / "net.json"),
        "--p", "1", "--s", "1",
    ])
    assert rc == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "'Z'" in message and "'E'" in message
    assert "--by-position" in message
    rc = main([
        "fit", "--series", str(renamed), "--net", str(workdir / "net.json"),
        "--p", "1", "--s", "1", "--by-position",
        "--out", str(workdir / "bypos.json"),
    ])
    assert rc == 0


def test_series_columns_reordered_by_name(workdir, capsys):
    sim = _simulate(workdir)
    series = load_series_csv(sim)
    shuffled = workdir / "shuffled.csv"
    order = [4, 2, 0, 1, 3]
    rows = [",".join(str(v) for v in row) for row in
            series.values[:, order]]
    shuffled.write_text(
        ",".join(series.node_names[k] for k in order) + "\n"
        + "\n".join(rows) + "\n"
    )
    for path in (sim, shuffled):
        rc = main([
            "fit", "--series", str(path),
            "--net", str(workdir / "net.json"),
            "--p", "1", "--s", "1",
            "--out", str(workdir / f"{path.stem}.fit.json"),
        ])
        assert rc == 0
    a = json.loads((workdir / "sim.fit.json").read_text())
    b = json.loads((workdir / "shuffled.fit.json").read_text())
    assert np.allclose(a["gamma"], b["gamma"], atol=1e-12)


# ---------------------------------------------------------------------------
# grids and searches


def test_ic_grid_table_matches_library_results(workdir):
    sim = _simulate(workdir)
    rc = main([
        "ic-grid", "--series", str(sim), "--net", str(workdir / "net.json"),
        "--p", "2", "--max-stage", "1",
        "--out", str(workdir / "grid.csv"),
        "--best-out", str(workdir / "best.json"),
    ])
    assert rc == 0
    lines = (workdir / "grid.csv").read_text().splitlines()
    assert lines[0] == "b1,b2,value"
    stages = [tuple(int(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
    assert stages == [(0, 0), (0, 1), (1, 0), (1, 1)]
    series = load_series_csv(sim)
    net = load_network(workdir / "net.json")
    expected = ic_grid(series, net, [2], [[(0, 0), (0, 1), (1, 0), (1, 1)]])
    for ln, (_, value) in zip(lines[1:], expected.rows):
        assert float(ln.split(",")[2]) == value
    best = json.loads((workdir / "best.json").read_text())
    assert best["criterion"] == "bic"
    assert best["value"] == expected.best_value
    rebuilt = model_spec_from_json(best["spec"], net.node_names)
    assert rebuilt == expected.best_spec
    assert best["model"].startswith("GNAR(")


def test_net_search_serial_and_parallel_files_are_identical(workdir):
    sim = _simulate(workdir, n=60)
    specs = workdir / "specs.json"
    specs.write_text(json.dumps([{"p": 1, "s": [1]}, {"p": 1, "s": [0]}]))
    common = [
        "net-search", "--series", str(sim), "--specs", str(specs),
        "--n-networks", "6", "--prob", "0.4", "--master-seed", "5",
        "--train-end", "59", "--target", "60",
    ]
    rc = main(common + ["--table-out", str(workdir / "serial.csv"),
                        "--best-net-out", str(workdir / "best_net.json")])
    assert rc == 0
    rc = main(common + ["--jobs", "4",
                        "--table-out", str(workdir / "parallel.csv")])
    assert rc == 0
    serial = (workdir / "serial.csv").read_bytes()
    assert serial == (workdir / "parallel.csv").read_bytes()
    lines = serial.decode().splitlines()
    assert lines[0] == "seed,spec_id,error"
    assert len(lines) == 13
    seeds = {int(ln.split(",")[0]) for ln in lines[1:]}
    assert seeds == {5, 6, 7, 8, 9, 10}
    best = load_network(workdir / "best_net.json")
    assert best.n_nodes == 5
    assert best.node_names == ("A", "B", "C", "D", "E")


def test_net_search_normalize_matches_library_pipeline(workdir):
    sim = _simulate(workdir, n=50)
    specs = workdir / "specs.json"
    specs.write_text(json.dumps([{"p": 1, "s": [1]}]))
    rc = main([
        "net-search", "--series", str(sim), "--specs", str(specs),
        "--n-networks", "4", "--prob", "0.3", "--master-seed", "2",
        "--train-end", "49", "--target", "50", "--normalize",
        "--table-out", str(workdir / "norm.csv"),
    ])
    assert rc == 0
    series, _ = normalize_by_node_sd(load_series_csv(sim), 49)
    expected = search(series, [ModelSpec(p=1, s=(1,))], n_networks=4,
                      prob=0.3, master_seed=2, train_end=49, target=50)
    lines = (workdir / "norm.csv").read_text().splitlines()[1:]
    got = [(int(a), int(b), float(c)) for a, b, c in
           (ln.split(",") for ln in lines)]
    assert got == [(s, j, pytest.approx(e, abs=0.0)) for s, j, e in
                   expected.table]


# ---------------------------------------------------------------------------
# conversion and stationarity


def test_convert_round_trips_an_adjacency_matrix(workdir):
    net = make_five_net()
    write_adjacency_csv(net, workdir / "adj.csv")
    rc = main([
        "convert", "--from-adjacency", str(workdir / "adj.csv"),
        "--to-network", str(workdir / "net2.json"),
    ])
    assert rc == 0
    rc = main([
        "convert", "--from-network", str(workdir / "net2.json"),
        "--to-adjacency", str(workdir / "adj2.csv"),
    ])
    assert rc == 0
    assert (workdir / "adj.csv").read_text() == \
        (workdir / "adj2.csv").read_text()
    rebuilt = load_network(workdir / "net2.json")
    assert rebuilt.edges == net.edges
    assert rebuilt.node_names == net.node_names


def test_check_stationarity_reports_margins(workdir, capsys):
    rc = main([
        "check-stationarity", "--net", str(workdir / "net.json"),
        "--spec", str(workdir / "spec.json"),
        "--coef", str(workdir / "coef.json"),
    ])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob["margins"]) == {"A", "B", "C", "D", "E"}
    assert blob["sufficient_condition_holds"] is True
    assert abs(blob["max_margin"] - 0.65) < 1e-12
    spec = ModelSpec(p=1, s=(1,))
    coef = make_coefficients(spec, 5, alpha=[0.2], beta=[[0.85]], sigma=1.0)
    check = stationarity_margin(spec, coef)
    assert not check.sufficient_condition_holds


# ---------------------------------------------------------------------------
# exit codes and entry point


def test_usage_errors_exit_with_code_two(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--series", "x.csv", "--net", "y.json", "--s", "1"])
    assert exc.value.code == 2
    sim = _simulate(workdir, n=20)
    with pytest.raises(SystemExit) as exc:
        main([
            "fit", "--series", str(sim),
            "--net", str(workdir / "net.json"), "--p", "2", "--s", "1",
        ])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([
            "fit", "--series", str(sim),
            "--net", str(workdir / "net.json"), "--p", "1", "--s", "x",
        ])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--from-adjacency", "a.csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gnar", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "usage: gnar" in proc.stdout
    assert "net-search" in proc.stdout
