"""Command-line interface.

Subcommands: ``fit``, ``simulate``, ``predict``, ``ic-grid``, ``net-search``,
``convert``, ``check-stationarity``.  Exit codes: 0 on success, 1 on model
or data errors (a structured JSON error object goes to stderr), 2 on usage
errors.  All numeric output is written with round-trippable precision, and
repeated runs with the same inputs produce byte-identical output.  The
``GNAR_SEED`` environment variable supplies the default seed where one is
accepted.

Series columns are matched to network nodes by name; ``--by-position``
overrides the check and adopts the network's order.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from .errors import DataError, GnarError, StationarityWarning
from .estimate import coefficients_from_fit_json, fit, fit_result_to_json
from .model import (
    coefficients_from_json,
    coefficients_to_json,
    gamma_from_coefficients,
    model_label,
    model_spec_from_json,
    model_spec_to_json,
    parameter_names,
    stationarity_margin,
    ModelSpec,
)
from .netsearch import full_stage_grid, ic_grid, search
from .network import (
    from_adjacency,
    load_network,
    network_to_json,
    read_adjacency_csv,
    save_network,
    to_adjacency,
    write_adjacency_csv,
)
from .rng import RngStream
from .series import SeriesMatrix, load_series_csv, save_series_csv
from .sim import gnar_simulate


def _default_seed(parser: argparse.ArgumentParser) -> int:
    text = os.environ.get("GNAR_SEED", "0")
    try:
        return int(text)
    except ValueError:
        parser.error(f"GNAR_SEED must be an integer, got {text!r}")


def _fmt(v: float) -> str:
    if math.isnan(v):
        return "NA"
    return format(v, ".17g")


def _emit_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, path: str | None) -> None:
    _emit_text(json.dumps(obj, indent=2) + "\n", path)


def _series_csv_text(series: SeriesMatrix) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(series.node_names)
    for row in series.values:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _align_series(series: SeriesMatrix, net, by_position: bool):
    if tuple(series.node_names) == net.node_names:
        return series
    if by_position:
        if series.n_nodes != net.n_nodes:
            raise DataError(
                f"series has {series.n_nodes} columns, network "
                f"{net.n_nodes} nodes"
            )
        return SeriesMatrix(series.values, net.node_names)
    if set(series.node_names) == set(net.node_names):
        return series.reorder(net.node_names)
    unknown = sorted(set(series.node_names) - set(net.node_names))
    absent = sorted(set(net.node_names) - set(series.node_names))
    raise DataError(
        "series columns do not match network node names "
        f"(unknown: {unknown}, absent: {absent}); pass --by-position to "
        "match by column order instead"
    )


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_stages(text: str, p: int, parser: argparse.ArgumentParser):
    try:
        stages = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        parser.error(f"--s expects comma-separated integers, got {text!r}")
    if len(stages) != p:
        parser.error(f"--s must list exactly {p} stages, got {len(stages)}")
    if any(v < 0 for v in stages):
        parser.error("--s stages must be >= 0")
    return stages


def _load_groups(path: str | None, net):
    if path is None:
        return None
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise DataError("groups file must map node names to labels")
    groups = []
    for key, label in raw.items():
        groups.append((net.id_of(key), str(label)))
    return tuple(groups)


def _build_spec(args, net, parser) -> ModelSpec:
    stages = _parse_stages(args.s, args.p, parser)
    groups = _load_groups(getattr(args, "groups", None), net)
    return ModelSpec(
        p=args.p,
        s=stages,
        n_cov=net.n_cov,
        alpha_mode=args.alpha_mode,
        groups=groups,
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args, parser) -> int:
    net = load_network(args.net)
    series = _align_series(load_series_csv(args.series), net,
                           args.by_position)
    spec = _build_spec(args, net, parser)
    result = fit(series, net, spec)
    _emit_json(fit_result_to_json(result), args.out)
    if args.fitted_out:
        save_series_csv(
            SeriesMatrix(result.fitted, net.node_names), args.fitted_out
        )
    if args.residuals_out:
        save_series_csv(
            SeriesMatrix(result.residuals, net.node_names),
            args.residuals_out,
        )
    return 0


def _cmd_simulate(args, parser) -> int:
    net = load_network(args.net)
    spec = model_spec_from_json(_load_json(args.spec), net.node_names)
    coef = coefficients_from_json(spec, net.n_nodes, _load_json(args.coef))
    rng = RngStream(args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", StationarityWarning)
        series = gnar_simulate(
            net, spec, coef, args.n, rng, burn_in=args.burn_in
        )
    for w in caught:
        if issubclass(w.category, StationarityWarning):
            print(f"warning: {w.message}", file=sys.stderr)
    _emit_text(_series_csv_text(series), args.out)
    return 0


def _cmd_predict(args, parser) -> int:
    net, spec, coef = coefficients_from_fit_json(_load_json(args.fit))
    series = _align_series(load_series_csv(args.series), net,
                           args.by_position)
    from .forecast import predict, prediction_error

    pred = predict(net, spec, coef, series, args.h)
    _emit_text(
        _series_csv_text(SeriesMatrix(pred, net.node_names)), args.out
    )
    if args.actuals:
        actuals = _align_series(load_series_csv(args.actuals), net,
                                args.by_position)
        if actuals.n_times < args.h:
            raise DataError(
                f"actuals have {actuals.n_times} rows; horizon is {args.h}"
            )
        rows = actuals.values[:args.h]
        per_step = [
            prediction_error(pred[k], rows[k]) for k in range(args.h)
        ]
        score = {"per_step": per_step, "total": float(sum(per_step))}
        if args.score_out:
            _emit_json(score, args.score_out)
        else:
            print(json.dumps(score, indent=2), file=sys.stderr)
    return 0


def _cmd_ic_grid(args, parser) -> int:
    net = load_network(args.net)
    series = _align_series(load_series_csv(args.series), net,
                           args.by_position)
    groups = _load_groups(args.groups, net)
    grid = full_stage_grid(args.p, args.max_stage)
    result = ic_grid(
        series,
        net,
        alpha_orders=[args.p],
        beta_grids=[grid],
        criterion=args.criterion,
        alpha_mode=args.alpha_mode,
        groups=groups,
        jobs=args.jobs,
    )
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"b{k}" for k in range(1, args.p + 1)] + ["value"])
    for spec, value in result.rows:
        writer.writerow([*(str(v) for v in spec.s), _fmt(value)])
    _emit_text(buf.getvalue(), args.out)
    if args.best_out:
        _emit_json(
            {
                "model": model_label(result.best_spec),
                "criterion": result.criterion,
                "value": result.best_value,
                "spec": model_spec_to_json(
                    result.best_spec, net.node_names
                ),
            },
            args.best_out,
        )
    return 0


def _cmd_net_search(args, parser) -> int:
    series = load_series_csv(args.series)
    specs_raw = _load_json(args.specs)
    if not isinstance(specs_raw, list):
        raise DataError("specs file must hold a JSON list of model orders")
    specs = [
        model_spec_from_json(obj, series.node_names) for obj in specs_raw
    ]
    if args.normalize:
        from .netsearch import normalize_by_node_sd

        series, _ = normalize_by_node_sd(series, args.train_end)
    result = search(
        series,
        specs,
        n_networks=args.n_networks,
        prob=args.prob,
        master_seed=args.master_seed,
        train_end=args.train_end,
        target=args.target,
        jobs=args.jobs,
    )
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed", "spec_id", "error"])
    for seed, spec_id, error in result.table:
        writer.writerow([str(seed), str(spec_id), _fmt(error)])
    _emit_text(buf.getvalue(), args.table_out)
    if args.best_net_out:
        save_network(result.best_network, args.best_net_out)
    return 0


def _cmd_convert(args, parser) -> int:
    if args.from_adjacency and args.from_network:
        parser.error("pass exactly one of --from-adjacency/--from-network")
    if args.from_adjacency:
        if not args.to_network:
            parser.error("--from-adjacency needs --to-network")
        matrix, names = read_adjacency_csv(args.from_adjacency)
        net = from_adjacency(
            matrix,
            interpret=args.interpret,
            symmetrize=args.symmetrize,
            node_names=names,
        )
        save_network(net, args.to_network)
        return 0
    if args.from_network:
        if not args.to_adjacency:
            parser.error("--from-network needs --to-adjacency")
        net = load_network(args.from_network)
        write_adjacency_csv(net, args.to_adjacency)
        return 0
    parser.error("pass one of --from-adjacency/--from-network")
    return 2  # unreachable


def _cmd_check_stationarity(args, parser) -> int:
    net = load_network(args.net)
    spec = model_spec_from_json(_load_json(args.spec), net.node_names)
    coef = coefficients_from_json(spec, net.n_nodes, _load_json(args.coef))
    check = stationarity_margin(spec, coef)
    _emit_json(
        {
            "margins": dict(
                zip(net.node_names, check.margins.tolist())
            ),
            "max_margin": float(np.max(check.margins)),
            "sufficient_condition_holds": check.sufficient_condition_holds,
        },
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnar",
        description="Network autoregression: fit, simulate, forecast, and "
        "search over random networks.",
    )
    seed = _default_seed(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series_net(p):
        p.add_argument("--series", required=True, help="series CSV")
        p.add_argument("--net", required=True, help="network JSON")
        p.add_argument(
            "--by-position",
            action="store_true",
            help="match series columns to nodes by order, not name",
        )

    p_fit = sub.add_parser("fit", help="least-squares model fit")
    add_series_net(p_fit)
    p_fit.add_argument("--p", type=int, required=True, help="lag order")
    p_fit.add_argument(
        "--s", required=True, help="comma-separated stages, one per lag"
    )
    p_fit.add_argument(
        "--alpha-mode",
        choices=["global", "per_node", "per_group"],
        default="global",
    )
    p_fit.add_argument(
        "--groups", help="JSON file mapping node names to group labels"
    )
    p_fit.add_argument("--out", help="fit JSON output (default stdout)")
    p_fit.add_argument("--fitted-out", help="fitted-values CSV output")
    p_fit.add_argument("--residuals-out", help="residuals CSV output")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate a model")
    p_sim.add_argument("--net", required=True, help="network JSON")
    p_sim.add_argument("--spec", required=True, help="model spec JSON")
    p_sim.add_argument("--coef", required=True, help="coefficient JSON")
    p_sim.add_argument("--n", type=int, required=True, help="series length")
    p_sim.add_argument(
        "--seed",
        type=int,
        default=seed,
        help="stream seed (default: GNAR_SEED or 0)",
    )
    p_sim.add_argument("--burn-in", type=int, default=50)
    p_sim.add_argument("--out", help="series CSV output (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pred = sub.add_parser("predict", help="h-step forecasts from a fit")
    p_pred.add_argument("--fit", required=True, help="fit JSON")
    p_pred.add_argument("--series", required=True, help="history CSV")
    p_pred.add_argument("--h", type=int, required=True)
    p_pred.add_argument("--actuals", help="actuals CSV to score against")
    p_pred.add_argument("--by-position", action="store_true")
    p_pred.add_argument("--out", help="forecast CSV output (default stdout)")
    p_pred.add_argument(
        "--score-out",
        help="score JSON output (default stderr when --actuals is given)",
    )
    p_pred.set_defaults(func=_cmd_predict)

    p_grid = sub.add_parser(
        "ic-grid", help="information-criterion table over stage vectors"
    )
    add_series_net(p_grid)
    p_grid.add_argument("--p", type=int, required=True)
    p_grid.add_argument("--max-stage", type=int, required=True)
    p_grid.add_argument(
        "--criterion", choices=["bic", "aic"], default="bic"
    )
    p_grid.add_argument(
        "--alpha-mode",
        choices=["global", "per_node", "per_group"],
        default="global",
    )
    p_grid.add_argument("--groups")
    p_grid.add_argument("--jobs", type=int, default=1)
    p_grid.add_argument("--out", help="long-format CSV (default stdout)")
    p_grid.add_argument("--best-out", help="argmin JSON output")
    p_grid.set_defaults(func=_cmd_ic_grid)

    p_search = sub.add_parser(
        "net-search", help="random-network prediction search"
    )
    p_search.add_argument("--series", required=True)
    p_search.add_argument(
        "--specs", required=True, help="JSON list of model orders"
    )
    p_search.add_argument("--n-networks", type=int, required=True)
    p_search.add_argument("--prob", type=float, required=True)
    p_search.add_argument(
        "--master-seed",
        type=int,
        default=seed,
        help="first candidate seed (default: GNAR_SEED or 0)",
    )
    p_search.add_argument("--train-end", type=int, required=True)
    p_search.add_argument("--target", type=int, required=True)
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument(
        "--normalize",
        action="store_true",
        help="divide nodes by training-window deviation first",
    )
    p_search.add_argument(
        "--table-out", help="score table CSV (default stdout)"
    )
    p_search.add_argument("--best-net-out", help="best network JSON")
    p_search.set_defaults(func=_cmd_net_search)

    p_conv = sub.add_parser(
        "convert", help="adjacency CSV <-> network JSON"
    )
    p_conv.add_argument("--from-adjacency", help="adjacency CSV input")
    p_conv.add_argument("--to-network", help="network JSON output")
    p_conv.add_argument("--from-network", help="network JSON input")
    p_conv.add_argument("--to-adjacency", help="adjacency CSV output")
    p_conv.add_argument(
        "--interpret", choices=["distances", "weights"],
        default="distances",
    )
    p_conv.add_argument("--symmetrize", action="store_true")
    p_conv.set_defaults(func=_cmd_convert)

    p_check = sub.add_parser(
        "check-stationarity",
        help="per-node coefficient mass against the sufficient bound",
    )
    p_check.add_argument("--net", required=True)
    p_check.add_argument("--spec", required=True)
    p_check.add_argument("--coef", required=True)
    p_check.add_argument("--out", help="JSON output (default stdout)")
    p_check.set_defaults(func=_cmd_check_stationarity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except GnarError as exc:
        _print_error(exc)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _print_error(exc)
        return 1


def _print_error(exc: Exception) -> None:
    payload = {
        "error": {"type": type(exc).__name__, "message": str(exc)}
    }
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
