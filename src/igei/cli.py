"""Command-line interface.

Commands: ``score`` (raw observations to full reports), ``aggregate``
(indicator-score tables to domain and index values), ``report`` (ranking,
descriptive summaries, correlation matrix), ``verify`` (replay of the
bundled reference tables with one pass/fail line per check), and ``demo``
(the five-country comparison of the two scoring variants). The last two
render what :mod:`igei.verify` computes.

Identical inputs produce byte-identical output: ordering is fixed
(descending final index, ties alphabetical), numbers are formatted with
fixed precision (two decimals for index/domain tables, three for
indicator tables), and JSON output carries full precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from igei import dataio, pipeline, stats, verify
from igei.errors import IgeiError, StatisticsError


# --- output helpers --------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IgeiError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)
    ]
    def line(cells: list[str]) -> str:
        # left-align the first (label) column, right-align numbers
        return "  ".join(
            cell.ljust(width) if i == 0 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(cells, widths))
        ).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), rule] + [line(r) for r in rows]) + "\n"


def _render_csv(headers: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(headers)]
    lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(cell: str) -> str:
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _f2(v: float) -> str:
    return f"{v:.2f}"


def _f3(v: float) -> str:
    return f"{v:.3f}"


def _report_json(rep: pipeline.TerritoryReport) -> dict:
    data = {
        "territory": rep.territory,
        "index": rep.index,
        "domains": dict(rep.domain_values),
        "subdomains": {f"{d}/{s}": v for (d, s), v in rep.subdomain_values.items()},
        "indicators": dict(rep.indicator_scores),
    }
    if rep.period is not None:
        data["period"] = rep.period
    return data


def _domain_ids(tree) -> list[str]:
    return [dom.id for dom in tree.domains]


def _ranked_rows(reports, tree) -> tuple[list[str], list[list[str]]]:
    headers = ["territory", "index"] + _domain_ids(tree)
    rows = [
        [rep.territory, _f2(rep.index)]
        + [_f2(rep.domain_values[d]) for d in _domain_ids(tree)]
        for rep in stats.rank_table(reports)
    ]
    return headers, rows


def _findings_text(report: dataio.ValidationReport) -> str:
    lines = [
        f"{f.level}: {f.code}: territory={f.territory!r} indicator={f.indicator!r}: "
        f"{f.message}"
        for f in report.findings
    ]
    lines.append(
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s); "
        f"refusing to score"
    )
    return "\n".join(lines) + "\n"


def _findings_json(report: dataio.ValidationReport) -> str:
    keys = ("level", "code", "territory", "indicator", "message")
    findings = [{key: getattr(f, key) for key in keys} for f in report.findings]
    return json.dumps({"findings": findings, "errors": len(report.errors)}, indent=2) + "\n"


def _parse_scope(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    scope = [t.strip() for t in arg.split(",") if t.strip()]
    if not scope:
        raise IgeiError("--scope must list at least one territory")
    seen: set[str] = set()
    for terr in scope:
        if terr in seen:
            raise IgeiError(f"--scope lists territory {terr!r} more than once")
        seen.add(terr)
    return scope


# --- score -----------------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    specs, tree = dataio.load_index_spec(args.spec)
    dataset = dataio.load_dataset(args.data, decimal_comma=args.decimal_comma)
    # sorted, so that the JSON scope listing does not depend on row order
    scope = _parse_scope(args.scope) or sorted(dataset.territories)
    validation = dataio.validate_dataset(dataset, specs, scope=scope)
    if not validation.ok:
        text = (
            _findings_json(validation)
            if args.format == "json"
            else _findings_text(validation)
        )
        _emit(text, args.out)
        return 1

    if args.time_series:
        by_period = pipeline.score_time_series(dataset, specs, tree, scope=scope)
        if args.format == "json":
            doc = {
                "command": "score",
                "scope": scope,
                "periods": [
                    {"period": p, "reports": [
                        _report_json(rep) for rep in stats.rank_table(reps.values())
                    ]}
                    for p, reps in sorted(by_period.items())
                ],
            }
            _emit(json.dumps(doc, indent=2) + "\n", args.out)
            return 0
        blocks = []
        for p, reps in sorted(by_period.items()):
            headers, rows = _ranked_rows(reps.values(), tree)
            if args.format == "csv":
                headers = ["period"] + headers
                rows = [[str(p)] + r for r in rows]
                blocks.append(_render_csv(headers, rows).rstrip("\n"))
            else:
                blocks.append(f"period {p}\n" + _render_table(headers, rows).rstrip("\n"))
        _emit("\n\n".join(blocks) + "\n", args.out)
        return 0

    refs = pipeline.resolve_references(dataset, specs, scope)
    reports = [
        pipeline.score_territory(terr, dataset, specs, tree, refs)
        for terr in dataset.territories
    ]
    _emit(_format_reports(reports, tree, args.format, command="score", scope=scope),
          args.out)
    return 0


def _format_reports(reports, tree, fmt: str, command: str, scope=None) -> str:
    if fmt == "json":
        doc = {"command": command}
        if scope is not None:
            doc["scope"] = scope
        doc["reports"] = [_report_json(rep) for rep in stats.rank_table(reports)]
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        # one row per territory: indicator scores (3 dp), then domain and
        # index values (2 dp)
        leaves = list(tree.leaf_ids())
        headers = ["territory"] + leaves + _domain_ids(tree) + ["index"]
        rows = [
            [rep.territory]
            + [_f3(rep.indicator_scores[leaf]) for leaf in leaves]
            + [_f2(rep.domain_values[d]) for d in _domain_ids(tree)]
            + [_f2(rep.index)]
            for rep in stats.rank_table(reports)
        ]
        return _render_csv(headers, rows)
    headers, rows = _ranked_rows(reports, tree)
    return _render_table(headers, rows)


# --- aggregate -------------------------------------------------------------


def cmd_aggregate(args: argparse.Namespace) -> int:
    _, tree = dataio.load_index_spec(args.spec)
    table = dataio.load_score_table(args.data, decimal_comma=args.decimal_comma)
    reports = [
        pipeline.aggregate_scores(tree, table.row(terr), terr)
        for terr in table.territories
    ]
    _emit(_format_reports(reports, tree, args.format, command="aggregate"), args.out)
    return 0


# --- report ----------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    _, tree = dataio.load_index_spec(args.spec)
    table = dataio.load_score_table(args.data, decimal_comma=args.decimal_comma)
    # sorted, so that the JSON scope listing does not depend on row order
    scope = _parse_scope(args.scope) or sorted(table.territories)
    known = set(table.territories)
    unknown = [t for t in scope if t not in known]
    if unknown:
        raise IgeiError(f"scope territories not in the data: {', '.join(unknown)}")
    reports = {
        terr: pipeline.aggregate_scores(tree, table.row(terr), terr)
        for terr in table.territories
    }

    ranked = stats.rank_table(reports.values())
    leaves = list(tree.leaf_ids())
    summary_columns: dict[str, list[float]] = {"index": [reports[t].index for t in scope]}
    for dom in _domain_ids(tree):
        summary_columns[dom] = [reports[t].domain_values[dom] for t in scope]
    for leaf in leaves:
        summary_columns[leaf] = [reports[t].indicator_scores[leaf] for t in scope]
    summaries = {name: stats.descriptive_summary(vals)
                 for name, vals in summary_columns.items()}
    try:
        corr = stats.correlation_matrix([summary_columns[leaf] for leaf in leaves])
    except StatisticsError as exc:
        if not exc.positions:
            raise
        raise StatisticsError(
            f"correlation is undefined for constant indicator columns "
            f"({', '.join(leaves[i] for i in exc.positions)})"
        ) from None
    positions = range(len(leaves))
    corr_matrix = [[corr[i, j] for j in positions] for i in positions]

    if args.format == "json":
        doc = {
            "command": "report",
            "scope": scope,
            "ranking": [_report_json(rep) for rep in ranked],
            "summaries": {name: asdict(s) for name, s in summaries.items()},
            "correlation": {"indicators": leaves, "matrix": corr_matrix},
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0

    stat_headers = ["column"] + [f.name for f in fields(stats.DescriptiveSummary)]
    stat_rows = [[name] + list(map(_f2, asdict(s).values())) for name, s in summaries.items()]
    corr_headers = ["indicator"] + leaves
    corr_rows = [[leaf] + [_f2(v) for v in row] for leaf, row in zip(leaves, corr_matrix)]
    rank_headers, rank_rows = _ranked_rows(ranked, tree)

    if args.format == "csv":
        render, titles = _render_csv, ("# ranking", "# summaries", "# correlation")
    else:
        render, titles = _render_table, ("Ranking", "Descriptive summaries", "Correlation matrix")
    tables = [(rank_headers, rank_rows), (stat_headers, stat_rows), (corr_headers, corr_rows)]
    sections = [f"{title}\n" + render(*table).rstrip("\n") for title, table in zip(titles, tables)]
    _emit("\n\n".join(sections) + "\n", args.out)
    return 0


# --- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_verify_checks()
    failures = sum(1 for _, status, _ in results if status == verify.FAIL)
    if args.format == "json":
        doc = {
            "command": "verify",
            "checks": [
                {"name": name, "status": status, "detail": detail}
                for name, status, detail in results
            ],
            "failures": failures,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"{status:<15} {name}: {detail}" for name, status, detail in results
        ]
        lines.append(
            f"{len(results) - failures}/{len(results)} checks passed"
            + (f", {failures} failed" if failures else "")
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


# --- demo ------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    rows = [
        [rec.territory, f"{rec.x_w:g}", f"{rec.x_m:g}", f"{rec.x_a:g}",
         _f2(classic), _f2(standard)]
        for rec, classic, standard in verify.demo_scores()
    ]
    headers = ["territory", "x_w", "x_m", "x_a", "score_gei", "score"]
    if args.format == "json":
        doc = {
            "command": "demo",
            "countries": [dict(zip(headers, row)) for row in rows],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_render_csv(headers, rows), args.out)
    else:
        _emit(_render_table(headers, rows), args.out)
    return 0


# --- argument parsing ------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, data: bool, scope: bool) -> None:
    if data:
        parser.add_argument("--data", required=True, help="input data file")
        parser.add_argument(
            "--decimal-comma",
            action="store_true",
            help="read ';'-delimited input with ',' as the decimal separator",
        )
    parser.add_argument("--spec", default=None, help="index spec file (default: bundled)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table)",
    )
    if scope:
        parser.add_argument(
            "--scope",
            default=None,
            help="comma-separated territories used for reference maxima and statistics "
            "(default: all territories in the data)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igei",
        description="Construct composite gender-equality indices from "
        "gender-disaggregated observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score raw observations into territory reports")
    _add_common(p, data=True, scope=True)
    p.add_argument(
        "--time-series",
        action="store_true",
        help="score all periods against references frozen across the whole series",
    )
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "aggregate", help="aggregate an indicator-score table into domain and index values"
    )
    _add_common(p, data=True, scope=False)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser(
        "report", help="emit ranking, descriptive summaries, and correlation matrix"
    )
    _add_common(p, data=True, scope=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="replay the bundled reference tables")
    _add_common(p, data=False, scope=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="print the five-country scoring comparison")
    _add_common(p, data=False, scope=False)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IgeiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
