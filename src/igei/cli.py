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
import gc
import math
import sys
from pathlib import Path

from igei import dataio, pipeline, stats
from igei.errors import IgeiError, ScoringError, StatisticsError


# --- output ---------------------------------------------------------------
#
# A command returns its exit status and its output, which is one of: a JSON
# document (a dict), finished text (a str), or a list of sections
# ``(table title, csv title, headers, formats, rows)``: one %-format per
# column (``_TEXT``, ``_F2`` or ``_F3``) and rows of raw values, as tuples.
# Only ``main`` renders and writes it.

Section = tuple[str, str, list[str], list[str], list[tuple]]
Output = dict | str | list[Section]

# the text of a cell as written, and of f"{v:.2f}" and f"{v:.3f}"
_TEXT, _F2, _F3 = "%s", "%.2f", "%.3f"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IgeiError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _render(fmt: str, output: Output) -> str:
    """The one place that turns a command's output into text in ``fmt``."""
    if isinstance(output, dict):
        import json  # only JSON output needs it: table and CSV runs skip the import

        return json.dumps(output, indent=2) + "\n"
    if isinstance(output, str):
        return output
    as_csv = fmt == "csv"
    render = _render_csv if as_csv else _render_table
    blocks = []
    for table_title, csv_title, headers, formats, rows in output:
        title = csv_title if as_csv else table_title
        block = render(headers, formats, rows).rstrip("\n")
        blocks.append(f"{title}\n{block}" if title else block)
    return "\n\n".join(blocks) + "\n"


def _render_table(headers: list[str], formats: list[str], rows: list[tuple]) -> str:
    """Each row with one %-format: the first (label) column left-aligned, numbers right-aligned."""
    widths = [max(len(header), _width(fmt, cells)) for header, fmt, cells
              in zip(headers, formats, zip(*rows) if rows else [()] * len(headers))]
    # "%.2f" seven wide is "%7.2f", and "%-7.2f" in the first column
    lead = ["-"] + [""] * (len(widths) - 1)
    line = "  ".join(map("%{}{}{}".format, lead, widths, [fmt[1:] for fmt in formats]))
    head = "  ".join(map("%{}{}s".format, lead, widths)) % tuple(headers)
    body = map(str.rstrip, map(line.__mod__, rows))
    return "\n".join([head.rstrip(), "  ".join("-" * w for w in widths), *body]) + "\n"


def _width(fmt: str, cells: tuple) -> int:
    """The length of a column's longest formatted cell: above 0, fixed-decimal text
    does not get shorter as the value grows (and a NaN makes the sum NaN)."""
    if fmt != _TEXT and cells and min(cells) > 0 and sum(cells) < math.inf:
        return len(fmt % max(cells))
    return max(map(len, map(fmt.__mod__, cells)), default=0)


def _render_csv(headers: list[str], formats: list[str], rows: list[tuple]) -> str:
    """One %-format per row; only a text cell can hold a ',', '"' or line break."""
    for k, fmt in enumerate(formats):
        if fmt == _TEXT and _quoted("".join([row[k] for row in rows])):
            rows = [(*row[:k], _csv_cell(row[k]), *row[k + 1:]) for row in rows]
    line = ",".join(formats).__mod__
    return "\n".join([",".join(map(_csv_cell, headers)), *map(line, rows)]) + "\n"


def _quoted(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _csv_cell(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _quoted(cell) else cell


def _reports_json(table: pipeline.TableReport, period: int | None = None) -> list[dict]:
    """Rows best first, at full precision."""
    subdomains = [(f"{d}/{s}", col) for (d, s), col in table.subdomain_values.items()]
    docs = []
    for i in stats.rank_order(table.index, table.territories):
        data = {
            "territory": table.territories[i],
            "index": table.index[i],
            "domains": {dom: col[i] for dom, col in table.domain_values.items()},
            "subdomains": {name: col[i] for name, col in subdomains},
            "indicators": {leaf: col[i] for leaf, col in table.indicator_scores.items()},
        }
        if period is not None:
            data["period"] = period
        docs.append(data)
    return docs


def _ranking(
    table: pipeline.TableReport, titles: tuple[str, str] = ("", ""), wide: bool = False
) -> Section:
    """Rows best first: index, then domains (2 dp); ``wide`` lists the
    indicators (3 dp) and domains before the index."""
    order = stats.rank_order(table.index, table.territories)
    # each column's values in rank order
    ranked = lambda col: map(col.__getitem__, order)  # noqa: E731
    domains = [ranked(col) for col in table.domain_values.values()]
    index = ranked(table.index)
    if wide:
        leaves = [ranked(col) for col in table.indicator_scores.values()]
        headers = [*table.indicator_scores, *table.domain_values, "index"]
        formats = [_F3] * len(leaves) + [_F2] * (len(domains) + 1)
        columns = [ranked(table.territories), *leaves, *domains, index]
    else:
        headers = ["index", *table.domain_values]
        formats = [_F2] * len(headers)
        columns = [ranked(table.territories), index, *domains]
    return (*titles, ["territory", *headers], [_TEXT, *formats], list(zip(*columns)))


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


# --- score and aggregate ---------------------------------------------------


def cmd_score(args: argparse.Namespace) -> tuple[int, Output]:
    specs, tree = dataio.load_index_spec(args.spec)
    dataset = dataio.load_dataset(args.data, decimal_comma=args.decimal_comma)
    # sorted, so that the JSON scope listing does not depend on row order
    scope = _parse_scope(args.scope) or sorted(dataset.territories)
    if not scope:  # no --scope, and no observation to take one from
        raise ScoringError("dataset has no observations")
    validation = dataio.validate_dataset(dataset, specs, scope=scope)
    if not validation.ok:
        keys = ["level", "code", "territory", "indicator", "message"]
        if args.format == "json":
            findings = [{key: getattr(f, key) for key in keys} for f in validation.findings]
            return 1, {"findings": findings, "errors": len(validation.errors)}
        if args.format == "csv":
            return 1, [("", "", keys, [_TEXT] * len(keys),
                         [tuple(getattr(f, key) for key in keys) for f in validation.findings])]
        lines = [f"{f.level}: {f.code}: territory={f.territory!r} indicator={f.indicator!r}: "
                 f"{f.message}" for f in validation.findings]
        lines.append(f"{len(validation.errors)} error(s), {len(validation.warnings)} warning(s); "
                     "refusing to score")
        return 1, "\n".join(lines) + "\n"

    if args.time_series:
        by_period = pipeline.score_series_tables(dataset, specs, tree, scope=scope).items()
        if args.format == "json":
            return 0, {"command": "score", "scope": scope, "periods": [
                {"period": p, "reports": _reports_json(table, p)} for p, table in by_period
            ]}
        if args.format == "csv":
            # one table, led by a period column
            rows = []
            for p, table in by_period:
                _, _, headers, formats, ranked = _ranking(table)
                period = str(p)
                rows += [(period, *r) for r in ranked]
            return 0, [("", "", ["period", *headers], [_TEXT, *formats], rows)]
        return 0, [_ranking(table, (f"period {p}", "")) for p, table in by_period]

    refs = pipeline.resolve_references(dataset, specs, scope)
    table = pipeline.score_table(dataset, specs, tree, refs)
    return 0, _ranked_output(args.format, table, command="score", scope=scope)


def cmd_aggregate(args: argparse.Namespace) -> tuple[int, Output]:
    _, tree = dataio.load_index_spec(args.spec)
    table = dataio.load_score_table(args.data, decimal_comma=args.decimal_comma)
    return 0, _ranked_output(args.format, pipeline.aggregate_table(tree, table),
                             command="aggregate")


def _ranked_output(fmt: str, table: pipeline.TableReport, **doc) -> Output:
    """The JSON document, or one ranking: wide in CSV, narrow in a table."""
    if fmt == "json":
        return {**doc, "reports": _reports_json(table)}
    return [_ranking(table, wide=fmt == "csv")]


# --- report ----------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> tuple[int, Output]:
    _, tree = dataio.load_index_spec(args.spec)
    table = dataio.load_score_table(args.data, decimal_comma=args.decimal_comma)
    scope = _parse_scope(args.scope)
    if scope:
        known = set(table.territories)
        if unknown := [t for t in scope if t not in known]:
            raise IgeiError(f"scope territories not in the data: {', '.join(unknown)}")
    columns = pipeline.aggregate_table(tree, table)
    named = {"index": columns.index, **columns.domain_values, **columns.indicator_scores}
    if scope and len(scope) < len(table.territories):
        # the scope's rows, in table order: no statistic depends on the order
        in_scope = set(scope)
        rows = [i for i, terr in enumerate(table.territories) if terr in in_scope]
        named = {name: list(map(column.__getitem__, rows)) for name, column in named.items()}
    count = len(scope or table.territories)
    if count < 3:
        where = " in --scope" if scope else ""
        raise StatisticsError(f"report needs at least 3 territories{where}, got {count}")
    leaves = list(tree.leaf_ids())
    try:
        summaries, corr = stats.report_statistics(named, leaves)
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
        return 0, {
            "command": "report",
            # sorted, so that the JSON scope listing does not depend on row order
            "scope": scope or sorted(table.territories),
            "ranking": _reports_json(columns),
            "summaries": {name: s._asdict() for name, s in summaries.items()},
            "correlation": {"indicators": leaves, "matrix": corr_matrix},
        }
    return 0, [
        _ranking(columns, ("Ranking", "# ranking")),
        ("Descriptive summaries", "# summaries",
         ["column", *stats.DescriptiveSummary._fields],
         [_TEXT] + [_F2] * len(stats.DescriptiveSummary._fields),
         [(name, *s._asdict().values()) for name, s in summaries.items()]),
        ("Correlation matrix", "# correlation", ["indicator", *leaves],
         [_TEXT] + [_F2] * len(leaves),
         [(leaf, *row) for leaf, row in zip(leaves, corr_matrix)]),
    ]


# --- verify and demo -------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> tuple[int, Output]:
    from igei import verify  # only verify and demo replay the bundled tables

    results = verify.run_verify_checks()
    failures = sum(1 for _, status, _ in results if status == verify.FAIL)
    exit_status = 1 if failures else 0
    if args.format == "json":
        checks = [{"name": name, "status": status, "detail": detail}
                  for name, status, detail in results]
        return exit_status, {"command": "verify", "checks": checks, "failures": failures}
    if args.format == "csv":
        return exit_status, [("", "", ["status", "check", "detail"], [_TEXT] * 3,
                              [(status, name, detail) for name, status, detail in results])]
    lines = [f"{status:<15} {name}: {detail}" for name, status, detail in results]
    lines.append(f"{len(results) - failures}/{len(results)} checks passed"
                 + (f", {failures} failed" if failures else ""))
    return exit_status, "\n".join(lines) + "\n"


def cmd_demo(args: argparse.Namespace) -> tuple[int, Output]:
    from igei import verify

    rows = [
        (rec.territory, f"{rec.x_w:g}", f"{rec.x_m:g}", f"{rec.x_a:g}",
         _F2 % classic, _F2 % standard)
        for rec, classic, standard in verify.demo_scores()
    ]
    headers = ["territory", "x_w", "x_m", "x_a", "score_gei", "score"]
    if args.format == "json":
        return 0, {"command": "demo", "countries": [dict(zip(headers, row)) for row in rows]}
    return 0, [("", "", headers, [_TEXT] * len(headers), rows)]


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
    collecting = gc.isenabled()
    gc.disable()  # a command's data hold no reference cycles: collecting them only costs time
    try:
        status, output = args.func(args)
        _emit(_render(args.format, output), args.out)
    except IgeiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        (gc.enable if collecting else gc.disable)()
    return status


if __name__ == "__main__":
    sys.exit(main())
