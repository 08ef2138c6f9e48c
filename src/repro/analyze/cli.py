"""``python -m repro.analyze`` -- the analyzer command line.

Exit status 0 when clean, 1 when any finding survives suppression, the
allowlist and the baseline, 2 on usage errors (including paths that
hold no ``.py`` file, so a mistyped path cannot pass the gate).
Default output is one ``path:line:col: RULE message`` line per finding;
``--format sarif`` emits one SARIF 2.1.0 run listing every rule, for CI
annotation.  ``--baseline FILE`` fails only on findings absent from a
committed SARIF log, matched by (rule, file, message) -- line numbers
are ignored so edits above a known finding do not resurrect it.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from . import (
    ALLOWLIST,
    NAMESPACES,
    RULES,
    Diagnostic,
    analyze_paths,
    iter_python_files,
)

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)

#: A finding's identity for baseline diffing: (rule, uri, message).
Fingerprint = Tuple[str, str, str]


def sarif_report(diagnostics: Iterable[Diagnostic]) -> Dict[str, Any]:
    """One SARIF run over ``diagnostics`` listing every registered rule.

    The syntax-error pseudo-rule is still emitted, just without a
    ``ruleIndex`` back-reference.
    """
    index = {rule.code: i for i, rule in enumerate(RULES)}
    results: List[Dict[str, Any]] = []
    for diag in diagnostics:
        result: Dict[str, Any] = {
            "ruleId": diag.rule,
            "level": "error",
            "message": {"text": diag.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(diag.path).as_posix(),
                        },
                        "region": {
                            "startLine": max(1, diag.line),
                            # SARIF columns are 1-based; ast's are 0-based.
                            "startColumn": max(1, diag.col + 1),
                        },
                    }
                }
            ],
        }
        if diag.rule in index:
            result["ruleIndex"] = index[diag.rule]
        results.append(result)
    rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in RULES
    ]
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "analyze",
                        "version": "1.0.0",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def baseline_fingerprints(sarif: Dict[str, Any]) -> FrozenSet[Fingerprint]:
    """(rule, uri, message) of every result in a SARIF log (any run)."""
    fingerprints = set()
    for run in sarif.get("runs", ()):
        for result in run.get("results", ()):
            uri = ""
            locations = result.get("locations", ())
            if locations:
                uri = (
                    locations[0]
                    .get("physicalLocation", {})
                    .get("artifactLocation", {})
                    .get("uri", "")
                )
            fingerprints.add(
                (
                    result.get("ruleId", ""),
                    uri,
                    result.get("message", {}).get("text", ""),
                )
            )
    return frozenset(fingerprints)


def _list_rules() -> str:
    lines = []
    for namespace in NAMESPACES:
        lines.append(f"{namespace.prefix} rules ({namespace.title}):")
        for rule in namespace.rules:
            lines.append(f"  {rule.code}  {rule.name}")
            lines.append(f"         {rule.description}")
        lines.append("")
    lines.append("allowlisted modules:")
    for entry in ALLOWLIST:
        lines.append(
            f"  {entry.rule}  {entry.module}: {entry.justification}"
        )
    lines.append("")
    lines.append(
        "suppress a single line with `# analyze: ignore[SL001]` "
        "(comma-separate codes; bare `# analyze: ignore` silences all)"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description=(
            "static analysis of the simulator: determinism (SL), message "
            "protocol (FL), state inventory (ST), shard isolation (RC)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and allowlist, then exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        dest="format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary lines",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "SARIF log of accepted findings; only findings absent from "
            "it count toward the exit code"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    files = iter_python_files(args.paths)
    if not files:
        parser.error(f"no python files found under {args.paths!r}")

    baseline: FrozenSet[Fingerprint] = frozenset()
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            parser.error(f"baseline not found: {args.baseline}")
        baseline = baseline_fingerprints(
            json.loads(baseline_path.read_text(encoding="utf-8"))
        )

    found = analyze_paths(files)
    diagnostics = [
        diag
        for diag in found
        if (diag.rule, Path(diag.path).as_posix(), diag.message)
        not in baseline
    ]
    total = len(diagnostics)

    if args.format == "sarif":
        text = json.dumps(sarif_report(diagnostics), indent=2) + "\n"
    else:
        text = "".join(diag.format() + "\n" for diag in diagnostics)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    elif text:
        print(text, end="")

    if not args.quiet and args.format == "text":
        matched = len(found) - total
        if matched:
            print(f"analyze: {matched} baseline finding(s) suppressed")
        if not total:
            verdict = "clean"
        elif baseline:
            verdict = f"{total} new finding(s)"
        else:
            verdict = f"{total} finding(s)"
        print(
            f"analyze: {verdict} -- {len(files)} file(s), "
            f"{len(RULES)} rules"
        )
    return 1 if total else 0
