"""The analyzer framework and its command line, ``python -m repro.analyze``.

The per-namespace suites (``test_lint``, ``test_flow``, ``test_state``,
``test_race``) pin each rule's detector; this suite pins what the four
namespaces share: the one driver, suppression grammar, allowlist, SARIF
run and exit codes.  ``CASES`` holds one failing fixture per namespace;
the CLI checks below run against it, and each namespace suite binds
them to its own case.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import (
    ALLOWLIST,
    NAMESPACES,
    RULES,
    AllowlistEntry,
    analyze_sources,
    validate_allowlist,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RULE_CODES = [rule.code for rule in RULES]

#: namespace -> (module path, source, rule code, line) of one finding.
CASES = {
    "SL": ("repro/sim/bad.py", "import time\nt = time.time()\n", "SL001", 2),
    "FL": ("repro/bridge/bad.py", "def f(mb, m):\n    mb.enqueue(m)\n",
           "FL002", 2),
    "ST": ("repro/bridge/bad.py", "seen = {}\n", "ST003", 1),
    "RC": ("repro/ndp/bad.py",
           "from repro.exec.shardpool import ForkTransport\n", "RC001", 1),
}


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analyze", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


@functools.lru_cache(maxsize=None)
def cached_cli(*args):
    """``run_cli`` for read-only invocations (``src``, ``--list-rules``),
    run once and shared by every suite that checks them."""
    return run_cli(*args)


def write_case(tmp_path, namespace):
    module_path, source, _code, _line = CASES[namespace]
    bad = tmp_path / module_path
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(source)
    return bad


def check_clean_on_repo_src():
    proc = cached_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "analyze: clean" in proc.stdout


def check_exit_1_on_finding(tmp_path, namespace):
    bad = write_case(tmp_path, namespace)
    _module_path, _source, code, line = CASES[namespace]
    proc = run_cli(str(bad))
    assert proc.returncode == 1
    assert f"{bad}:{line}:" in proc.stdout and f" {code} " in proc.stdout


def check_list_rules(namespace):
    proc = cached_cli("--list-rules")
    assert proc.returncode == 0
    for code in RULE_CODES:
        if code.startswith(namespace):
            assert code in proc.stdout
    assert "analyze: ignore" in proc.stdout


def check_sarif_output(tmp_path, namespace):
    bad = write_case(tmp_path, namespace)
    _module_path, _source, code, line = CASES[namespace]
    out = tmp_path / "analyze.sarif"
    proc = run_cli("--format", "sarif", "-o", str(out), str(bad))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["version"] == "2.1.0"
    (run,) = report["runs"]
    assert run["tool"]["driver"]["name"] == "analyze"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == RULE_CODES
    (result,) = run["results"]
    assert result["ruleId"] == code
    assert rule_ids[result["ruleIndex"]] == code
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == line
    assert region["startColumn"] >= 1  # SARIF columns are 1-based


# ----------------------------------------------------------------------
# the shared command line
# ----------------------------------------------------------------------
def test_cli_lists_every_rule_and_the_allowlist():
    proc = cached_cli("--list-rules")
    assert proc.returncode == 0
    for namespace in NAMESPACES:
        assert f"{namespace.prefix} rules" in proc.stdout
    for entry in ALLOWLIST:
        assert f"{entry.rule}  {entry.module}" in proc.stdout
    assert len(RULES) == 22


@pytest.mark.parametrize("paths", [("srcc",), ("docs",)])
def test_cli_exit_2_when_paths_hold_no_python(paths):
    # A mistyped path must not pass the gate as "clean".
    proc = run_cli(*paths)
    assert proc.returncode == 2
    assert "no python files" in proc.stderr


# ----------------------------------------------------------------------
# driver, suppression grammar, allowlist
# ----------------------------------------------------------------------
#: The per-tool comment each namespace answered to before the merge.
LEGACY_COMMENTS = {
    "SL": "# simlint: ignore",
    "FL": "# simflow: ignore",
    "ST": "# simstate: ignore",
    "RC": "# simrace: ignore",
}


@pytest.mark.parametrize("namespace", sorted(CASES))
def test_legacy_comment_no_longer_suppresses(namespace):
    module_path, source, code, line = CASES[namespace]
    for comment in (f"{LEGACY_COMMENTS[namespace]}[{code}]",
                    LEGACY_COMMENTS[namespace]):
        lines = source.splitlines()
        lines[line - 1] += f"  {comment}"
        found = analyze_sources(
            [("bad.py", module_path, "\n".join(lines) + "\n")]
        )
        assert code in [d.rule for d in found]


@pytest.mark.parametrize(
    "entry,error",
    [
        (AllowlistEntry("XX001", "repro/sim/x.py", "why"), "unknown rule"),
        (AllowlistEntry("SL001", "repro/sim/x.py", "  "), "no justification"),
        # A duplicate of an ST entry in the one table, which also holds
        # SL and RC entries.
        (AllowlistEntry("ST004", "repro/sim/rng.py", "again"), "duplicate"),
    ],
)
def test_allowlist_validator_rejects(entry, error):
    with pytest.raises(ValueError, match=error):
        validate_allowlist(ALLOWLIST + (entry,))
