"""ST (state inventory) rule suite.

Mirrors the SL/FL contract: every ST rule must (a) catch its
hazard in a positive fixture, (b) stay quiet under a
``# analyze: ignore[RULE]`` comment, and (c) stay quiet on a clean
variant of the same code.  Allowlisted module paths are exercised with
a real allowlist entry.  Meta-tests assert the repository's own
simulation tree is clean through the real CLI, and that one gate run
reports every namespace's findings together.
"""

import json
from pathlib import Path

import pytest

from repro.analyze import (
    ALLOWLIST,
    SYNTAX_ERROR,
    analyze_sources,
    build_tree_inventory,
)
from repro.analyze.state_rules import STATE_RULES

from . import test_analyze as cli

REPO_ROOT = Path(__file__).resolve().parent.parent
STATE_RULE_CODES = [rule.code for rule in STATE_RULES]


def codes(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    return [
        d.rule
        for d in analyze_sources([(path, module_path, source)])
        if d.rule.startswith("ST")
    ]


# ----------------------------------------------------------------------
# per-rule fixtures: (source, module_path, line_to_suppress)
# ----------------------------------------------------------------------
FIXTURES = {
    # Attribute materialized mid-run, invisible to the inventory.
    "ST001": (
        "class Unit:\n"
        "    def __init__(self):\n"
        "        self.busy = False\n"
        "    def step(self):\n"
        "        self.backlog = []\n",
        "repro/ndp/fixture.py",
        5,
    ),
    # An open file handle stored on a simulation object.
    "ST002": (
        "class Tracer:\n"
        "    def __init__(self, path):\n"
        "        self.fh = open(path)\n",
        "repro/runtime/fixture.py",
        3,
    ),
    # Module-level mutable cache: invisible to fork/restore.
    "ST003": (
        "seen = {}\n"
        "def mark(k):\n"
        "    seen[k] = True\n",
        "repro/bridge/fixture.py",
        1,
    ),
    # RNG built outside the named-stream facade.
    "ST004": (
        "import random\n"
        "def jitter():\n"
        "    return random.Random(7).random()\n",
        "repro/links/fixture.py",
        3,
    ),
    # Container handed into __init__ and stored with no declared owner.
    "ST005": (
        "from typing import List\n"
        "class View:\n"
        "    def __init__(self, items: List[int]):\n"
        "        self.items = items\n",
        "repro/runtime/fixture.py",
        4,
    ),
}

#: Clean variants of each fixture: same shape, hazard removed.
CLEAN = {
    # The attribute is declared at construction time.
    "ST001": (
        "class Unit:\n"
        "    def __init__(self):\n"
        "        self.busy = False\n"
        "        self.backlog = []\n"
        "    def step(self):\n"
        "        self.backlog = []\n",
        "repro/ndp/fixture.py",
    ),
    # Only the path (a string) is stored; no live handle.
    "ST002": (
        "class Tracer:\n"
        "    def __init__(self, path):\n"
        "        self.path = path\n",
        "repro/runtime/fixture.py",
    ),
    # ALL_CAPS literal table: a read-only constant, exempt.
    "ST003": (
        "LIMITS = {'depth': 4, 'fanout': 8}\n"
        "def limit(k):\n"
        "    return LIMITS[k]\n",
        "repro/bridge/fixture.py",
    ),
    # Substreams derived from the system root are the sanctioned path.
    "ST004": (
        "def jitter(rng):\n"
        "    return rng.substream('link').random()\n",
        "repro/links/fixture.py",
    ),
    # Ownership declared: the view is the sole owner of the list.
    "ST005": (
        "from typing import List\n"
        "class View:\n"
        "    _snapshot_owns_ = ('items',)\n"
        "    def __init__(self, items: List[int]):\n"
        "        self.items = items\n",
        "repro/runtime/fixture.py",
    ),
}


def test_every_rule_has_fixtures():
    assert set(FIXTURES) == set(STATE_RULE_CODES)
    assert set(CLEAN) == set(STATE_RULE_CODES)
    assert len(STATE_RULES) == 5


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_fires_on_hazard(code):
    source, module_path, _ = FIXTURES[code]
    assert code in codes(source, module_path), (
        f"{code} failed to detect its hazard fixture"
    )


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_suppressed_by_ignore_comment(code):
    source, module_path, line = FIXTURES[code]
    lines = source.splitlines()
    lines[line - 1] += f"  # analyze: ignore[{code}] fixture justification"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_suppressed_by_bare_ignore(code):
    source, module_path, line = FIXTURES[code]
    lines = source.splitlines()
    lines[line - 1] += "  # analyze: ignore"
    suppressed = "\n".join(lines) + "\n"
    assert code not in codes(suppressed, module_path)


@pytest.mark.parametrize("code", sorted(CLEAN))
def test_clean_variant_passes(code):
    source, module_path = CLEAN[code]
    assert code not in codes(source, module_path)


def test_simlint_ignore_does_not_silence_simstate():
    source, module_path, line = FIXTURES["ST003"]
    lines = source.splitlines()
    lines[line - 1] += "  # simlint: ignore"
    assert "ST003" in codes("\n".join(lines) + "\n", module_path)


def test_allowlisted_module_is_exempt():
    # repro/runtime/task.py carries a real ST003 allowlist entry (the
    # monotonic task-id counter); the same hazard at that path is quiet,
    # and loud one directory over.
    source = "ids = {}\n"
    assert "ST003" not in codes(source, "repro/runtime/task.py")
    assert "ST003" in codes(source, "repro/runtime/other.py")


def test_allowlist_entries_are_validated():
    state_entries = [e for e in ALLOWLIST if e.rule.startswith("ST")]
    assert len(state_entries) == 4
    for entry in state_entries:
        assert entry.rule in STATE_RULE_CODES
        assert entry.justification.strip()


# ----------------------------------------------------------------------
# scope, inheritance, and inventory mechanics
# ----------------------------------------------------------------------
def test_out_of_scope_modules_are_ignored():
    source, _, _ = FIXTURES["ST003"]
    assert codes(source, "repro/analysis/fixture.py") == []
    assert codes(source, "repro/exec/fixture.py") == []


def test_st001_sees_cross_module_inheritance():
    base = (
        "class Base:\n"
        "    def __init__(self):\n"
        "        self.cursor = 0\n"
    )
    child = (
        "class Child(Base):\n"
        "    def step(self):\n"
        "        self.cursor += 1\n"
    )
    diags = analyze_sources([
        ("base.py", "repro/sim/base_fixture.py", base),
        ("child.py", "repro/ndp/child_fixture.py", child),
    ])
    assert [d.rule for d in diags if d.rule.startswith("ST")] == []


def test_st001_flags_dynamic_setattr():
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def poke(self, name):\n"
        "        setattr(self, name, 1)\n"
    )
    assert "ST001" in codes(source)


def test_st005_callable_annotation_is_not_a_container():
    # A hook parameter whose *signature* mentions List must not trip
    # the alias rule -- the parameter itself is a callable.
    source = (
        "from typing import Callable, List, Optional\n"
        "class Engine:\n"
        "    def __init__(\n"
        "        self,\n"
        "        hook: Optional[Callable[[List[int]], None]] = None,\n"
        "    ):\n"
        "        self.hook = hook\n"
    )
    assert "ST005" not in codes(source, "repro/sim/fixture.py")


def test_dunder_module_metadata_is_exempt():
    source = "__all__ = ['a', 'b']\n"
    assert "ST003" not in codes(source, "repro/sim/fixture.py")


def test_syntax_error_reported_not_crashed():
    diags = analyze_sources(
        [("broken.py", "repro/bridge/broken.py", "def f(:\n")]
    )
    assert [d.rule for d in diags] == [SYNTAX_ERROR]


def test_tree_inventory_covers_component_classes():
    inv = build_tree_inventory([REPO_ROOT / "src"])
    units = inv.classes_named("NDPUnit")
    assert units, "NDPUnit missing from the tree inventory"
    declared = inv.declared_attrs(units[0])
    assert "sim" in declared  # inherited from Component.__init__


# ----------------------------------------------------------------------
# meta: the repository's own simulation tree must be clean, via the CLI
# ----------------------------------------------------------------------
def test_cli_clean_on_repo_src():
    cli.check_clean_on_repo_src()


def test_cli_exit_1_on_finding(tmp_path):
    cli.check_exit_1_on_finding(tmp_path, "ST")


def test_cli_list_rules():
    cli.check_list_rules("ST")


def test_cli_sarif_output(tmp_path):
    cli.check_sarif_output(tmp_path, "ST")


# ----------------------------------------------------------------------
# one gate, every namespace
# ----------------------------------------------------------------------
def test_analyze_clean_on_repo_src():
    proc = cli.cached_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "analyze: clean" in proc.stdout and "22 rules" in proc.stdout


def _two_namespace_file(tmp_path):
    bad = tmp_path / "repro" / "bridge" / "bad.py"
    bad.parent.mkdir(parents=True)
    # One file tripping two namespaces at once.
    bad.write_text("seen = {}\ndef f(mb, m):\n    mb.enqueue(m)\n")
    return bad


def test_analyze_exit_1_and_tool_prefix(tmp_path):
    proc = cli.run_cli(str(_two_namespace_file(tmp_path)))
    assert proc.returncode == 1
    assert " ST003 " in proc.stdout and " FL002 " in proc.stdout
    assert "analyze: 2 finding(s)" in proc.stdout


def test_analyze_merged_sarif(tmp_path):
    out = tmp_path / "merged.sarif"
    proc = cli.run_cli(
        "--format", "sarif", "-o", str(out), str(_two_namespace_file(tmp_path))
    )
    assert proc.returncode == 1
    (run,) = json.loads(out.read_text())["runs"]
    assert [r["ruleId"] for r in run["results"]] == ["ST003", "FL002"]
