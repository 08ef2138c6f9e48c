"""SL (determinism) rule suite.

Every rule must (a) catch its hazard in a positive fixture, (b) stay
quiet when the finding line carries a ``# analyze: ignore[RULE]``
comment, and (c) stay quiet when the module is allowlisted.  A meta-test
asserts the repository's own ``src/`` tree is clean, which is what makes
the CI analyze gate meaningful.
"""

import json

import pytest

from repro.analyze import (
    ALLOWLIST,
    SYNTAX_ERROR,
    AllowlistEntry,
    analyze_sources,
    iter_python_files,
)
from repro.analyze.lint_rules import LINT_RULES as RULES

from . import test_analyze as cli

RULE_CODES = [rule.code for rule in RULES]


def lint_source(source, path="<string>", module_path="fixture.py"):
    return [
        d
        for d in analyze_sources([(path, module_path, source)])
        if d.rule.startswith("SL") or d.rule == SYNTAX_ERROR
    ]


def codes(source, module_path="repro/sim/fixture.py", path="fixture.py"):
    return [
        d.rule
        for d in lint_source(source, path=path, module_path=module_path)
    ]


# ----------------------------------------------------------------------
# per-rule fixtures: (source, module_path, line_to_suppress)
# ----------------------------------------------------------------------
FIXTURES = {
    "SL001": (
        "import time\n"
        "def f():\n"
        "    return time.time()\n",
        "repro/sim/fixture.py",
        3,
    ),
    "SL002": (
        "import random\n"
        "def f():\n"
        "    return random.random()\n",
        "repro/balance/fixture.py",
        1,
    ),
    "SL003": (
        "def f(sim, banks):\n"
        "    for b in set(banks):\n"
        "        sim.schedule(1, b)\n",
        "repro/bridge/fixture.py",
        2,
    ),
    "SL004": (
        "class L:\n"
        "    def f(self, n):\n"
        "        self.delay = n / 2\n",
        "repro/links/fixture.py",
        3,
    ),
    "SL005": (
        "from repro.sim import Component\n"
        "class B(Component):\n"
        "    def f(self, xs=[]):\n"
        "        return xs\n",
        "repro/ndp/fixture.py",
        3,
    ),
    "SL006": (
        "def f(sim, tasks):\n"
        "    for t in tasks:\n"
        "        sim.schedule(1, lambda: go(t))\n",
        "repro/ndp/fixture.py",
        3,
    ),
    "SL007": (
        "def key_of(name):\n"
        "    return hash(name) % 64\n",
        "repro/runtime/fixture.py",
        2,
    ),
    "SL008": (
        "def f(xs):\n"
        "    return sorted(xs, key=lambda x: id(x))\n",
        "repro/bridge/fixture.py",
        2,
    ),
}


def test_every_rule_has_a_fixture():
    assert set(FIXTURES) == set(RULE_CODES)
    assert len(RULES) >= 6


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


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_respects_allowlist(code, monkeypatch):
    source, module_path, _ = FIXTURES[code]
    entry = AllowlistEntry(
        rule=code,
        module=module_path,
        justification="fixture: testing the allowlist mechanism",
    )
    monkeypatch.setattr("repro.analyze.ALLOWLIST", ALLOWLIST + (entry,))
    assert code not in codes(source, module_path)


# ----------------------------------------------------------------------
# negatives: sanctioned idioms must NOT be flagged
# ----------------------------------------------------------------------
def test_sorted_set_iteration_is_clean():
    src = (
        "def f(sim, banks):\n"
        "    for b in sorted(set(banks)):\n"
        "        sim.schedule(1, b)\n"
    )
    assert codes(src, "repro/bridge/fixture.py") == []


def test_set_membership_without_iteration_is_clean():
    src = (
        "def f(sim, live, uid):\n"
        "    live = set(live)\n"
        "    if uid in live:\n"
        "        sim.schedule(1, print)\n"
    )
    assert codes(src, "repro/bridge/fixture.py") == []


def test_set_attribute_iteration_is_flagged():
    src = (
        "class B:\n"
        "    def __init__(self):\n"
        "        self._pending = set()\n"
        "    def f(self, sim):\n"
        "        for uid in self._pending:\n"
        "            sim.schedule(1, print)\n"
    )
    assert "SL003" in codes(src, "repro/bridge/fixture.py")


def test_int_laundered_division_is_clean():
    src = (
        "import math\n"
        "class L:\n"
        "    def f(self, n, bw):\n"
        "        self.delay = math.ceil(n / bw)\n"
        "        self.busy_cycles = int(n / bw)\n"
    )
    assert codes(src, "repro/links/fixture.py") == []


def test_float_time_outside_scoped_dirs_is_clean():
    source, _, _ = FIXTURES["SL004"]
    assert codes(source, "repro/analysis/fixture.py") == []


def test_bandwidth_names_are_not_time_names():
    src = "class L:\n    def f(self, n):\n        self.bytes_per_cycle = n / 2\n"
    assert codes(src, "repro/links/fixture.py") == []


def test_default_bound_lambda_is_clean():
    src = (
        "def f(sim, tasks):\n"
        "    for t in tasks:\n"
        "        sim.schedule(1, lambda t=t: go(t))\n"
    )
    assert codes(src, "repro/ndp/fixture.py") == []


def test_wall_clock_allowed_in_benchmarks():
    src = "import time\nstart = time.time()\n"
    diags = lint_source(
        src, path="benchmarks/bench_x.py", module_path="bench_x.py"
    )
    assert diags == []


def test_lambda_outside_loop_is_clean():
    src = "def f(sim, task):\n    sim.schedule(1, lambda: go(task))\n"
    assert codes(src, "repro/ndp/fixture.py") == []


def test_comprehension_lambda_is_flagged():
    src = (
        "def f(sim, tasks):\n"
        "    return [sim.schedule(1, lambda: go(t)) for t in tasks]\n"
    )
    assert "SL006" in codes(src, "repro/ndp/fixture.py")


def test_id_in_comparison_is_flagged():
    src = (
        "def f(a, b):\n"
        "    return id(a) < id(b)\n"
    )
    assert "SL008" in codes(src, "repro/sim/fixture.py")


def test_id_outside_scoped_dirs_is_clean():
    source, _, _ = FIXTURES["SL008"]
    assert codes(source, "repro/analysis/fixture.py") == []


def test_plain_id_call_is_clean():
    # id() as an identity probe (e.g. caching, debug) is fine; only
    # ordering on it is nondeterministic.
    src = (
        "def f(xs, seen):\n"
        "    return [x for x in xs if id(x) not in seen]\n"
    )
    assert codes(src, "repro/bridge/fixture.py") == []


# ----------------------------------------------------------------------
# machinery
# ----------------------------------------------------------------------
def test_allowlist_entries_carry_justifications():
    for entry in ALLOWLIST:
        assert entry.justification.strip(), entry
        assert entry.rule in cli.RULE_CODES, entry


def test_rng_module_is_allowlisted_for_sl002():
    assert ("SL002", "repro/sim/rng.py") in {
        (entry.rule, entry.module) for entry in ALLOWLIST
    }
    assert codes("import random\n", "repro/sim/rng.py") == []


def test_diagnostic_format_is_greppable():
    source, module_path, line = FIXTURES["SL002"]
    diags = lint_source(source, path="x/y.py", module_path=module_path)
    assert diags and diags[0].format().startswith(f"x/y.py:{line}:")
    assert " SL002 " in diags[0].format()


def test_syntax_error_reported_not_crashed():
    diags = lint_source("def f(:\n", path="broken.py")
    assert [d.rule for d in diags] == [SYNTAX_ERROR]


def test_iter_python_files_deterministic_order(tmp_path):
    for name in ("b.py", "a.py", "c.txt"):
        (tmp_path / name).write_text("x = 1\n")
    files = iter_python_files([tmp_path])
    assert [f.name for f in files] == ["a.py", "b.py"]


# ----------------------------------------------------------------------
# meta: the repository itself must be clean, via the real CLI
# ----------------------------------------------------------------------
def test_cli_clean_on_repo_src():
    cli.check_clean_on_repo_src()


def test_cli_exit_1_on_finding(tmp_path):
    cli.check_exit_1_on_finding(tmp_path, "SL")


def test_cli_list_rules():
    cli.check_list_rules("SL")
    assert "repro/sim/rng.py" in cli.cached_cli("--list-rules").stdout


def test_cli_sarif_output(tmp_path):
    cli.check_sarif_output(tmp_path, "SL")


def test_cli_sarif_clean_is_exit_0(tmp_path):
    good = tmp_path / "repro" / "sim" / "ok.py"
    good.parent.mkdir(parents=True)
    good.write_text("x = 1\n")
    proc = cli.run_cli("--format", "sarif", str(good))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["runs"][0]["results"] == []
