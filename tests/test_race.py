"""RC (shard isolation) rule suite.

Mirrors the SL/FL/ST contract: every RC rule must
(a) catch its hazard in a positive fixture, (b) stay quiet under a
``# analyze: ignore[RULE]`` comment, and (c) stay quiet on a clean
variant of the same code.  The fingerprint registry and its cache-key
cross-check are exercised directly, and meta-tests assert the
repository's own tree is clean through the real CLI -- plus the
``--baseline`` mode of the analyze gate.
"""

import json

import pytest

from repro.analyze import SYNTAX_ERROR, analyze_sources
from repro.analyze.cli import baseline_fingerprints
from repro.exec import cache as exec_cache
from repro.race import ENV_REGISTRY
from repro.race.fingerprints import (
    fingerprint_field_of,
    fingerprinted_knobs,
    is_registered,
    registered_names,
)

from . import test_analyze as cli


def race_source(source, path="<string>", module_path="fixture.py"):
    return [
        d
        for d in analyze_sources([(path, module_path, source)])
        if d.rule.startswith("RC") or d.rule == SYNTAX_ERROR
    ]


def codes(source, module_path="repro/ndp/fixture.py", path="fixture.py"):
    return [
        d.rule
        for d in race_source(source, path=path, module_path=module_path)
    ]


# ----------------------------------------------------------------------
# RC001 -- shard isolation
# ----------------------------------------------------------------------
RC001_ABS = "from repro.exec.shardpool import ForkTransport\n"
RC001_REL = "from ..exec.shardpool import ForkTransport\n"
RC001_PLAIN = "import repro.exec.shardpool\n"
RC001_PRIVATE = "from ..sim.sharded import _InlineTransport\n"


def test_rc001_absolute_import_of_shardpool():
    assert codes(RC001_ABS) == ["RC001"]


def test_rc001_relative_import_of_shardpool():
    assert codes(RC001_REL, module_path="repro/bridge/host.py") == ["RC001"]


def test_rc001_plain_import_of_shardpool():
    assert codes(RC001_PLAIN, module_path="repro/balance/x.py") == ["RC001"]


def test_rc001_private_sharded_internals():
    assert codes(RC001_PRIVATE, module_path="repro/ndp/unit.py") == ["RC001"]


def test_rc001_public_shard_protocol_is_clean():
    clean = "from ..sim.sharded import ShardRuntime, BoundaryMessage\n"
    assert codes(clean, module_path="repro/ndp/unit.py") == []


def test_rc001_out_of_scope_module_is_clean():
    # exec/ and runtime/ are coordinator-side: they may import the
    # transport.
    assert codes(RC001_ABS, module_path="repro/runtime/shards.py") == []
    assert codes(RC001_ABS, module_path="repro/exec/runner.py") == []


# ----------------------------------------------------------------------
# RC002 -- process-boundary payload safety
# ----------------------------------------------------------------------
RC002_LAMBDA = """\
from concurrent.futures import ProcessPoolExecutor

def run():
    pool = ProcessPoolExecutor()
    pool.submit(lambda: 1)
"""

RC002_CLOSURE = """\
from concurrent.futures import ProcessPoolExecutor

def run(xs):
    def job():
        return sum(xs)
    with ProcessPoolExecutor() as pool:
        pool.submit(job)
"""

RC002_OPEN = """\
def run(transport_cls):
    fh = open("trace.log")
    transport = ForkTransport([fh])
    return transport
"""

RC002_GENERATOR = """\
from concurrent.futures import ProcessPoolExecutor

def run(fn, xs):
    with ProcessPoolExecutor() as pool:
        pool.map(fn, (x * 2 for x in xs))
"""

RC002_CLEAN = """\
from concurrent.futures import ProcessPoolExecutor

def job(x):
    return x + 1

def run(xs):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(job, xs))
"""


def test_rc002_lambda_argument():
    assert codes(RC002_LAMBDA, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_closure_argument():
    assert codes(RC002_CLOSURE, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_open_handle_in_builders():
    assert codes(RC002_OPEN, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_generator_argument():
    assert codes(RC002_GENERATOR, module_path="repro/exec/x.py") == ["RC002"]


def test_rc002_module_level_callable_is_clean():
    assert codes(RC002_CLEAN, module_path="repro/exec/x.py") == []


# ----------------------------------------------------------------------
# RC003 -- cache-fingerprint completeness
# ----------------------------------------------------------------------
RC003_UNDECLARED = """\
import os

FAST = os.environ.get("NDPBRIDGE_TURBO", "0")
"""

RC003_NONLITERAL = """\
import os

def read(name):
    return os.getenv(name)
"""

RC003_SUBSCRIPT = 'import os\nv = os.environ["NDPBRIDGE_SECRET"]\n'

RC003_CLEAN = """\
import os

jobs = os.environ.get("NDPBRIDGE_JOBS")
shards = os.getenv("NDPBRIDGE_SHARDS", "1")
"""


def test_rc003_undeclared_knob():
    assert codes(RC003_UNDECLARED, module_path="repro/exec/x.py") == ["RC003"]


def test_rc003_non_literal_name():
    assert codes(RC003_NONLITERAL, module_path="repro/exec/x.py") == ["RC003"]


def test_rc003_environ_subscript():
    assert codes(RC003_SUBSCRIPT, module_path="repro/exec/x.py") == ["RC003"]


def test_rc003_registered_knobs_are_clean():
    assert codes(RC003_CLEAN, module_path="repro/exec/x.py") == []


def test_rc003_benchmarks_are_exempt():
    assert codes(
        RC003_UNDECLARED,
        module_path="repro/bench.py",
        path="benchmarks/bench.py",
    ) == []


# ----------------------------------------------------------------------
# RC004 -- lookahead soundness
# ----------------------------------------------------------------------
RC004_CONSTANT = """\
def plan(config):
    lookahead = 8
    return lookahead
"""

RC004_SHRINK = """\
def plan(config, comm):
    one_way = min_message_latency(config.channel_bytes_per_cycle, 64)
    lookahead = one_way - 1
    return lookahead
"""

RC004_HORIZON_SHRINK = """\
class Plan:
    def horizon(self, t):
        return t + self.lookahead - 1
"""

RC004_HORIZON_MISSING = """\
class Plan:
    def horizon(self, t):
        return t + 5
"""

RC004_CLEAN = """\
def plan(config, comm):
    one_way = min_message_latency(config.channel_bytes_per_cycle, 64)
    lookahead = one_way * 2 + comm.host_per_message_overhead_cycles
    return lookahead

class Plan:
    def horizon(self, t):
        return self.next_round(t) + self.lookahead
"""


def test_rc004_free_constant():
    assert codes(
        RC004_CONSTANT, module_path="repro/sim/partition.py"
    ) == ["RC004"]


def test_rc004_shrinking_lookahead():
    assert codes(
        RC004_SHRINK, module_path="repro/sim/partition.py"
    ) == ["RC004"]


def test_rc004_horizon_shrinks_lookahead():
    assert codes(
        RC004_HORIZON_SHRINK, module_path="repro/sim/partition.py"
    ) == ["RC004"]


def test_rc004_horizon_without_lookahead():
    assert codes(
        RC004_HORIZON_MISSING, module_path="repro/sim/partition.py"
    ) == ["RC004"]


def test_rc004_latency_derived_is_clean():
    assert codes(RC004_CLEAN, module_path="repro/sim/partition.py") == []


def test_rc004_out_of_scope_module_is_clean():
    assert codes(RC004_CONSTANT, module_path="repro/ndp/unit.py") == []


# ----------------------------------------------------------------------
# RC005 -- worker-context independence
# ----------------------------------------------------------------------
RC005_PID = "import os\n\ndef tag():\n    return os.getpid()\n"
RC005_START = (
    "import multiprocessing\n\n"
    "def mode():\n    return multiprocessing.get_start_method()\n"
)
RC005_CLEAN = "import os\n\ndef sep():\n    return os.sep\n"


def test_rc005_pid_read():
    assert codes(RC005_PID, module_path="repro/ndp/unit.py") == ["RC005"]


def test_rc005_start_method_read():
    assert codes(RC005_START, module_path="repro/sim/engine.py") == ["RC005"]


def test_rc005_context_free_os_use_is_clean():
    assert codes(RC005_CLEAN, module_path="repro/ndp/unit.py") == []


def test_rc005_out_of_scope_module_is_clean():
    # exec/ is parent-side orchestration; pid reads there are fine
    # (the cache uses one for tempfile naming).
    assert codes(RC005_PID, module_path="repro/exec/cache.py") == []


# ----------------------------------------------------------------------
# suppression & allowlist
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "source,module_path,code",
    [
        (RC001_ABS, "repro/ndp/fixture.py", "RC001"),
        (RC003_UNDECLARED, "repro/exec/x.py", "RC003"),
        (RC005_PID, "repro/ndp/unit.py", "RC005"),
    ],
)
def test_simrace_ignore_silences_rule(source, module_path, code):
    lines = source.splitlines()
    diag = race_source(source, module_path=module_path)[0]
    lines[diag.line - 1] += f"  # analyze: ignore[{code}] fixture"
    assert codes("\n".join(lines) + "\n", module_path=module_path) == []


def test_simlint_ignore_does_not_silence_simrace():
    lines = RC001_ABS.splitlines()
    lines[0] += "  # simlint: ignore[RC001]"
    assert codes("\n".join(lines) + "\n") == ["RC001"]


def test_allowlist_sanctions_coordinator_module():
    # repro/sim/sharded.py carries the one RC001 allowlist entry: the
    # coordinator may import the fork transport.
    assert codes(RC001_ABS, module_path="repro/sim/sharded.py") == []


def test_syntax_error_reported_not_crashed():
    assert codes("def broken(:\n") == [SYNTAX_ERROR]


# ----------------------------------------------------------------------
# the fingerprint registry and its cache-key cross-check
# ----------------------------------------------------------------------
def test_registry_covers_known_knobs():
    names = registered_names()
    assert "NDPBRIDGE_SHARDS" in names
    assert "NDPBRIDGE_JOBS" in names
    assert is_registered("NDPBRIDGE_SANITIZE")
    assert not is_registered("NDPBRIDGE_TURBO")


def test_registry_entries_are_justified():
    for knob in ENV_REGISTRY:
        assert knob.justification.strip(), knob.name
        assert knob.kind in ("fingerprinted", "execution_only")


def test_fingerprinted_knobs_map_to_cache_key_fields():
    assert fingerprinted_knobs(), "at least NDPBRIDGE_SHARDS must be listed"
    for knob, field in fingerprint_field_of().items():
        assert field in exec_cache.CELL_KEY_FIELDS, (knob, field)


def test_cache_import_check_rejects_unknown_field(monkeypatch):
    import repro.race.fingerprints as fp

    monkeypatch.setattr(
        fp, "fingerprint_field_of", lambda: {"NDPBRIDGE_X": "no_such_field"}
    )
    with pytest.raises(RuntimeError, match="no_such_field"):
        exec_cache._check_fingerprint_registry()


def test_cell_key_fields_match_cell_key_blob():
    from repro.config import Design, scaled_config

    cfg = scaled_config(128, Design.O, seed=42)
    # Every field name cell_key() hashes must be declared; the declared
    # tuple may be a superset (optional fields).
    import json as _json
    from unittest import mock

    captured = {}
    real_dumps = _json.dumps

    def spy(obj, **kw):
        if isinstance(obj, dict) and "code" in obj:
            captured.update(obj)
        return real_dumps(obj, **kw)

    with mock.patch.object(exec_cache.json, "dumps", side_effect=spy):
        exec_cache.cell_key(
            "tree", cfg, 0.1, 7, shards=2, partition="p",
            snapshot_at=10, openloop=None,
        )
    assert captured
    assert set(captured) <= set(exec_cache.CELL_KEY_FIELDS)


# ----------------------------------------------------------------------
# meta: the repository's own tree is clean, via the real CLI
# ----------------------------------------------------------------------
def test_cli_clean_on_repo_src():
    cli.check_clean_on_repo_src()


def test_cli_exit_1_on_finding(tmp_path):
    cli.check_exit_1_on_finding(tmp_path, "RC")


def test_cli_list_rules():
    cli.check_list_rules("RC")


def test_cli_sarif_output(tmp_path):
    cli.check_sarif_output(tmp_path, "RC")


# ----------------------------------------------------------------------
# the analyze gate's --baseline mode
# ----------------------------------------------------------------------
def _bad_tree(tmp_path):
    bad = tmp_path / "repro" / "ndp" / "bad.py"
    bad.parent.mkdir(parents=True)
    # Trips ST (mutable module global) and RC001 at once.
    bad.write_text("seen = {}\n" + RC001_ABS)
    return bad


def _write_baseline(tmp_path, bad):
    baseline = tmp_path / "baseline.sarif"
    first = cli.run_cli(
        "--format", "sarif", "-o", str(baseline), str(bad)
    )
    assert first.returncode == 1
    return baseline


def test_analyze_baseline_suppresses_known_findings(tmp_path):
    bad = _bad_tree(tmp_path)
    baseline = _write_baseline(tmp_path, bad)
    again = cli.run_cli("--baseline", str(baseline), str(bad))
    assert again.returncode == 0, again.stdout + again.stderr
    assert "2 baseline finding(s) suppressed" in again.stdout
    assert "analyze: clean" in again.stdout


def test_analyze_baseline_fails_on_new_finding(tmp_path):
    bad = _bad_tree(tmp_path)
    baseline = _write_baseline(tmp_path, bad)
    # A brand-new hazard in a second file is NOT in the baseline.
    worse = bad.parent / "worse.py"
    worse.write_text(RC005_PID)
    proc = cli.run_cli("--baseline", str(baseline), str(bad.parent))
    assert proc.returncode == 1
    assert "RC005" in proc.stdout
    assert "1 new finding(s)" in proc.stdout


def test_analyze_baseline_ignores_line_shifts(tmp_path):
    bad = _bad_tree(tmp_path)
    baseline = _write_baseline(tmp_path, bad)
    prints = baseline_fingerprints(json.loads(baseline.read_text()))
    assert {rule for rule, _uri, _message in prints} == {"ST003", "RC001"}
    # Shift every finding down ten lines; fingerprints must not change.
    bad.write_text("\n" * 10 + bad.read_text())
    proc = cli.run_cli("--baseline", str(baseline), str(bad))
    assert proc.returncode == 0, proc.stdout
