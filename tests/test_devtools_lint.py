"""The ``repro lint`` framework: rules fire, pragmas suppress, baselines shrink.

Each rule is exercised against a seeded violation in a synthetic source
tree (so the tests stay hermetic even as the real tree evolves), and the
real tree itself is asserted clean — the committed empty
``lint-baseline.json`` *is* the clean-tree statement, and this test is what
keeps it honest.
"""

import json
from pathlib import Path

import pytest

from repro.devtools import ALL_RULES, load_baseline, run_lint, write_baseline
from repro.devtools.cli import main as lint_main
from repro.devtools.rules import rule_by_code
from repro.devtools.rules.events import event_taxonomy

#: The real src root of this checkout (the directory containing repro/).
SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

#: Minimal taxonomy module for EVT004 tests in synthetic trees.
EVENTS_MODULE = """\
class SimEvent:
    pass

class RunStarted(SimEvent):
    pass

class BlockMined(SimEvent):
    pass

class LiquidationSettled(SimEvent):
    pass
"""


def lint_tree(tmp_path: Path, files: dict) -> "tuple[Path, object]":
    """Write ``files`` (src-root-relative) under ``tmp_path`` and lint them."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path, run_lint(tmp_path, ALL_RULES)


def codes(report) -> list:
    return [violation.code for violation in report.violations]


# --------------------------------------------------------------------- #
# The real tree is clean
# --------------------------------------------------------------------- #
def test_repository_tree_is_clean():
    report = run_lint(SRC_ROOT, ALL_RULES, paths=["repro"])
    assert report.files_checked > 100
    rendered = "\n".join(v.render() for v in report.violations)
    assert not report.violations, f"lint violations in the tree:\n{rendered}"
    assert not report.warnings, "\n".join(report.warnings)


def test_committed_baseline_is_empty_and_loadable():
    baseline = load_baseline(SRC_ROOT.parent / "lint-baseline.json")
    assert baseline.entries == {}


# --------------------------------------------------------------------- #
# DET001 — unseeded randomness / wall clocks
# --------------------------------------------------------------------- #
class TestDeterminismRule:
    def test_flags_stdlib_random_and_wall_clock(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/simulation/bad.py": (
                    "import random\n"
                    "import time\n"
                    "import numpy as np\n"
                    "def step():\n"
                    "    jitter = random.random()\n"
                    "    stamp = time.time()\n"
                    "    draw = np.random.normal()\n"
                )
            },
        )
        assert codes(report).count("DET001") == 3  # import random, time.time, np.random.normal

    def test_seeded_generator_and_alias_resolution(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/agents/good.py": (
                    "import numpy as np\n"
                    "from time import time as now\n"
                    "def make(seed):\n"
                    "    rng = np.random.default_rng(seed)\n"  # allowed constructor
                    "    return rng.normal(), now()\n"  # aliased wall clock still caught
                )
            },
        )
        assert codes(report) == ["DET001"]
        assert "time.time" in report.violations[0].message

    def test_out_of_scope_directory_ignored(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {"repro/analytics/clocky.py": "import time\nstamp = time.time()\n"},
        )
        assert "DET001" not in codes(report)


# --------------------------------------------------------------------- #
# SUM002 — pinned float summation
# --------------------------------------------------------------------- #
class TestSummationRule:
    def test_flags_value_sums_and_pairwise_reductions(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/analytics/bad.py": (
                    "import math\n"
                    "import numpy as np\n"
                    "def totals(records, values):\n"
                    "    a = sum(r.profit_usd for r in records)\n"
                    "    b = np.sum(values)\n"
                    "    c = math.fsum(f.fee_eth for f in records)\n"
                    "    d = values.sum()\n"
                    "    return a, b, c, d\n"
                )
            },
        )
        assert codes(report) == ["SUM002"] * 4

    def test_counting_sums_and_neutral_names_exempt(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/analytics/good.py": (
                    "def shape(records, widths):\n"
                    "    n = sum(1 for r in records if r.profit_usd > 0)\n"
                    "    total_width = sum(widths)\n"
                    "    return n, total_width\n"
                )
            },
        )
        assert "SUM002" not in codes(report)


# --------------------------------------------------------------------- #
# PKL003 — picklable payloads
# --------------------------------------------------------------------- #
class TestPicklingRule:
    def test_flags_pool_and_spec_lambdas(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/campaigns/bad.py": (
                    "def run_all(pool, jobs):\n"
                    "    return pool.imap_unordered(lambda job: job, jobs)\n"
                    "def spec():\n"
                    "    return RunSpec(scenario=lambda: 'small')\n"
                )
            },
        )
        assert codes(report) == ["PKL003", "PKL003"]
        assert "pool.imap_unordered" in report.violations[0].message
        assert "RunSpec" in report.violations[1].message

    def test_module_level_functions_pass(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/campaigns/good.py": (
                    "def run_all(pool, jobs):\n"
                    "    return pool.imap_unordered(execute_job, jobs)\n"
                )
            },
        )
        assert "PKL003" not in codes(report)


# --------------------------------------------------------------------- #
# EVT004 — exhaustive event dispatch
# --------------------------------------------------------------------- #
class TestEventDispatchRule:
    def test_taxonomy_parse(self, tmp_path):
        (tmp_path / "repro/observers").mkdir(parents=True)
        (tmp_path / "repro/observers/events.py").write_text(EVENTS_MODULE, encoding="utf-8")
        assert event_taxonomy(tmp_path) == {"RunStarted", "BlockMined", "LiquidationSettled"}

    def test_real_taxonomy_has_the_known_events(self):
        taxonomy = event_taxonomy(SRC_ROOT)
        assert {"LiquidationSettled", "BlockMined", "PriceUpdated"} <= taxonomy

    def test_partial_dispatcher_flagged(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/observers/events.py": EVENTS_MODULE,
                "repro/observers/probe.py": (
                    "from .events import LiquidationSettled\n"
                    "class Probe:\n"
                    "    def on_event(self, event):\n"
                    "        if isinstance(event, LiquidationSettled):\n"
                    "            self.count = 1\n"
                ),
            },
        )
        assert codes(report) == ["EVT004"]
        message = report.violations[0].message
        assert "BlockMined" in message and "RunStarted" in message

    def test_ignored_events_satisfy_the_rule(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/observers/events.py": EVENTS_MODULE,
                "repro/observers/probe.py": (
                    "from .events import BlockMined, LiquidationSettled, RunStarted\n"
                    "class Probe:\n"
                    "    IGNORED_EVENTS = (BlockMined, RunStarted)\n"
                    "    def on_event(self, event):\n"
                    "        if isinstance(event, LiquidationSettled):\n"
                    "            self.count = 1\n"
                ),
            },
        )
        assert "EVT004" not in codes(report)

    def test_stale_ignored_entry_flagged(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/observers/events.py": EVENTS_MODULE,
                "repro/observers/probe.py": (
                    "from .events import BlockMined, LiquidationSettled, RunStarted\n"
                    "class Probe:\n"
                    "    IGNORED_EVENTS = (BlockMined, RunStarted, LiquidationSettled)\n"
                    "    def on_event(self, event):\n"
                    "        if isinstance(event, LiquidationSettled):\n"
                    "            self.count = 1\n"
                ),
            },
        )
        assert codes(report) == ["EVT004"]
        assert "stale" in report.violations[0].message

    def test_uniform_handler_exempt(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/observers/events.py": EVENTS_MODULE,
                "repro/observers/sink.py": (
                    "class Sink:\n"
                    "    def on_event(self, event):\n"
                    "        self.rows.append(event)\n"
                ),
            },
        )
        assert "EVT004" not in codes(report)


# --------------------------------------------------------------------- #
# TEL005 — telemetry facade only
# --------------------------------------------------------------------- #
class TestTelemetryRule:
    def test_flags_ad_hoc_timer_and_private_primitive(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/chain/bad.py": (
                    "import time\n"
                    "from repro.telemetry.spans import Tracer\n"
                    "def mine():\n"
                    "    started = time.perf_counter()\n"
                    "    tracer = Tracer()\n"
                    "    return started, tracer\n"
                )
            },
        )
        assert codes(report) == ["TEL005", "TEL005"]

    def test_facade_and_relative_plumbing_pass(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/chain/good.py": (
                    "from ..telemetry.clock import perf_seconds\n"
                    "from .spans import Tracer\n"
                    "def mine():\n"
                    "    started = perf_seconds()\n"
                    "    tracer = Tracer()\n"  # relative import: telemetry plumbing itself
                    "    return started, tracer\n"
                )
            },
        )
        assert "TEL005" not in codes(report)


# --------------------------------------------------------------------- #
# Framework mechanics: pragmas, syntax errors, sorting
# --------------------------------------------------------------------- #
class TestFramework:
    def test_pragma_suppresses_on_line_and_above(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/simulation/legacy.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    a = time.time()  # repro: lint-ok(DET001 legacy fixture clock)\n"
                    "    # repro: lint-ok(DET001 second legacy fixture clock)\n"
                    "    b = time.time()\n"
                    "    return a, b\n"
                )
            },
        )
        assert "DET001" not in codes(report)
        assert not report.warnings

    def test_unused_and_reasonless_pragmas_warn(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/simulation/stale.py": (
                    "import time\n"
                    "x = 1  # repro: lint-ok(DET001 nothing here violates)\n"
                    "y = time.time()  # repro: lint-ok(DET001)\n"
                )
            },
        )
        assert not report.violations  # the reason-less pragma still suppresses
        assert any("unused pragma" in warning for warning in report.warnings)
        assert any("no reason" in warning for warning in report.warnings)

    def test_pragma_only_suppresses_its_own_code(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/simulation/wrong.py": (
                    "import time\n"
                    "x = time.time()  # repro: lint-ok(SUM002 wrong code entirely)\n"
                )
            },
        )
        assert codes(report) == ["DET001"]
        assert any("unused pragma" in warning for warning in report.warnings)

    def test_syntax_error_becomes_ast000(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {"repro/simulation/broken.py": "def broken(:\n"},
        )
        assert codes(report) == ["AST000"]

    def test_violations_sorted_by_location(self, tmp_path):
        _, report = lint_tree(
            tmp_path,
            {
                "repro/simulation/a.py": "import time\nx = time.time()\n",
                "repro/simulation/b.py": "import random\n",
            },
        )
        paths = [violation.path for violation in report.violations]
        assert paths == sorted(paths)

    def test_every_rule_has_explain_material(self):
        for rule in ALL_RULES:
            assert rule.rationale and rule.example_bad and rule.example_good
            text = rule.explain()
            assert rule.code in text and "lint-ok" in text
        assert rule_by_code("DET001").code == "DET001"
        with pytest.raises(KeyError):
            rule_by_code("NOPE99")


# --------------------------------------------------------------------- #
# Baseline semantics: shrink-only
# --------------------------------------------------------------------- #
class TestBaseline:
    def test_missing_file_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "absent.json")
        assert baseline.entries == {}

    def test_write_drops_zero_counts(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline = write_baseline(path, {"DET001:repro/a.py": 2, "SUM002:repro/b.py": 0})
        assert baseline.entries == {"DET001:repro/a.py": 2}
        assert load_baseline(path).entries == {"DET001:repro/a.py": 2}

    def test_compare_splits_regressions_and_slack(self, tmp_path):
        baseline = write_baseline(
            tmp_path / "baseline.json",
            {"DET001:repro/a.py": 2, "SUM002:repro/b.py": 3},
        )
        regressions, slack = baseline.compare(
            {"DET001:repro/a.py": 4, "SUM002:repro/b.py": 1, "TEL005:repro/c.py": 1}
        )
        assert regressions == {
            "DET001:repro/a.py": (4, 2),  # grew: fail
            "TEL005:repro/c.py": (1, 0),  # new debt: fail
        }
        assert slack == {"SUM002:repro/b.py": 3}  # shrank: stale allowance

    @pytest.mark.parametrize(
        "payload",
        [
            {"version": 99, "entries": {}},
            {"version": 1, "entries": {"DET001:repro/a.py": 0}},
            {"version": 1, "entries": {"DET001:repro/a.py": "two"}},
        ],
    )
    def test_malformed_baseline_rejected(self, tmp_path, payload):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(path)


# --------------------------------------------------------------------- #
# The CLI: exit codes and the grandfathering loop
# --------------------------------------------------------------------- #
class TestCli:
    def seed_tree(self, tmp_path: Path) -> Path:
        (tmp_path / "repro/simulation").mkdir(parents=True)
        (tmp_path / "repro/simulation/bad.py").write_text(
            "import time\nstamp = time.time()\n", encoding="utf-8"
        )
        return tmp_path

    def cli(self, tmp_path: Path, *extra: str) -> int:
        return lint_main(
            [
                "--src-root",
                str(tmp_path),
                "--baseline",
                str(tmp_path / "baseline.json"),
                *extra,
            ]
        )

    def test_seeded_violation_fails(self, tmp_path, capsys):
        self.seed_tree(tmp_path)
        assert self.cli(tmp_path) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "FAIL" in out

    def test_clean_tree_passes(self, tmp_path, capsys):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro/ok.py").write_text("x = 1\n", encoding="utf-8")
        assert self.cli(tmp_path) == 0
        assert "ok" in capsys.readouterr().out

    def test_grandfather_then_shrink_loop(self, tmp_path, capsys):
        self.seed_tree(tmp_path)
        assert self.cli(tmp_path, "--write-baseline") == 0
        # Grandfathered: same debt now passes...
        assert self.cli(tmp_path) == 0
        # ...but --no-baseline still reports it as a failure:
        assert self.cli(tmp_path, "--no-baseline") == 1
        capsys.readouterr()
        # Fixing the file leaves a stale allowance: still exit 0, plus a notice.
        (tmp_path / "repro/simulation/bad.py").write_text("x = 1\n", encoding="utf-8")
        assert self.cli(tmp_path) == 0
        assert "stale" in capsys.readouterr().out
        # Re-tightening empties the baseline again.
        assert self.cli(tmp_path, "--write-baseline") == 0
        assert load_baseline(tmp_path / "baseline.json").entries == {}

    def test_regression_beyond_allowance_fails(self, tmp_path):
        self.seed_tree(tmp_path)
        assert self.cli(tmp_path, "--write-baseline") == 0
        (tmp_path / "repro/simulation/bad.py").write_text(
            "import time\na = time.time()\nb = time.time()\n", encoding="utf-8"
        )
        assert self.cli(tmp_path) == 1

    def test_malformed_baseline_is_usage_error(self, tmp_path):
        self.seed_tree(tmp_path)
        (tmp_path / "baseline.json").write_text('{"version": 99}', encoding="utf-8")
        assert self.cli(tmp_path) == 2

    def test_explain_exit_codes(self, capsys):
        assert lint_main(["--explain", "DET001"]) == 0
        assert "DET001" in capsys.readouterr().out
        assert lint_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out
        assert lint_main(["--explain", "NOPE99"]) == 2

    def test_real_tree_via_cli_is_clean(self, capsys):
        assert lint_main([]) == 0
        assert "FAIL" not in capsys.readouterr().out
