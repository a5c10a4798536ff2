"""``repro.lint`` — static design-rule checking for the P5 model.

Two complementary passes, neither of which clocks a single cycle:

* the **graph DRC** (:func:`lint_topology` / :func:`lint_simulator`)
  checks a constructed Module/Channel topology for wiring errors —
  double-driven channels, dangling nets, mis-ordered simulator module
  lists, undersized channels, combinational loops (rules ``P5D...``);
* the **AST lint** (:func:`lint_source` / :func:`lint_paths`) checks
  the source for the ready/valid coding discipline the kernel assumes
  — unguarded pushes/pops, foreign-channel mutation, bare framing
  octets (rules ``P5L...``).

The rule catalogue lives in :data:`RULES` and is documented in
``docs/linting.md``; the two are kept in sync by the doc-consistency
tests.  The ``repro lint`` CLI subcommand runs both passes over the
shipped tree.
"""

from repro.lint.rules import RULES, Finding, Rule, Severity, rule
from repro.lint.graph import lint_simulator, lint_topology
from repro.lint.astlint import lint_file, lint_paths, lint_source
from repro.lint.report import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    has_errors,
    render_json,
    render_sarif,
    render_text,
    sort_findings,
)
from repro.lint.suppress import suppressed_lines
from repro.lint.targets import Topology, shipped_topologies

__all__ = [
    "RULES",
    "Rule",
    "Finding",
    "Severity",
    "rule",
    "lint_topology",
    "lint_simulator",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
    "render_sarif",
    "sort_findings",
    "has_errors",
    "suppressed_lines",
    "Topology",
    "shipped_topologies",
    "JSON_SCHEMA_VERSION",
    "SARIF_VERSION",
]
