#!/usr/bin/env python
"""Docs hygiene checker: links resolve, CLI lines parse, and the metric
catalogue matches the code.

Scans the repo's markdown files (README, everything under docs/, and
the verify skill's recipe) for two kinds of rot:

* ``[text](target)`` links whose *relative* target does not exist on
  disk (anchors are stripped; ``http(s)://`` and ``mailto:`` links are
  out of scope);
* ``python -m repro.cli …`` command lines, fenced or inline, that
  ``repro.cli.build_parser()`` rejects — a removed subcommand or flag
  fails here instead of in a reader's terminal.  ``\\`` continuations
  are joined, ``<repo>``-style placeholders substituted, and the line
  ends at a closing backtick, a pipe, a redirect, ``&&``, ``;`` or a
  ``#`` comment.

And checks the metric catalogue of ``docs/observability.md`` against
the code under ``src/repro``, both ways:

* every literal metric name handed to ``.counter(`` / ``.gauge(`` /
  ``.histogram(`` has a catalogue row;
* every ``repro_*`` name in a row's first cell is one the code can emit:
  a literal name, or a name in a family the code publishes by prefix
  (``sample_totals("repro_cache_", ...)``, ``gauge(f"repro_cache_{name}")``).

And checks the worker pipe-protocol table of ``docs/architecture.md``
(the table whose header starts ``| kind |``) against
``repro.shard.worker.HANDLERS``, both ways: every message kind the
worker answers has a row, and every row names a kind it answers.

Exits nonzero listing each finding, so the CI docs job fails when a
rename orphans a reference.

Usage: ``PYTHONPATH=src python tools/check_docs.py`` (from anywhere in
the repo; the CLI check imports ``repro``).
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: inline markdown links; images share the syntax bar the leading ``!``
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: schemes that are not filesystem targets
EXTERNAL = ("http://", "https://", "mailto:")

#: a CLI invocation and the argument text after it
CLI_RE = re.compile(r"python3? -m repro\.cli\b(.*)")

#: where the CLI's own arguments end on a documented line
CLI_END_RE = re.compile(r"`|\||>|&&|;|\s#")

#: ``<repo>``-style placeholders
PLACEHOLDER_RE = re.compile(r"<[\w.-]+>")

#: the metric catalogue and the code whose metrics it lists
CATALOGUE = REPO / "docs" / "observability.md"
SOURCE = REPO / "src" / "repro"

#: a literal metric name handed to a registry instrument
EMIT_RE = re.compile(r"\.(?:counter|gauge|histogram)\(\s*\"(repro_\w+)\"")

#: a metric family published by name prefix
FAMILY_RE = re.compile(r"\.sample_totals\(\s*\"(repro_\w+)\""
                       r"|\.(?:counter|gauge|histogram)\(\s*f\"(repro_\w+?)\{")

#: the metric names in a catalogue row's first cell
ROW_RE = re.compile(r"^\|([^|]*`repro_[^|]*)\|")
METRIC_RE = re.compile(r"`(repro_\w+)`")

#: the pipe-protocol table, its header, and the kind in a row's first cell
PROTOCOL = REPO / "docs" / "architecture.md"
PROTOCOL_HEADER = "| kind |"
KIND_RE = re.compile(r"^\|\s*`(\w+)`\s*\|")


def markdown_files() -> list:
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("**/*.md"))
    files.append(REPO / ".claude" / "skills" / "verify" / "SKILL.md")
    return [f for f in files if f.exists()]


def check_links(path: Path) -> list:
    broken = []
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append((lineno, f"broken link: {target}"))
    return broken


def cli_lines(text: str) -> list:
    """``(line number, argv)`` of every ``python -m repro.cli`` line."""
    found = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno, line = i + 1, lines[i]
        while line.endswith("\\") and i + 1 < len(lines):
            i += 1
            line = line[:-1] + " " + lines[i].strip()
        i += 1
        for match in CLI_RE.finditer(PLACEHOLDER_RE.sub("x", line)):
            argv = shlex.split(CLI_END_RE.split(match.group(1), 1)[0])
            if argv:  # a bare mention names the module, not a command
                found.append((lineno, argv))
    return found


def check_cli(path: Path) -> list:
    from repro.cli import build_parser

    parser = build_parser()
    rejected = []
    for lineno, argv in cli_lines(path.read_text()):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                parser.parse_args(argv)
        except SystemExit:
            error = stderr.getvalue().strip().splitlines()[-1]
            rejected.append((lineno, f"repro.cli {' '.join(argv)}: {error}"))
    return rejected


def check_file(path: Path) -> list:
    return check_links(path) + check_cli(path)


def emitted_metrics() -> tuple:
    """``({name: (path, line)}, families)`` of the code under ``SOURCE``:
    every literal metric name with its first emitting site, and every
    name prefix published as a family."""
    names, families = {}, set()
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text()
        for match in EMIT_RE.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            names.setdefault(match.group(1), (path, lineno))
        for match in FAMILY_RE.finditer(text):
            families.add(match.group(1) or match.group(2))
    return names, families


def catalogue_rows(text: str) -> list:
    """``(line number, metric name)`` of every name a catalogue row lists."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        match = ROW_RE.match(line)
        if match:
            rows += [(lineno, name)
                     for name in METRIC_RE.findall(match.group(1))]
    return rows


def check_catalogue() -> list:
    """Findings ``(path, line, what)`` of the catalogue-vs-code check."""
    names, families = emitted_metrics()
    rows = catalogue_rows(CATALOGUE.read_text())
    listed = {name for _, name in rows}
    findings = [(path, lineno, f"metric {name} has no catalogue row")
                for name, (path, lineno) in names.items()
                if name not in listed]
    findings += [(CATALOGUE, lineno, f"catalogue row names {name}, which "
                  f"no code under {SOURCE.relative_to(REPO)} emits")
                 for lineno, name in rows
                 if name not in names and not name.startswith(tuple(families))]
    return findings


def protocol_rows(text: str) -> list:
    """``(line number, kind)`` of every row of the pipe-protocol table."""
    rows, in_table = [], False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith(PROTOCOL_HEADER):
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and (match := KIND_RE.match(line)):
            rows.append((lineno, match.group(1)))
    return rows


def check_protocol() -> list:
    """Findings ``(path, line, what)`` of the table-vs-``HANDLERS`` check."""
    from repro.shard import worker

    rows = protocol_rows(PROTOCOL.read_text())
    listed = {kind for _, kind in rows}
    path = SOURCE / "shard" / "worker.py"
    code = path.read_text()
    findings = [(path, code.count("\n", 0, code.index(f'"{kind}":')) + 1,
                 f"message kind {kind} has no row in the pipe-protocol table")
                for kind in worker.HANDLERS if kind not in listed]
    findings += [(PROTOCOL, lineno, f"pipe-protocol row names {kind}, which "
                  f"worker.HANDLERS does not answer")
                 for lineno, kind in rows if kind not in worker.HANDLERS]
    return findings


def main() -> int:
    findings = []
    files = markdown_files()
    for path in files:
        findings.extend((path.relative_to(REPO), lineno, what)
                        for lineno, what in check_file(path))
    findings.extend((path.relative_to(REPO), lineno, what)
                    for path, lineno, what in
                    check_catalogue() + check_protocol())
    if findings:
        print(f"{len(findings)} stale doc reference(s):")
        for rel, lineno, what in findings:
            print(f"  {rel}:{lineno}: {what}")
        return 1
    print(f"checked {len(files)} markdown file(s): all intra-repo links "
          f"resolve, every repro.cli line parses, and the metric catalogue "
          f"and the pipe-protocol table match the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
