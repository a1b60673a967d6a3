"""Core of the project static analyzer (``python -m repro.analysis``).

A single-file AST lint grew into this package when the concurrent
service layer (asyncio solve server, forked worker pool, thread-shared
caches) needed rules a flat script could not carry: a typed rule
registry with per-rule docs, ``# noqa`` suppression with
**unused-suppression detection** (RL900), machine output (JSON and
SARIF), and a diff-aware mode for CI.

Architecture::

    engine.py        Rule / Finding / FileContext, noqa bookkeeping,
                     path walking, diff awareness, output rendering
    rules_rl.py      RL001-RL006 determinism/correctness rules (ported
                     from the single-file lint) + the RL900 suppression
                     audit
    rules_cc.py      CC001+ concurrency rules for the service layer
                     (blocking calls in async, lock discipline, fork
                     safety, asyncio hygiene)

Each rule is a :class:`Rule` record (stable code, slug, scope, full
doc); rule modules register themselves on import and contribute visitor
passes that report through a shared :class:`FileContext`, which applies
scope filtering and ``# noqa: <CODE>`` suppression while recording which
suppressions actually fired — any auditable suppression that never fires
becomes an RL900 finding, keeping the escape inventory honest.

The runtime counterpart of this *static* pass is the sanitizer harness
in :mod:`repro.resilience.sanitize` (lock-order cycles, event-loop
stalls), switched on by ``lubt chaos --sanitize``.  See
docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

_NOQA = re.compile(r"#\s*noqa\s*:\s*([A-Z0-9, ]+)", re.IGNORECASE)

#: Suppression codes the RL900 audit owns.  ``BLE001`` rides along as the
#: documented alias for RL004 (ruff's select set does not include BLE, so
#: every BLE001 comment in this tree exists for this analyzer).
_AUDITABLE = re.compile(r"^(?:RL|CC)\d{3}$|^BLE001$")


@dataclass(frozen=True)
class Rule:
    """One registered analyzer rule (stable code, never reused)."""

    code: str
    name: str
    summary: str
    doc: str = ""
    #: Path substrings (POSIX) the rule applies to; ``None`` = everywhere.
    scope: tuple[str, ...] | None = None
    #: Path substrings exempt from the rule (the invariant's owner).
    exempt: tuple[str, ...] = ()
    severity: str = "error"


#: The registry.  Populated by :func:`load_rules` importing the rule
#: modules; stable codes are the public interface (CI greps key on them).
RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    existing = RULES.get(rule.code)
    if existing is not None and existing is not rule:
        raise ValueError(f"duplicate analyzer rule code {rule.code!r}")
    RULES[rule.code] = rule
    return rule


_rules_loaded = False


def load_rules() -> dict[str, Rule]:
    """Import every rule module (idempotent); returns the registry."""
    global _rules_loaded
    if not _rules_loaded:
        import repro.analysis.rules_cc  # noqa: F401 — registration side effect
        import repro.analysis.rules_rl  # noqa: F401 — registration side effect

        _rules_loaded = True
    return RULES


@dataclass(frozen=True)
class Finding:
    """One analyzer finding; ``rule`` is the rule code."""

    path: Path
    line: int
    col: int
    rule: str
    message: str

    @property
    def severity(self) -> str:
        r = RULES.get(self.rule)
        return r.severity if r is not None else "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": str(self.path),
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


class FileContext:
    """Reporting surface one file's visitor passes share.

    Applies rule scoping and ``# noqa`` suppression, and records which
    suppressions were *used* so the RL900 audit can flag the stale ones.
    """

    def __init__(
        self,
        path: Path,
        rel: str,
        lines: list[str],
        enabled: frozenset[str],
    ) -> None:
        self.path = path
        self.rel = rel
        self.lines = lines
        self.enabled = enabled
        self.findings: list[Finding] = []
        #: ``(line, code)`` suppressions that actually fired.
        self.used_noqa: set[tuple[int, str]] = set()

    def noqa_codes(self, lineno: int) -> set[str]:
        if not (1 <= lineno <= len(self.lines)):
            return set()
        m = _NOQA.search(self.lines[lineno - 1])
        if not m:
            return set()
        return {c.strip().upper() for c in m.group(1).split(",") if c.strip()}

    def in_scope(self, code: str) -> bool:
        rule = RULES[code]
        for frag in rule.exempt:
            if frag in self.rel:
                return False
        return rule.scope is None or any(f in self.rel for f in rule.scope)

    def report(
        self,
        code: str,
        node: ast.AST | int,
        message: str,
        *,
        col: int | None = None,
        aliases: tuple[str, ...] = (),
    ) -> None:
        """File a finding for ``code`` at ``node`` (or a line number),
        honoring scope and suppression.  ``aliases`` are extra noqa codes
        that may suppress this rule (RL004 accepts ``BLE001``)."""
        if code not in self.enabled or not self.in_scope(code):
            return
        if isinstance(node, int):
            line = node
            column = col if col is not None else 0
        else:
            line = getattr(node, "lineno", 0)
            column = col if col is not None else getattr(node, "col_offset", 0)
        noqa = self.noqa_codes(line)
        for candidate in (code, *aliases):
            if candidate in noqa:
                self.used_noqa.add((line, candidate))
                return
        self.findings.append(Finding(self.path, line, column, code, message))


def _audit_suppressions(ctx: FileContext) -> None:
    """RL900: every auditable ``# noqa`` code that suppressed nothing on
    its line is itself a finding (stale escapes rot the inventory)."""
    if "RL900" not in ctx.enabled:
        return
    for lineno, text in enumerate(ctx.lines, start=1):
        m = _NOQA.search(text)
        if not m:
            continue
        for code in sorted(
            c.strip().upper() for c in m.group(1).split(",") if c.strip()
        ):
            if not _AUDITABLE.match(code) or code == "RL900":
                continue
            if (lineno, code) not in ctx.used_noqa:
                col = text.index("#")
                # RL900 findings are themselves suppressible the normal way.
                noqa = ctx.noqa_codes(lineno)
                if "RL900" in noqa:
                    ctx.used_noqa.add((lineno, "RL900"))
                    continue
                ctx.findings.append(Finding(
                    ctx.path, lineno, col, "RL900",
                    f"unused suppression: {code} does not fire on this "
                    f"line — remove the stale '# noqa: {code}' escape",
                ))


def _enabled_codes(
    families: Sequence[str],
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> frozenset[str]:
    load_rules()
    codes = {
        c for c in RULES
        if any(c.startswith(fam) for fam in families)
    }
    if select:
        wanted = {s.upper() for s in select}
        codes = {c for c in codes if c in wanted}
    if ignore:
        dropped = {s.upper() for s in ignore}
        codes -= dropped
    return frozenset(codes)


def analyze_source(
    path: Path,
    rel: str,
    source: str,
    *,
    enabled: frozenset[str],
    audit: bool = True,
) -> list[Finding]:
    """Analyze one file's source text; returns ordered findings."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, exc.offset or 0, "RL000",
                        f"syntax error: {exc.msg}")]
    from repro.analysis.rules_cc import run_cc_checks
    from repro.analysis.rules_rl import RlVisitor

    ctx = FileContext(path, rel, source.splitlines(), enabled)
    RlVisitor(ctx).visit(tree)
    run_cc_checks(tree, ctx)
    if audit:
        _audit_suppressions(ctx)
    return sorted(ctx.findings, key=lambda f: (f.line, f.col, f.rule))


def analyze_file(
    path: Path,
    root: Path,
    *,
    families: Sequence[str] = ("RL", "CC"),
    audit: bool = True,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    rel = "/" + path.resolve().relative_to(root.resolve()).as_posix()
    enabled = _enabled_codes(families, select, ignore)
    return analyze_source(
        path, rel, path.read_text(), enabled=enabled, audit=audit
    )


def analyze_paths(
    paths: Iterable[Path],
    *,
    families: Sequence[str] = ("RL", "CC"),
    audit: bool = True,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    changed: Mapping[Path, set[int] | None] | None = None,
) -> list[Finding]:
    """Analyze files/directories.  With ``changed`` (diff-aware mode),
    only listed files are analyzed and findings are filtered to the
    changed line sets (``None`` line set = whole file counts)."""
    enabled = _enabled_codes(families, select, ignore)
    findings: list[Finding] = []
    for given in paths:
        given = Path(given)
        root = given if given.is_dir() else given.parent
        files = sorted(given.rglob("*.py")) if given.is_dir() else [given]
        for f in files:
            resolved = f.resolve()
            lines: set[int] | None = None
            if changed is not None:
                if resolved not in changed:
                    continue
                lines = changed[resolved]
            rel = "/" + resolved.relative_to(root.resolve()).as_posix()
            found = analyze_source(
                f, rel, f.read_text(), enabled=enabled, audit=audit
            )
            if lines is not None:
                found = [x for x in found if x.line in lines]
            findings.extend(found)
    return findings


# ----------------------------------------------------------------------
# diff awareness
# ----------------------------------------------------------------------
_HUNK = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@")


def changed_lines_vs(
    ref: str, repo_root: Path | None = None
) -> dict[Path, set[int] | None]:
    """``{absolute_path: changed_line_numbers}`` for ``git diff ref``.

    Parses ``git diff -U0`` so findings can be filtered to lines the
    change actually touched; a file that fails to parse hunk-wise maps to
    ``None`` (= every line counts).  Only ``.py`` files are returned.
    """
    cwd = str(repo_root) if repo_root is not None else None
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, cwd=cwd, check=True,
    ).stdout.strip()
    diff = subprocess.run(
        ["git", "diff", "-U0", "--no-color", ref, "--", "*.py"],
        capture_output=True, text=True, cwd=top, check=True,
    ).stdout
    out: dict[Path, set[int] | None] = {}
    current: set[int] | None = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            name = line[4:].strip()
            if name == "/dev/null":
                current = None
                continue
            if name.startswith("b/"):
                name = name[2:]
            current = set()
            out[(Path(top) / name).resolve()] = current
        elif line.startswith("@@") and current is not None:
            m = _HUNK.match(line)
            if m:
                start = int(m.group(1))
                count = int(m.group(2)) if m.group(2) is not None else 1
                current.update(range(start, start + max(count, 1)))
    return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {
            "tool": "repro.analysis",
            "count": len(findings),
            "findings": [f.to_dict() for f in findings],
        },
        indent=2,
    )


def render_sarif(findings: Sequence[Finding]) -> str:
    """Minimal SARIF 2.1.0 document (one run, rules + results)."""
    load_rules()
    used = sorted({f.rule for f in findings})
    level = {"error": "error", "warning": "warning"}
    rules = [
        {
            "id": code,
            "name": RULES[code].name if code in RULES else code,
            "shortDescription": {
                "text": RULES[code].summary if code in RULES else code
            },
        }
        for code in used
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": level.get(f.severity, "error"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": str(f.path)},
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "version": "2.1.0",
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)


def rule_catalogue() -> str:
    load_rules()
    lines = ["repro.analysis rule catalogue", ""]
    for code in sorted(RULES):
        r = RULES[code]
        scope = ", ".join(r.scope) if r.scope else "everywhere"
        lines.append(f"{code} [{r.severity}] {r.name} (scope: {scope})")
        lines.append(f"    {r.summary}")
        if r.doc:
            for ln in r.doc.strip().splitlines():
                lines.append(f"    {ln}")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="LUBT project static analyzer "
        "(RL determinism rules, CC concurrency rules, RL900 noqa audit)",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: src/)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable JSON output")
    parser.add_argument("--sarif", action="store_true",
                        help="SARIF 2.1.0 output")
    parser.add_argument(
        "--diff", metavar="REF", default=None,
        help="diff-aware mode: analyze only files changed vs. the git "
        "ref, and report only findings on changed lines",
    )
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--explain", metavar="CODE", default=None,
                        help="print one rule's full documentation and exit")
    parser.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated codes to run exclusively")
    parser.add_argument("--ignore", metavar="CODES", default=None,
                        help="comma-separated codes to skip")
    parser.add_argument(
        "--no-audit", action="store_true",
        help="disable the RL900 unused-suppression audit",
    )
    args = parser.parse_args(argv)
    load_rules()

    if args.list_rules:
        print(rule_catalogue())
        return 0
    if args.explain is not None:
        code = args.explain.upper()
        rule = RULES.get(code)
        if rule is None:
            print(f"unknown rule {code!r}", file=sys.stderr)
            return 2
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        print(f"{rule.code} [{rule.severity}] {rule.name}")
        print(f"scope: {scope}")
        if rule.exempt:
            print(f"exempt: {', '.join(rule.exempt)}")
        print(f"\n{rule.summary}\n")
        if rule.doc:
            print(rule.doc.strip())
        return 0

    paths = args.paths or [Path("src")]
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    changed = None
    if args.diff is not None:
        try:
            changed = changed_lines_vs(args.diff)
        except (subprocess.CalledProcessError, OSError) as exc:
            print(f"repro.analysis: cannot diff against {args.diff!r}: "
                  f"{exc}", file=sys.stderr)
            return 2
    findings = analyze_paths(
        paths,
        audit=not args.no_audit,
        select=select,
        ignore=ignore,
        changed=changed,
    )
    if args.sarif:
        print(render_sarif(findings))
    elif args.as_json:
        print(render_json(findings))
    else:
        for f in findings:
            print(f.render())
        if findings:
            print(f"repro.analysis: {len(findings)} finding(s)")
        else:
            mode = f" (diff vs {args.diff})" if args.diff else ""
            print(f"repro.analysis: clean{mode}")
    return 1 if findings else 0
