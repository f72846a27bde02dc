"""Suppression liveness audit shared by the check tests.

An allowlist entry or a ``# repro: lint-ok[...]`` comment that matches no
finding hides nothing today and would silently hide a future hazard.  The
findings are the lint visitor's raw output, before the suppression and
allowlist filters, so each suppression is judged by what it absorbs.
"""

from __future__ import annotations

import io
import tokenize

from repro.check.lint import python_files, raw_findings, suppressed_rules


def read_sources(paths):
    """``path → source`` for every ``.py`` file under ``paths``."""
    return {
        str(path): path.read_text(encoding="utf-8")
        for path in python_files(paths)
    }


def all_raw_findings(sources):
    """Every finding in ``sources``, before any filter."""
    return [
        f for path, source in sorted(sources.items())
        for f in raw_findings(source, path)
    ]


def lint_ok_comments(sources):
    """``(path, line, named rules)`` for every suppression comment token
    (docstrings that mention the syntax are not comments)."""
    out = []
    for path, source in sorted(sources.items()):
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            named = suppressed_rules(tok.string)
            if named is not None:
                out.append((path, tok.start[0], named))
    return out


def dead_allow_entries(entries, raw):
    """The allowlist entries that match no raw finding."""
    return [e for e in entries if not any(e.matches(f) for f in raw)]


def stale_lint_ok_comments(comments, raw):
    """The comments naming a rule that does not fire on their line (a
    typo'd rule name never fires); a bare ``lint-ok`` is live when any
    rule fires there."""
    fired = {}
    for f in raw:
        fired.setdefault((f.path, f.line), set()).add(f.rule)
    stale = []
    for path, line, named in comments:
        rules = fired.get((path, line), set())
        live = bool(rules) if "*" in named else named <= rules
        if not live:
            stale.append((path, line, named))
    return stale
