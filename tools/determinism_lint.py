#!/usr/bin/env python3
"""Determinism contract linter.

Scans C++ sources for constructs that break the repo's bit-identity
contract (thread-count/backend/path-invariant results). Rules live in
tools/lint_rules.toml; most are line regexes, plus one structural rule
that flags iteration over unordered containers when the loop body feeds
accumulation or serialization.

Per-site suppression::

    // lint:allow(<rule-id>) <reason — required>

on the offending line, or anywhere in the contiguous ``//`` comment
block directly above it. Suppressions without a reason are ignored (the
finding stands). Every honoured suppression is counted and reported so
the escape hatch stays visible.

Exit status: 0 when no unsuppressed findings, 1 otherwise, 2 on usage
errors. The final line is machine-readable::

    determinism-lint: files=<F> findings=<N> suppressed=<M>
"""

import argparse
import pathlib
import re
import sys
import tomllib

ALLOW_RE = re.compile(r"lint:allow\(([A-Za-z0-9_-]+)\)[ \t]*(.*)")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Suppression:
    __slots__ = ("path", "line", "rule", "reason")

    def __init__(self, path, line, rule, reason):
        self.path = path
        self.line = line
        self.rule = rule
        self.reason = reason


def load_rules(path):
    with open(path, "rb") as f:
        cfg = tomllib.load(f)
    if "rule" not in cfg or not cfg["rule"]:
        raise SystemExit(f"error: no [[rule]] entries in {path}")
    return cfg


def blank_comments(text):
    """Blank comment and string-literal bodies, preserving offsets.

    Rules must not fire on prose (a log message mentioning "rand(" is
    not a call). Used for matching only — suppression markers are read
    from the original text.
    """
    out = list(text)
    i = 0
    n = len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
        elif state == "line":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
        elif state == "block":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        elif state == "str":
            if c == "\\":
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "code"
            elif c != "\n":
                out[i] = " "
        elif state == "chr":
            if c == "\\":
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
                continue
            if c == "'":
                state = "code"
            elif c != "\n":
                out[i] = " "
        i += 1
    return "".join(out)


def find_allow(raw_lines, idx, rule_id):
    """Look for lint:allow(rule_id) on line idx or the comment block above.

    Returns (found, reason). ``idx`` is 0-based.
    """

    def check(line):
        for m in ALLOW_RE.finditer(line):
            if m.group(1) == rule_id:
                return True, m.group(2).strip()
        return False, ""

    found, reason = check(raw_lines[idx])
    if found:
        return True, reason
    j = idx - 1
    while j >= 0 and raw_lines[j].lstrip().startswith("//"):
        found, reason = check(raw_lines[j])
        if found:
            return True, reason
        j -= 1
    return False, ""


def match_angles(text, open_idx):
    """Index just past the ``>`` closing the ``<`` at open_idx, or -1."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1  # not a template argument list after all
        i += 1
    return -1


def match_braces(text, open_idx):
    """Index just past the ``}`` closing the ``{`` at open_idx, or -1."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def match_parens(text, open_idx):
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def unordered_names(code, containers):
    """Identifiers declared with one of the unordered container templates."""
    names = set()
    decl_re = re.compile(
        "(?:" + "|".join(re.escape(c) for c in containers) + r")\s*<"
    )
    for m in decl_re.finditer(code):
        end = match_angles(code, m.end() - 1)
        if end < 0:
            continue
        tail = code[end:end + 160]
        tm = re.match(r"\s*(?:&|\*|&&)?\s*([A-Za-z_]\w*)", tail)
        if tm and tm.group(1) not in ("const", "return", "operator"):
            names.add(tm.group(1))
    return names


def loop_sites(code):
    """Yield (line_idx_0based, iterated_name, body_text) for each for-loop.

    Covers range-for (``for (... : expr)``) and iterator loops
    (``for (auto it = expr.begin(); ...)``). ``iterated_name`` is the
    last identifier component of the iterated expression.
    """
    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = m.end() - 1
        close = match_parens(code, open_paren)
        if close < 0:
            continue
        header = code[open_paren + 1:close - 1]
        name = None
        rm = re.search(
            r":\s*(?:this\s*->\s*)?((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*"
            r"[A-Za-z_]\w*)\s*$",
            header,
        )
        if rm and ";" not in header:
            name = re.split(r"\.|->", rm.group(1))[-1].strip()
        else:
            im = re.search(
                r"=\s*(?:this\s*->\s*)?((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*"
                r"[A-Za-z_]\w*)\s*\.\s*(?:c?begin)\s*\(",
                header,
            )
            if im:
                name = re.split(r"\.|->", im.group(1))[-1].strip()
        if not name:
            continue
        bm = re.match(r"\s*\{", code[close:])
        if bm:
            body_open = close + bm.end() - 1
            body_end = match_braces(code, body_open)
            body = code[body_open:body_end] if body_end > 0 else ""
        else:
            semi = code.find(";", close)
            body = code[close:semi + 1] if semi >= 0 else ""
        line_idx = code.count("\n", 0, m.start())
        yield line_idx, name, body


def rule_exempt(rule, rel):
    for ap in rule.get("allow_paths", []):
        if re.search(ap, rel):
            return True
    return False


def scan_file(path, rel, cfg, findings, suppressions):
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        print(f"warning: cannot read {rel}: {e}", file=sys.stderr)
        return
    raw_lines = raw.split("\n")
    code = blank_comments(raw)
    code_lines = code.split("\n")

    def record(idx0, rule_id, message):
        found, reason = find_allow(raw_lines, idx0, rule_id)
        if found and reason:
            suppressions.append(
                Suppression(rel, idx0 + 1, rule_id, reason))
            return
        if found and not reason:
            message += " [lint:allow without a reason is ignored]"
        findings.append(Finding(rel, idx0 + 1, rule_id, message))

    for rule in cfg["rule"]:
        if rule_exempt(rule, rel):
            continue
        if rule.get("structural") == "unordered-iteration":
            names = unordered_names(code, rule["containers"])
            # Members of class X live in X.h while the loops live in
            # X.cc: fold the paired header's declarations in.
            if path.suffix in (".cc", ".cpp"):
                for hdr_ext in (".h", ".hpp"):
                    hdr = path.with_suffix(hdr_ext)
                    if hdr.is_file():
                        try:
                            htext = blank_comments(hdr.read_text(
                                encoding="utf-8", errors="replace"))
                        except OSError:
                            continue
                        names |= unordered_names(
                            htext, rule["containers"])
            if not names:
                continue
            signal_re = re.compile("|".join(rule["signals"]))
            for idx0, name, body in loop_sites(code):
                if name in names and signal_re.search(body):
                    record(
                        idx0, rule["id"],
                        f"iteration over unordered container '{name}' "
                        "feeds order-sensitive work "
                        f"({rule['description']})")
            continue
        pats = [re.compile(p) for p in rule.get("patterns", [])]
        for idx0, line in enumerate(code_lines):
            for pat in pats:
                m = pat.search(line)
                if m:
                    record(
                        idx0, rule["id"],
                        f"'{m.group(0).strip()}' — {rule['description']}")
                    break


def gather(paths, exts):
    files = []
    for p in paths:
        path = pathlib.Path(p)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            for f in sorted(path.rglob("*")):
                if f.is_file() and f.suffix in exts:
                    files.append(f)
        else:
            raise SystemExit(f"error: no such path: {p}")
    return files


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="bit-identity contract linter (see tools/lint_rules.toml)")
    ap.add_argument("paths", nargs="+", help="files or directories to scan")
    ap.add_argument(
        "--rules",
        default=str(pathlib.Path(__file__).parent / "lint_rules.toml"))
    ap.add_argument(
        "--show-suppressed", action="store_true",
        help="print each honoured suppression with its reason")
    ap.add_argument(
        "--exclude", action="append", default=[], metavar="REGEX",
        help="skip files whose path matches (e.g. the lint test fixtures)")
    args = ap.parse_args(argv)

    cfg = load_rules(args.rules)
    exts = set(cfg.get("lint", {}).get("extensions",
                                       [".h", ".cc", ".cpp", ".hpp"]))
    files = gather(args.paths, exts)
    if args.exclude:
        ex = [re.compile(p) for p in args.exclude]
        files = [f for f in files
                 if not any(p.search(str(f)) for p in ex)]

    findings = []
    suppressions = []
    cwd = pathlib.Path.cwd()
    for f in files:
        try:
            rel = str(f.resolve().relative_to(cwd))
        except ValueError:
            rel = str(f)
        scan_file(f, rel, cfg, findings, suppressions)

    for fi in findings:
        print(fi.render())
    if args.show_suppressed:
        for s in suppressions:
            print(f"{s.path}:{s.line}: [{s.rule}] suppressed: {s.reason}")
    print(f"determinism-lint: files={len(files)} findings={len(findings)} "
          f"suppressed={len(suppressions)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
