#!/usr/bin/env python3
"""dgc-lint: project-invariant static analysis for the dgc codebase.

Enforces conventions that generic tooling cannot know about:

  no-raw-assert            raw assert()/abort() outside src/util/logging.*;
                           invariants must use DGC_CHECK* so they survive
                           NDEBUG and log through one place.
  no-raw-random            std::rand/std::mt19937/std::random_device &c.
                           outside src/util/rng.*; all stochastic code takes
                           an explicit seeded dgc::Rng for reproducibility.
  unchecked-needs-validate every CsrMatrix::FromPartsUnchecked call site must
                           be paired with a ValidateStructure(...) /
                           DGC_DCHECK_OK(...Validate()) within the next few
                           lines, so checked builds re-verify the structure.
  no-void-status-discard   no explicit (void)-discard of Status/Result
                           expressions; handle or DGC_CHECK_OK them.
  nodiscard-declared       Status and Result must stay [[nodiscard]] so the
                           compiler flags silently dropped errors.
  no-simd-intrinsics       raw SIMD intrinsics (_mm*/__m128/__m256/__m512,
                           NEON v*q_* types/intrinsics) and intrinsic
                           headers (immintrin.h &c.) in any file; the
                           kernels are plain scalar loops whose semantics
                           the goldens pin, and no file is exempt.
  include-pragma-once      every header starts include guarding via
                           #pragma once.
  include-no-relative      no "../" includes; use project-root-relative paths.
  include-no-bits          never include <bits/...> internals.
  include-project-quotes   project headers are included with quotes, angle
                           brackets are reserved for system/third-party.

File set: every *.h/*.cc/*.cpp/*.hpp under src/, tests/, bench/, tools/ of
--root, optionally unioned with the translation units of a
--compile-commands compile_commands.json (entries outside --root or inside
build dirs are ignored).

Suppression, in order of preference:
  1. Fix the finding.
  2. Inline: append  // dgc-lint: allow(<rule>) <reason>  to the line.
  3. Entry in the allowlist file (see --allowlist; format documented there).

Exit codes: 0 clean, 1 findings, 2 usage/environment error.
--json FILE writes a machine-readable report regardless of outcome.
"""

import argparse
import fnmatch
import json
import os
import re
import sys

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples")
PROJECT_INCLUDE_DIRS = (
    "util", "obs", "linalg", "graph", "gen", "core", "cluster", "eval",
    "bench", "tools",
)
# How many lines after a FromPartsUnchecked call the paired validation may
# appear on (calls span lines; the hook follows the full statement).
VALIDATE_WINDOW = 12

INLINE_ALLOW_RE = re.compile(r"//\s*dgc-lint:\s*allow\(([\w,\- ]+)\)")


class Finding:
    def __init__(self, rule, path, line, message, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.text = text.strip()

    def to_json(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
            "text": self.text,
        }

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _gha_escape(value):
    # GitHub workflow-command escaping: % first, then the line breaks.
    return (value.replace("%", "%25")
                 .replace("\r", "%0D")
                 .replace("\n", "%0A"))


def emit_github_annotations(findings, stream=None):
    """When running under GitHub Actions, mirrors findings as ::error
    workflow commands so they surface inline on PR diffs. The printed
    findings and the JSON report are the source of truth; this is pure
    presentation and a no-op everywhere else."""
    if not os.environ.get("GITHUB_ACTIONS"):
        return
    stream = stream or sys.stdout
    for f in findings:
        print(f"::error file={_gha_escape(f.path)},line={f.line}::"
              f"{_gha_escape(f'[{f.rule}] {f.message}')}", file=stream)


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so rules never fire on prose or quoted text."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # R"delim( ... )delim" — only when the preceding characters
                # form a genuine raw-string prefix (R, uR, u8R, UR, LR) that
                # is not the tail of a longer identifier: FACTOR"(..." is the
                # identifier FACTOR followed by an ordinary string, and
                # misreading it as a raw string desyncs the scanner for the
                # rest of the file.
                pm = re.search(r'(?:u8|[uUL])?R$', text[max(0, i - 3):i])
                if pm:
                    pstart = max(0, i - 3) + pm.start()
                    before = text[pstart - 1] if pstart > 0 else ""
                    if before and (before.isalnum() or before in "_\"'"):
                        pm = None
                m = re.match(r'"([^\s()\\]{0,16})\(', text[i:i + 20]) \
                    if pm else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = RAW_STRING
                else:
                    state = STRING
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == '"':
                state = NORMAL
                out.append('"')
                i += 1
            elif c == "\n":
                # A plain literal cannot contain a raw newline; the input is
                # ill-formed, so resynchronize here instead of silently
                # swallowing the rest of the file.
                state = NORMAL
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == CHAR:
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append("'")
                i += 1
            elif c == "\n":
                state = NORMAL
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # RAW_STRING
            if text.startswith(raw_delim, i):
                # Blank the `)delim` part too (a delimiter is arbitrary text
                # and must not leak into the stripped output); keep the final
                # quote so the literal stays delimited.
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                state = NORMAL
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


# --- rules -----------------------------------------------------------------

RAW_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])(?:std::)?(assert|abort)\s*\(")
RAW_RANDOM_RE = re.compile(
    r"std::(rand\b|mt19937|minstd_rand|random_device|default_random_engine|"
    r"uniform_int_distribution|uniform_real_distribution|"
    r"normal_distribution|bernoulli_distribution)"
    r"|(?<![A-Za-z0-9_:])s?rand\s*\("
)
UNCHECKED_RE = re.compile(r"FromPartsUnchecked")
UNCHECKED_DECL_RE = re.compile(
    r"static\s+CsrMatrix\s+FromPartsUnchecked|"
    r"CsrMatrix\s+CsrMatrix::FromPartsUnchecked"
)
VALIDATE_PAIR_RE = re.compile(r"ValidateStructure\s*\(|DGC_DCHECK_OK\s*\(")
VOID_DISCARD_RE = re.compile(
    r"\(\s*void\s*\)\s*[^;]*(\.Validate\s*\(|Status\s*(::|\()|Result<)"
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]')
SIMD_INTRINSIC_RE = re.compile(
    r"(?<![A-Za-z0-9_])(_mm\d*_[a-z0-9_]+\s*\(|__m(128|256|512)[di]?\b|"
    r"v(ld1|st1|add|sub|mul|div|clt|cle|ceq|dup|get|set)q?_[a-z0-9_]+\s*\(|"
    r"(float|int|uint)(32|64)x\d+(x\d+)?_t\b)"
)
SIMD_HEADER_RE = re.compile(
    r"^(immintrin|x86intrin|xmmintrin|emmintrin|pmmintrin|tmmintrin|"
    r"smmintrin|nmmintrin|avxintrin|avx2intrin|arm_neon)\.h$"
)


def is_under(path, prefix):
    return path == prefix or path.startswith(prefix.rstrip("/") + "/") or \
        fnmatch.fnmatch(path, prefix)


def lint_file(relpath, raw_text, findings):
    code = strip_comments_and_strings(raw_text)
    raw_lines = raw_text.splitlines()
    lines = code.splitlines()
    is_header = relpath.endswith((".h", ".hpp"))

    def add(rule, lineno, message):
        text = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        findings.append(Finding(rule, relpath, lineno, message, text))

    in_logging = is_under(relpath, "src/util/logging.*")
    in_rng = is_under(relpath, "src/util/rng.*")

    for idx, line in enumerate(lines, start=1):
        if not in_logging:
            m = RAW_ASSERT_RE.search(line)
            if m:
                add("no-raw-assert", idx,
                    f"raw {m.group(1)}() outside src/util/logging.*; use "
                    "DGC_CHECK*/DGC_DCHECK* (or DGC_LOG(Fatal)) instead")
        if not in_rng:
            m = RAW_RANDOM_RE.search(line)
            if m:
                add("no-raw-random", idx,
                    "unseeded/non-portable RNG outside src/util/rng.*; "
                    "take an explicit dgc::Rng instead")
        m = VOID_DISCARD_RE.search(line)
        if m:
            add("no-void-status-discard", idx,
                "(void)-discarding a Status/Result; handle the error or "
                "use DGC_CHECK_OK / DGC_DCHECK_OK")
        m = SIMD_INTRINSIC_RE.search(line)
        if m:
            add("no-simd-intrinsics", idx,
                "raw SIMD intrinsic; write the plain scalar loop instead")
        # Include targets live inside quotes, which the stripper blanks, so
        # match the raw line — but only when the stripped line is still an
        # #include (i.e. the directive is not commented out).
        m = INCLUDE_RE.match(raw_lines[idx - 1]) \
            if re.match(r"^\s*#\s*include", line) else None
        if m:
            style, target = m.group(1), m.group(2)
            if target.startswith("../") or "/../" in target:
                add("include-no-relative", idx,
                    f'relative include "{target}"; include project headers '
                    "by their root-relative path")
            if target.startswith("bits/"):
                add("include-no-bits", idx,
                    f"<{target}> is a libstdc++ internal; include the "
                    "standard header instead")
            first_dir = target.split("/", 1)[0]
            if style == "<" and first_dir in PROJECT_INCLUDE_DIRS:
                add("include-project-quotes", idx,
                    f"project header <{target}> included with angle "
                    "brackets; use quotes")
            if SIMD_HEADER_RE.match(target):
                add("no-simd-intrinsics", idx,
                    f"intrinsic header <{target}>; write the plain scalar "
                    "loop instead")

    # unchecked-needs-validate: window search on the stripped code.
    for idx, line in enumerate(lines, start=1):
        if not UNCHECKED_RE.search(line):
            continue
        if UNCHECKED_DECL_RE.search(line):
            continue  # declaration or definition, not a call site
        window = "\n".join(lines[idx - 1: idx - 1 + VALIDATE_WINDOW])
        if not VALIDATE_PAIR_RE.search(window):
            add("unchecked-needs-validate", idx,
                "FromPartsUnchecked call without ValidateStructure(...) or "
                f"DGC_DCHECK_OK(...Validate()) within {VALIDATE_WINDOW} "
                "lines")

    if is_header and "#pragma once" not in code:
        add("include-pragma-once", 1, "header is missing #pragma once")

    if relpath == "src/util/status.h" and \
            not re.search(r"class\s+\[\[nodiscard\]\]\s+Status", code):
        add("nodiscard-declared", 1,
            "class Status must be declared [[nodiscard]]")
    if relpath == "src/util/result.h" and \
            not re.search(r"class\s+\[\[nodiscard\]\]\s+Result", code):
        add("nodiscard-declared", 1,
            "class Result must be declared [[nodiscard]]")


# --- allowlist -------------------------------------------------------------

def load_allowlist(path):
    """Allowlist entries, one per line:

        <rule>|<path glob>|<line regex>|<justification>

    Blank lines and lines starting with # are ignored. The justification is
    mandatory: entries without one are themselves a lint error.
    """
    entries = []
    problems = []
    if not os.path.exists(path):
        return entries, problems
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|", 3)
            if len(parts) != 4 or not parts[3].strip():
                problems.append(
                    f"{path}:{lineno}: malformed allowlist entry (want "
                    "rule|path-glob|line-regex|justification)")
                continue
            rule, glob, regex, why = (p.strip() for p in parts)
            try:
                entries.append((rule, glob, re.compile(regex), why))
            except re.error as e:
                problems.append(f"{path}:{lineno}: bad regex: {e}")
    return entries, problems


def is_allowlisted(finding, entries, raw_lines_by_file,
                   inline_allow_re=INLINE_ALLOW_RE):
    lines = raw_lines_by_file.get(finding.path, [])
    raw = lines[finding.line - 1] if finding.line - 1 < len(lines) else ""
    m = inline_allow_re.search(raw)
    if m and finding.rule in [r.strip() for r in m.group(1).split(",")]:
        return True
    for rule, glob, regex, _why in entries:
        if rule != finding.rule and rule != "*":
            continue
        if not fnmatch.fnmatch(finding.path, glob):
            continue
        if regex.search(raw) or regex.pattern == "":
            return True
    return False


# --- file discovery --------------------------------------------------------

def discover_files(root, compile_commands):
    files = set()
    for d in SOURCE_DIRS:
        base = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(base):
            # analyze_corpus holds the dgc-analyze seeded-violation fixtures:
            # deliberately broken sources that must never be linted as tree
            # code (their self-test passes them explicitly).
            dirnames[:] = [x for x in dirnames
                           if not x.startswith("build")
                           and x != "analyze_corpus"]
            for name in filenames:
                if name.endswith(SOURCE_EXTENSIONS):
                    files.add(
                        os.path.relpath(os.path.join(dirpath, name), root))
    if compile_commands:
        with open(compile_commands, encoding="utf-8") as f:
            for entry in json.load(f):
                path = os.path.normpath(
                    os.path.join(entry.get("directory", ""), entry["file"]))
                rel = os.path.relpath(path, root)
                if rel.startswith("..") or rel.split(os.sep)[0].startswith(
                        "build"):
                    continue
                if rel.endswith(SOURCE_EXTENSIONS):
                    files.add(rel)
    return sorted(files)


def run_driver(argv, tool, description, inline_allow_re, default_allowlist,
               check_file, extra_report=None):
    """The CLI shared by dgc-lint and dgc-analyze: file discovery, one
    `check_file(relpath, text, findings)` call per file, allowlist and
    inline suppression, the --json report (`extra_report` keys follow
    "tool"), findings on stdout and the summary on stderr. Returns the
    exit code: 0 clean, 1 findings, 2 usage/environment error."""
    verb = tool.split("-", 1)[1]
    parser = argparse.ArgumentParser(
        prog=tool, description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two dirs above this file)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json to union TUs from")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             f"tools/lint/{default_allowlist} under --root)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write machine-readable findings report here")
    parser.add_argument("paths", nargs="*",
                        help=f"{verb} only these files (relative to --root)")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root or
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(root):
        print(f"{tool}: no such root: {root}", file=sys.stderr)
        return 2
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "lint", default_allowlist)
    entries, problems = load_allowlist(allowlist_path)

    if args.paths:
        files = sorted(set(args.paths))
    else:
        files = discover_files(root, args.compile_commands)
    if not files:
        print(f"{tool}: no source files found", file=sys.stderr)
        return 2

    findings = []
    raw_lines_by_file = {}
    checked = 0
    for rel in files:
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"{tool}: cannot read {rel}: {e}", file=sys.stderr)
            return 2
        raw_lines_by_file[rel] = text.splitlines()
        check_file(rel, text, findings)
        checked += 1

    kept, suppressed = [], 0
    for finding in findings:
        if is_allowlisted(finding, entries, raw_lines_by_file,
                          inline_allow_re):
            suppressed += 1
        else:
            kept.append(finding)
    for problem in problems:
        kept.append(Finding("allowlist-malformed", allowlist_path, 0,
                            problem, ""))

    if args.json_out:
        report = {
            "tool": tool,
            **(extra_report or {}),
            "root": root,
            "checked_files": checked,
            "suppressed": suppressed,
            "findings": [f.to_json() for f in kept],
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    for finding in kept:
        print(finding)
    emit_github_annotations(kept)
    summary = (f"{tool}: {checked} files, {len(kept)} finding(s), "
               f"{suppressed} allowlisted")
    print(summary, file=sys.stderr)
    return 1 if kept else 0


def main(argv):
    return run_driver(argv, tool="dgc-lint", description=__doc__,
                      inline_allow_re=INLINE_ALLOW_RE,
                      default_allowlist="allowlist.txt",
                      check_file=lint_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
