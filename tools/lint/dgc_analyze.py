#!/usr/bin/env python3
"""dgc-analyze: determinism static analysis for the dgc codebase.

The library's headline guarantee is bit-identical clustering output at any
thread count and under any -march. The end-to-end determinism tests
catch violations after they happen; this analyzer proves the invariants
structurally, before they ship, with three rule families:

Parallel-capture audit (every lambda passed to ParallelFor /
ParallelForWorkers / ParallelForChunked):

  par-shared-container-mutation  push_back / emplace / insert / erase /
                           clear / resize on a by-reference-captured (or
                           global) container. Growth mutations from inside a
                           parallel body race on the container's size and
                           make element order depend on chunk scheduling.
  par-shared-compound-assign  +=, -=, ++ &c. (or plain =) on a shared
                           captured scalar. Cross-worker accumulation order
                           is scheduling-dependent; FP sums change bits,
                           integer sums race. Accumulate into per-worker
                           shards and reduce serially instead.
  par-shared-element-write shared[expr] = ... where expr involves neither a
                           loop-local variable, a lambda parameter (loop
                           index / worker id), nor anything derived from
                           them. Writes through the loop index or a
                           per-worker slot are the only sanctioned pattern.

FP-ordering hazards (every file, no exemption):

  fp-fma                   std::fma / fmaf / fmal / __builtin_fma. Fused
                           multiply-add rounds once where the scalar
                           contract rounds twice; the whole build pins
                           -ffp-contract=off so a -march=native build stays
                           byte-identical to the goldens. FMA must not come
                           back by hand.
  fp-unordered-reduce      std::reduce / std::transform_reduce (reduction
                           order unspecified by the standard), and
                           std::accumulate over floating-point operands
                           (order fixed but container-iteration-dependent).
                           Use explicit index-order loops.
  fp-atomic-float          std::atomic<float/double/Scalar>. Atomic FP
                           accumulation commits in scheduling order, which
                           reorders roundings run to run.
  fp-fast-math             pragmas / attributes that re-enable FP
                           reassociation or contraction (fast-math,
                           FP_CONTRACT ON, float_control(precise, off)) or
                           OpenMP constructs, which bypass the deterministic
                           pool and its reduction conventions.

Nondeterminism sources:

  nd-unordered-iteration   range-for over a std::unordered_map/set.
                           Iteration order is a function of hashing, load
                           factor and the standard library, not of the data;
                           anything accumulated or tie-broken in that order
                           is not portably reproducible.
  nd-pointer-keyed         std::map/set (or unordered) keyed on a pointer
                           type: comparison/hash order is allocation order,
                           different every run under ASLR.
  nd-entropy-seed          std::random_device, srand/rand, or seeding an
                           Rng from wall-clock time / pid. All stochastic
                           code takes an explicit seeded dgc::Rng
                           (src/gen and src/util/rng.* are exempt).

Analysis engine: the analyzer parses each translation unit into an AST-lite
form of its own — comment/string stripping (shared with dgc-lint), a
bracket-matched call tree around every ParallelFor* call site, lambda
capture-list / parameter / body extraction, and declaration scanning for
body-local names. It deliberately does not depend on the libclang Python
bindings: the pinned toolchain image does not ship them, and the engine's
file-local checks need no cross-TU type information. CI pins the clang
tooling versions separately so the clang-tidy half of the static-analysis
gate is reproducible.

File set, CLI, JSON report, exit codes and suppression follow dgc-lint:
  1. Fix the finding.
  2. Inline: append  // dgc-analyze: allow(<rule>) <reason>  to the line.
  3. Entry in tools/lint/analyze_allowlist.txt (same format as the dgc-lint
     allowlist; the justification field is mandatory).

Exit codes: 0 clean, 1 findings, 2 usage/environment error.
--json FILE writes a machine-readable report regardless of outcome.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from dgc_lint import (  # noqa: E402  (path bootstrap above)
    Finding,
    is_under,
    run_driver,
    strip_comments_and_strings,
)

ENGINE_VERSION = "1"

INLINE_ALLOW_RE = re.compile(r"//\s*dgc-analyze:\s*allow\(([\w,\- ]+)\)")

PARALLEL_CALL_RE = re.compile(
    r"\b(ParallelFor|ParallelForWorkers|ParallelForChunked)\s*\(")

# C++ keywords that must never be mistaken for a declaration's type name.
NON_TYPE_KEYWORDS = frozenset({
    "return", "else", "new", "delete", "throw", "case", "do", "while", "if",
    "switch", "goto", "sizeof", "template", "typename", "using", "namespace",
    "public", "private", "protected", "operator", "break", "continue",
    "co_return", "co_await", "co_yield", "default", "typedef", "static_cast",
    "const_cast", "dynamic_cast", "reinterpret_cast", "not", "and", "or",
})

# `Type name =`, `Type& name;`, `auto name{`, `for (Type name : ...` — a
# type-ish token followed by a new identifier. Template arguments are
# consumed non-greedily so `std::vector<int> v` resolves to `v`.
DECL_RE = re.compile(
    r"(?:^|[;{(,]|\bfor\s*\()\s*"
    r"(?:const\s+|constexpr\s+|static\s+|volatile\s+|unsigned\s+|signed\s+)*"
    r"(auto|[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)"
    r"(?:\s*<[^;{}]{0,240}?>)?"
    r"[&*\s]+([A-Za-z_]\w*)\s*(?==[^=]|[;{(,)]|:[^:])",
    re.MULTILINE)

# Structured bindings: `auto& [a, b] = ...` / `for (const auto& [k, v] : m)`.
STRUCTURED_BINDING_RE = re.compile(
    r"\bauto\s*[&*]{0,2}\s*\[([^\]]{1,120})\]")

CONTAINER_MUTATION_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*"
    r"((?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(push_back|emplace_back|emplace|insert|erase|clear|resize)\s*\(")

COMPOUND_ASSIGN_RE = re.compile(
    r"(?<![\w.>\[])([A-Za-z_]\w*)\s*"
    r"(\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|=(?![=>]))")

# The (?!\w) after the identifier forces a full-identifier match: without
# it, `++counts[i]` backtracks to the identifier `count` so the trailing
# `s` satisfies the not-an-element-write lookahead.
INCDEC_RE = re.compile(
    r"(?:(\+\+|--)\s*([A-Za-z_]\w*)(?!\w)(?!\s*[\[.])"
    r"|(?<![\w.>\]])([A-Za-z_]\w*)\s*(\+\+|--))")

ELEMENT_WRITE_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*\[")

FMA_RE = re.compile(
    r"(?<![\w.:])(?:std::|__builtin_)?(fma|fmaf|fmal)\s*\(")
UNORDERED_REDUCE_RE = re.compile(
    r"std::(reduce|transform_reduce)\s*\(")
ACCUMULATE_RE = re.compile(r"std::accumulate\s*\(")
FLOATISH_RE = re.compile(
    r"\b(?:Scalar|double|float)\b|(?<![\w.])\d+\.\d*f?|(?<![\w.])\.\d+f?")
ATOMIC_FLOAT_RE = re.compile(
    r"std::atomic\s*<\s*(?:long\s+double|double|float|Scalar)\b")
FAST_MATH_PRAGMA_RE = re.compile(
    r"#\s*pragma\s+(?:"
    r".*\b(?:fast_math|fast-math)\b"
    r"|STDC\s+FP_CONTRACT\s+ON"
    r"|.*\bfp_contract\s*\(\s*on"
    r"|.*float_control\s*\(\s*precise\s*,\s*off"
    r"|omp\b"
    r")|__attribute__\s*\(\(\s*optimize\s*\(.*(?:fast-math|unsafe-math)")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]{0,200}?:\s*([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*\)")
POINTER_KEYED_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*"
    r"(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^<>]{0,80}>)?\s*\*")
ENTROPY_RE = re.compile(
    r"std::random_device|(?<![\w:.])s?rand\s*\(")
TIME_SEED_RE = re.compile(
    r"(?:\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)|::now\s*\(\s*\)"
    r"|\bgetpid\s*\(\s*\))")
SEED_CONTEXT_RE = re.compile(r"\b[Ss]eed\b|\bRng\s*\(|\brng\s*\(")


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_bracket(text, open_pos):
    """Returns the offset one past the bracket matching text[open_pos]
    (one of ([{), or len(text) if unbalanced."""
    pairs = {"(": ")", "[": "]", "{": "}"}
    close = pairs[text[open_pos]]
    openc = text[open_pos]
    depth = 0
    i = open_pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == openc:
            depth += 1
        elif c == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def split_top_level(text, sep=","):
    """Splits on `sep` at bracket depth 0 (angle brackets included, since
    capture lists / parameter lists may carry template arguments)."""
    parts = []
    depth = 0
    current = []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        if c == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    parts.append("".join(current))
    return parts


class Lambda:
    """A lambda literal found at argument position of a ParallelFor* call."""

    def __init__(self, captures, params, body, body_offset):
        self.captures = captures      # list of raw capture strings
        self.params = params          # list of parameter names
        self.body = body              # stripped body text, braces excluded
        self.body_offset = body_offset  # offset of body start in file text

    @property
    def by_ref_default(self):
        return any(c.strip() == "&" for c in self.captures)

    @property
    def by_ref_names(self):
        names = set()
        for c in self.captures:
            c = c.strip()
            m = re.match(r"&\s*([A-Za-z_]\w*)", c)
            if m and "=" not in c:
                names.add(m.group(1))
            m = re.match(r"&\s*([A-Za-z_]\w*)\s*=", c)
            if m:
                names.add(m.group(1))  # init-capture by reference
        return names


def extract_lambda(arg_text, arg_offset):
    """Finds the first lambda literal in a call's argument text. Returns a
    Lambda or None. `arg_offset` is the argument text's offset in the file,
    so body positions can be mapped back to lines."""
    i = 0
    n = len(arg_text)
    while i < n:
        c = arg_text[i]
        if c in "({":
            i = match_bracket(arg_text, i)
            continue
        if c == "[":
            prev = arg_text[:i].rstrip()
            # A capture list opens an argument (after '(' or ',') — an
            # index expression never does.
            if prev and prev[-1] not in "(,":
                i = match_bracket(arg_text, i)
                continue
            cap_end = match_bracket(arg_text, i)
            captures = split_top_level(arg_text[i + 1:cap_end - 1])
            j = cap_end
            while j < n and arg_text[j].isspace():
                j += 1
            params = []
            if j < n and arg_text[j] == "(":
                par_end = match_bracket(arg_text, j)
                for p in split_top_level(arg_text[j + 1:par_end - 1]):
                    ids = re.findall(r"[A-Za-z_]\w*", p.split("=")[0])
                    if len(ids) >= 2:  # type + name; unnamed params skipped
                        params.append(ids[-1])
                j = par_end
            while j < n and arg_text[j] != "{":
                j += 1
            if j >= n:
                return None
            body_end = match_bracket(arg_text, j)
            return Lambda(captures, params,
                          arg_text[j + 1:body_end - 1],
                          arg_offset + j + 1)
        i += 1
    return None


def declared_names_in_statement(body, name_start):
    """Names declared by a (possibly multi-declarator) declaration whose
    first declarator begins at name_start: `size_t a = 0, b = 0;` declares
    both a and b. Scans to the statement end, stopping at an unbalanced
    close bracket so expression contexts contribute only their first name."""
    names = []

    def take(segment):
        m = re.match(r"\s*[&*\s]*([A-Za-z_]\w*)", segment)
        if m:
            names.append(m.group(1))

    depth = 0
    i = name_start
    seg_start = name_start
    n = len(body)
    while i < n:
        c = body[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif c == ";" and depth == 0:
            break
        elif c == "," and depth == 0:
            take(body[seg_start:i])
            seg_start = i + 1
        i += 1
    take(body[seg_start:i])
    return names


def local_names(body):
    """Heuristic set of names declared inside a lambda body (locals, nested
    loop variables, nested lambda parameters, structured bindings)."""
    names = set()
    for m in DECL_RE.finditer(body):
        type_name = m.group(1).split("::")[0]
        if type_name in NON_TYPE_KEYWORDS:
            continue
        names.update(declared_names_in_statement(body, m.start(2)))
    for m in STRUCTURED_BINDING_RE.finditer(body):
        for name in re.findall(r"[A-Za-z_]\w*", m.group(1)):
            names.add(name)
    # Nested lambda capture lists and parameters: [&x](const auto& y) {...}
    for m in re.finditer(r"\[([^\]]{0,120})\]\s*\(([^)]{0,200})\)\s*"
                         r"(?:mutable\s*)?(?:->[^{]{0,80})?\{", body):
        for p in split_top_level(m.group(2)):
            ids = re.findall(r"[A-Za-z_]\w*", p.split("=")[0])
            if len(ids) >= 2:
                names.add(ids[-1])
    return names


def analyze_parallel_lambda(relpath, text, lam, call_name, add):
    """Applies the par-* rules to one ParallelFor* lambda body."""
    body = lam.body
    locals_ = local_names(body) | set(lam.params)

    def is_shared(name):
        if name in locals_ or name in NON_TYPE_KEYWORDS:
            return False
        if name in ("std", "this"):
            return False
        if lam.by_ref_default or name in lam.by_ref_names:
            return True
        # Not captured at all and not local: namespace-scope state.
        explicit_value = any(
            re.fullmatch(r"=|\s*" + re.escape(name) + r"\s*(=.*)?",
                         c.strip()) for c in lam.captures)
        return not explicit_value

    def body_line(offset):
        return line_of(text, lam.body_offset + offset)

    # Rule: par-shared-container-mutation ------------------------------------
    for m in CONTAINER_MUTATION_RE.finditer(body):
        base = m.group(1)
        if not is_shared(base):
            continue
        add("par-shared-container-mutation", body_line(m.start()),
            f"{call_name} body calls {m.group(3)}() on '{base}', which is "
            "shared across workers; growth mutations race on the container "
            "size and make element order depend on chunk scheduling — "
            "buffer into a per-worker workspace and assemble after the loop")

    # Rule: par-shared-compound-assign ---------------------------------------
    masked = CONTAINER_MUTATION_RE.sub(lambda m: " " * len(m.group(0)), body)
    for m in COMPOUND_ASSIGN_RE.finditer(masked):
        base, op = m.group(1), m.group(2)
        # `x == y`, `<=`, `>=` never match (op regex); skip declarations
        # (`Type x = ...` puts x in locals_) and member stores via locals.
        if not is_shared(base):
            continue
        tail = masked[m.end():m.end() + 1]
        if op == "=" and tail == "=":
            continue
        add("par-shared-compound-assign", body_line(m.start()),
            f"{call_name} body writes shared capture '{base}' with '{op}'; "
            "cross-worker accumulation order is scheduling-dependent — "
            "accumulate into a per-worker shard and reduce serially after "
            "the loop")
    for m in INCDEC_RE.finditer(masked):
        base = m.group(2) or m.group(3)
        if base is None or not is_shared(base):
            continue
        add("par-shared-compound-assign", body_line(m.start()),
            f"{call_name} body increments shared capture '{base}'; "
            "cross-worker increment order is scheduling-dependent — use a "
            "per-worker shard and reduce serially after the loop")

    # Rule: par-shared-element-write -----------------------------------------
    for m in ELEMENT_WRITE_RE.finditer(body):
        base = m.group(1)
        if not is_shared(base):
            continue
        idx_open = body.index("[", m.end() - 1)
        idx_close = match_bracket(body, idx_open)
        after = body[idx_close:].lstrip()
        wrote = (re.match(r"(?:=(?![=>])|\+=|-=|\*=|/=|%=|\|=|&=|\^=|"
                          r"<<=(?!=)|>>=|\+\+|--)", after) is not None or
                 re.search(r"(?:\+\+|--)\s*" + re.escape(base) + r"\s*\[",
                           body[max(0, m.start() - 8):m.start() + 1
                                + len(base)]) is not None)
        if not wrote:
            continue
        index_expr = body[idx_open + 1:idx_close - 1]
        index_ids = set(re.findall(r"[A-Za-z_]\w*", index_expr))
        if index_ids & (locals_ | set(lam.params)):
            continue  # loop-index / worker-slot / derived-local write
        add("par-shared-element-write", body_line(m.start()),
            f"{call_name} body writes '{base}[{index_expr.strip()}]' but "
            "the index involves no loop-local variable or lambda parameter; "
            "only writes through the loop index or a per-worker slot are "
            "provably disjoint across workers")


def unordered_container_names(code):
    """Names declared (file-locally) with an unordered container type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        # Walk past the template argument list, then take the first
        # identifier at angle depth 0: `unordered_map<Index, Scalar> link;`
        # and `std::vector<std::unordered_map<Index, Scalar>> boundary(...`.
        i = code.index("<", m.start())
        depth = 0
        n = len(code)
        while i < n:
            c = code[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth <= 0:
                    i += 1
                    break
            elif c in ";{}":
                break
            i += 1
        m2 = re.match(r"[>\s&*]*([A-Za-z_]\w*)", code[i:])
        if m2 and m2.group(1) not in NON_TYPE_KEYWORDS:
            names.add(m2.group(1))
    return names


def analyze_file(relpath, raw_text, findings):
    code = strip_comments_and_strings(raw_text)
    raw_lines = raw_text.splitlines()
    lines = code.splitlines()

    def add(rule, lineno, message):
        text = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        findings.append(Finding(rule, relpath, lineno, message, text))

    in_rng = is_under(relpath, "src/util/rng.*")
    in_gen = relpath.startswith("src/gen/")

    # --- family: parallel-capture audit ------------------------------------
    for m in PARALLEL_CALL_RE.finditer(code):
        call_name = m.group(1)
        open_paren = code.index("(", m.end() - 1)
        close = match_bracket(code, open_paren)
        args = code[open_paren + 1:close - 1]
        lam = extract_lambda(args, open_paren + 1)
        if lam is None:
            continue  # declaration, definition, or opaque callable
        analyze_parallel_lambda(relpath, code, lam, call_name, add)

    # --- family: FP-ordering hazards ---------------------------------------
    for idx, line in enumerate(lines, start=1):
        fm = FMA_RE.search(line)
        if fm:
            add("fp-fma", idx,
                f"{fm.group(1)}() fuses multiply-add into one rounding; "
                "the determinism contract pins two-rounding semantics "
                "(-ffp-contract=off) so -march=native builds stay "
                "byte-identical — multiply and add separately")
        rm = UNORDERED_REDUCE_RE.search(line)
        if rm:
            add("fp-unordered-reduce", idx,
                f"std::{rm.group(1)} has unspecified reduction order; "
                "over floating-point operands the bits depend on the "
                "implementation — write an explicit index-order loop")
        am = ACCUMULATE_RE.search(line)
        if am:
            start = code.find("(", sum(len(x) + 1 for x in
                                       lines[:idx - 1]) + am.start())
            span = code[start:match_bracket(code, start)]
            if FLOATISH_RE.search(span):
                add("fp-unordered-reduce", idx,
                    "std::accumulate over floating-point operands sums "
                    "in container-iteration order; make the order "
                    "explicit with an index loop so it is auditable")
        atm = ATOMIC_FLOAT_RE.search(line)
        if atm:
            add("fp-atomic-float", idx,
                "std::atomic over a floating-point type: concurrent "
                "accumulation commits in scheduling order, reordering "
                "roundings run to run — use per-worker shards and a "
                "serial reduction")
        pm = FAST_MATH_PRAGMA_RE.search(line)
        if pm:
            add("fp-fast-math", idx,
                "pragma/attribute re-enables FP reassociation, "
                "contraction, or OpenMP scheduling, bypassing the "
                "-ffp-contract=off pin and the deterministic pool")

    # --- family: nondeterminism sources ------------------------------------
    unordered_names = unordered_container_names(code)
    for idx, line in enumerate(lines, start=1):
        if unordered_names:
            fm = RANGE_FOR_RE.search(line)
            if fm and fm.group(1) in unordered_names:
                add("nd-unordered-iteration", idx,
                    f"range-for over unordered container '{fm.group(1)}': "
                    "iteration order is a function of hashing and the "
                    "standard library, not the data — sort the keys (or "
                    "copy to a vector) before anything order-sensitive")
        pk = POINTER_KEYED_RE.search(line)
        if pk:
            add("nd-pointer-keyed", idx,
                "container keyed on a pointer type orders/hashes by "
                "address, which changes every run under ASLR — key on a "
                "stable id instead")
        if not (in_rng or in_gen):
            em = ENTROPY_RE.search(line)
            if em:
                add("nd-entropy-seed", idx,
                    "hardware/libc entropy source outside src/gen and "
                    "src/util/rng.*; all stochastic code takes an explicit "
                    "seeded dgc::Rng for reproducibility")
            tm = TIME_SEED_RE.search(line)
            if tm and SEED_CONTEXT_RE.search(line):
                add("nd-entropy-seed", idx,
                    "time/pid-seeded RNG: the seed changes every run — "
                    "thread an explicit seed through the options struct "
                    "instead")


def main(argv):
    return run_driver(argv, tool="dgc-analyze", description=__doc__,
                      inline_allow_re=INLINE_ALLOW_RE,
                      default_allowlist="analyze_allowlist.txt",
                      check_file=analyze_file,
                      extra_report={"engine_version": ENGINE_VERSION})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
