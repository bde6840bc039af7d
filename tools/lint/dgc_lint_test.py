#!/usr/bin/env python3
"""Self-test for dgc-lint: every rule must fire on a seeded violation and
stay quiet on conforming code; suppression must work via both the allowlist
and inline comments. This is the CI "negative test" — if a rule silently
stops firing, this fails before the tree can rot."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "dgc_lint.py")


def run_lint(root, *extra, env_extra=None):
    # GITHUB_ACTIONS is scrubbed so stdout stays annotation-free when the
    # suite itself runs in CI; the annotation test opts back in explicitly.
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_ACTIONS"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, LINT, "--root", root, *extra],
        capture_output=True, text=True, env=env)


class DgcLintTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        os.makedirs(os.path.join(self.root, "src", "util"))
        os.makedirs(os.path.join(self.root, "tests"))
        os.makedirs(os.path.join(self.root, "tools", "lint"))

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    def rules_fired(self, result):
        rules = set()
        for line in result.stdout.splitlines():
            if "] " in line and ": [" in line:
                rules.add(line.split(": [")[1].split("]")[0])
        return rules

    def test_every_rule_fires_on_seeded_violations(self):
        self.write("src/util/bad.cc", """\
#include "../util/x.h"
#include <bits/stdc++.h>
#include <util/logging.h>
void f(int x) {
  assert(x > 0);
  abort();
  std::mt19937 gen(42);
}
void g() {
  auto m = CsrMatrix::FromPartsUnchecked(1, 1, {0, 0}, {}, {});
  use(m);
}
void h(const Thing& t) { (void)t.Validate(); }
void v(double* p) { __m256d x = _mm256_loadu_pd(p); (void)x; }
""")
        self.write("src/util/noguard.h", "int x;\n")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(
            self.rules_fired(result),
            {"no-raw-assert", "no-raw-random", "unchecked-needs-validate",
             "no-void-status-discard", "include-no-relative",
             "include-no-bits", "include-project-quotes",
             "include-pragma-once", "no-simd-intrinsics"})

    def test_clean_tree_passes(self):
        self.write("src/util/good.cc", """\
#include "util/logging.h"
void f(int x) { DGC_CHECK_GT(x, 0); }
void g() {
  auto m = CsrMatrix::FromPartsUnchecked(1, 1, {0, 0}, {}, {});
  m.ValidateStructure("g");
}
""")
        self.write("src/util/good.h", "#pragma once\nint declared();\n")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_violations_in_comments_and_strings_ignored(self):
        self.write("src/util/prose.cc", """\
// assert(x) and std::mt19937 belong in comments; so does abort().
/* FromPartsUnchecked( without validation, in a block comment. */
const char* kMsg = "assert(failed) std::rand()";
""")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_logging_and_rng_are_exempt_in_their_own_files(self):
        self.write("src/util/logging.cc",
                   "void Die() { abort(); }\n")
        self.write("src/util/rng.cc",
                   "int Legacy() { return std::mt19937(7)(); }\n")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_simd_intrinsics_flagged_in_every_file(self):
        body = """\
#include <immintrin.h>
#include <arm_neon.h>
void f(double* p) {
  __m256d x = _mm256_loadu_pd(p);
  _mm256_storeu_pd(p, x);
  float64x2_t y = vld1q_f64(p);
  vst1q_f64(p, y);
}
"""
        # No path is exempt, a file named like a dispatch layer included.
        for rel in ("src/util/simd.cc", "src/linalg/leaky.cc"):
            self.write(rel, body)
            result = run_lint(self.root)
            self.assertEqual(result.returncode, 1,
                             rel + result.stdout + result.stderr)
            self.assertEqual(self.rules_fired(result),
                             {"no-simd-intrinsics"}, rel)
            os.remove(os.path.join(self.root, rel))

    def test_raw_string_contents_are_ignored(self):
        # Rule text inside raw strings (all prefix forms, with and without
        # delimiters, spanning lines) must never fire; the delimiter text
        # itself must not leak into the stripped output either.
        self.write("src/util/raw.cc", """\
const char* a = R"(assert(x) std::rand() abort();)";
const char* b = R"==(std::mt19937 gen; FromPartsUnchecked()==";
const char* c = u8R"(abort();)";
const char* d = LR"(assert(1))";
const char* e = R"assert(x)assert";
const char* f = R"(line one
assert(2) abort();
line three)";
""")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_identifier_ending_in_r_is_not_a_raw_string_prefix(self):
        # FACTOR"(..." is the identifier FACTOR followed by an ordinary
        # string literal. The old stripper misread it as a raw string and
        # hunted for a )delim" that never comes, desynchronizing the scanner
        # and silently swallowing real violations later in the file.
        self.write("src/util/identr.cc", """\
int x = FACTOR"(no close here";
int y = VER"(1.2)";
void later() { abort(); }
""")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(self.rules_fired(result), {"no-raw-assert"})
        self.assertIn("identr.cc:3", result.stdout)

    def test_unterminated_string_resyncs_at_end_of_line(self):
        # Ill-formed input (a quote that never closes) must not swallow the
        # rest of the file: plain literals cannot span lines, so the
        # stripper resynchronizes at the newline.
        self.write("src/util/unterm.cc", """\
const char* s = "oops;
void later() { abort(); }
""")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(self.rules_fired(result), {"no-raw-assert"})

    def test_static_assert_is_not_a_raw_assert(self):
        self.write("src/util/sa.cc",
                   "static_assert(sizeof(int) == 4);\n")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_allowlist_suppresses_with_justification(self):
        self.write("src/util/bad.cc", "void f() { abort(); }\n")
        self.write("tools/lint/allowlist.txt",
                   "no-raw-assert|src/util/bad.cc|abort"
                   "|vetted: exercising the allowlist in a test\n")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("1 allowlisted", result.stderr)

    def test_malformed_allowlist_entry_is_a_finding(self):
        self.write("src/util/fine.cc", "void f();\n")
        self.write("tools/lint/allowlist.txt",
                   "no-raw-assert|src/util/bad.cc|abort|\n")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("allowlist-malformed", result.stdout)

    def test_inline_allow_comment_suppresses(self):
        self.write(
            "src/util/bad.cc",
            "void f() { abort(); }  "
            "// dgc-lint: allow(no-raw-assert) exercising inline allow\n")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_json_report_shape(self):
        self.write("src/util/bad.cc", "void f() { abort(); }\n")
        out = os.path.join(self.root, "report.json")
        result = run_lint(self.root, "--json", out)
        self.assertEqual(result.returncode, 1)
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
        self.assertEqual(report["tool"], "dgc-lint")
        self.assertEqual(report["checked_files"], 1)
        finding = report["findings"][0]
        self.assertEqual(finding["rule"], "no-raw-assert")
        self.assertEqual(finding["file"], "src/util/bad.cc")
        self.assertEqual(finding["line"], 1)
        self.assertIn("abort", finding["text"])

    def test_compile_commands_union(self):
        # A TU reachable only via compile_commands.json is still linted.
        os.makedirs(os.path.join(self.root, "extra"))
        self.write("extra/stray.cc", "void f() { abort(); }\n")
        cc = os.path.join(self.root, "compile_commands.json")
        with open(cc, "w", encoding="utf-8") as f:
            json.dump([{"directory": self.root, "file": "extra/stray.cc",
                        "command": "c++ -c extra/stray.cc"}], f)
        result = run_lint(self.root, "--compile-commands", cc)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("extra/stray.cc", result.stdout)

    def test_github_annotations_only_under_actions_env(self):
        self.write("src/util/bad.cc", "void f() { abort(); }\n")
        result = run_lint(self.root)
        self.assertNotIn("::error", result.stdout)
        result = run_lint(self.root, env_extra={"GITHUB_ACTIONS": "true"})
        self.assertEqual(result.returncode, 1)
        self.assertIn("::error file=src/util/bad.cc,line=1::[no-raw-assert]",
                      result.stdout)

    def test_github_annotation_escapes_workflow_metacharacters(self):
        # % and newlines in paths/messages must be %-escaped or the runner
        # truncates the annotation at the first line break.
        self.write("src/util/100%.cc", "void f() { abort(); }\n")
        result = run_lint(self.root, env_extra={"GITHUB_ACTIONS": "true"})
        self.assertEqual(result.returncode, 1)
        self.assertIn("::error file=src/util/100%25.cc,line=1::",
                      result.stdout)

    def test_declaration_and_definition_are_not_call_sites(self):
        self.write("src/util/decl.h", """\
#pragma once
class CsrMatrix {
  static CsrMatrix FromPartsUnchecked(int rows, int cols);
};
""")
        self.write("src/util/decl.cc", """\
CsrMatrix CsrMatrix::FromPartsUnchecked(int rows, int cols) {
  return CsrMatrix(rows, cols);
}
""")
        result = run_lint(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
