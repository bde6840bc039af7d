#!/usr/bin/env python3
"""Self-test for dgc-analyze: every determinism rule must fire on its seeded
corpus file — and only there — suppression must work via the allowlist and
inline comments, and the GitHub-annotation mirror must track the JSON
report. This is the CI "negative test": if a rule silently stops firing,
this fails before the tree can rot."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ANALYZE = os.path.join(HERE, "dgc_analyze.py")
REPO_ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
CORPUS = os.path.join("tools", "lint", "analyze_corpus")

# file stem -> the exact rule set it must trigger (empty = must be clean).
CORPUS_EXPECTATIONS = {
    "par_container_mutation": {"par-shared-container-mutation"},
    "par_compound_assign": {"par-shared-compound-assign"},
    "par_element_write": {"par-shared-element-write"},
    "fp_fma": {"fp-fma"},
    "fp_unordered_reduce": {"fp-unordered-reduce"},
    "fp_atomic_float": {"fp-atomic-float"},
    "fp_fast_math": {"fp-fast-math"},
    "nd_unordered_iteration": {"nd-unordered-iteration"},
    "nd_pointer_keyed": {"nd-pointer-keyed"},
    "nd_entropy_seed": {"nd-entropy-seed"},
    "par_clean": set(),
}


def run_analyze(root, *extra, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_ACTIONS"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, ANALYZE, "--root", root, *extra],
        capture_output=True, text=True, env=env)


def rules_fired(result):
    rules = set()
    for line in result.stdout.splitlines():
        if "] " in line and ": [" in line:
            rules.add(line.split(": [")[1].split("]")[0])
    return rules


class CorpusTest(unittest.TestCase):
    """Each seeded violation file triggers exactly its intended rule."""

    def test_corpus_covers_three_rules_per_family(self):
        families = {"par": 0, "fp": 0, "nd": 0}
        for stem, rules in CORPUS_EXPECTATIONS.items():
            for rule in rules:
                families[rule.split("-")[0]] += 1
        self.assertGreaterEqual(families["par"], 3)
        self.assertGreaterEqual(families["fp"], 3)
        self.assertGreaterEqual(families["nd"], 3)

    def test_every_corpus_file_has_an_expectation(self):
        stems = {os.path.splitext(f)[0]
                 for f in os.listdir(os.path.join(REPO_ROOT, CORPUS))
                 if f.endswith(".cc")}
        self.assertEqual(stems, set(CORPUS_EXPECTATIONS))

    def test_each_file_fires_exactly_its_rule(self):
        for stem, expected in CORPUS_EXPECTATIONS.items():
            path = os.path.join(CORPUS, stem + ".cc")
            result = run_analyze(REPO_ROOT, "--allowlist", os.devnull, path)
            with self.subTest(file=stem):
                self.assertEqual(result.returncode, 1 if expected else 0,
                                 result.stdout + result.stderr)
                self.assertEqual(rules_fired(result), expected,
                                 result.stdout + result.stderr)

    def test_corpus_is_pruned_from_tree_discovery(self):
        # The fixtures are deliberately broken; a full-tree run must not see
        # them (it would otherwise report their seeded violations).
        result = run_analyze(REPO_ROOT)
        self.assertNotIn("analyze_corpus", result.stdout)


class SyntheticTreeTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        os.makedirs(os.path.join(self.root, "src", "util"))
        os.makedirs(os.path.join(self.root, "tools", "lint"))

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    SHARED_SUM = """\
template <class F>
void ParallelFor(long lo, long hi, int threads, F body);
void f(const double* v, long n, int threads) {
  double total = 0.0;
  ParallelFor(0, n, threads, [&](long i) { total += v[i]; });
}
"""

    def test_violations_in_comments_and_strings_ignored(self):
        self.write("src/util/prose.cc", """\
// std::fma(a, b, c) and rand() belong in comments.
/* ParallelFor(0, n, t, [&](long i) { shared.push_back(i); }); */
const char* kMsg = "std::random_device std::reduce(v.begin(), v.end())";
const char* kRaw = R"(for (const auto& kv : an_unordered_map_use) {})";
""")
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_value_capture_is_not_shared_state(self):
        # A by-value capture (even mutable) writes a private copy; only
        # by-reference captures and globals are shared across workers.
        self.write("src/util/bycopy.cc", """\
template <class F>
void ParallelFor(long lo, long hi, int threads, F body);
void f(long n, int threads) {
  double total = 0.0;
  ParallelFor(0, n, threads,
              [total](long i) mutable { total += static_cast<double>(i); });
}
""")
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_plain_function_with_container_mutation_is_not_a_lambda_body(self):
        # push_back outside a ParallelFor lambda is ordinary serial code.
        self.write("src/util/serial.cc", """\
#include <vector>
void f(std::vector<int>& out, int n) {
  for (int i = 0; i < n; ++i) out.push_back(i);
}
""")
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_fp_rules_flag_every_file(self):
        # No path is exempt, a file named like a dispatch layer included.
        body = "double f(double a, double b, double c) " \
               "{ return __builtin_fma(a, b, c); }\n"
        for rel in ("src/util/simd.cc", "src/linalg/leaky.cc"):
            self.write(rel, body)
            result = run_analyze(self.root)
            self.assertEqual(result.returncode, 1,
                             rel + result.stdout + result.stderr)
            self.assertEqual(rules_fired(result), {"fp-fma"}, rel)
            os.remove(os.path.join(self.root, rel))

    def test_gen_and_rng_exempt_from_entropy_rule(self):
        body = "#include <random>\nunsigned f() " \
               "{ std::random_device rd; return rd(); }\n"
        self.write("src/gen/sampler.cc", body)
        self.write("src/util/rng.cc", body)
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.write("src/cluster/seedy.cc", body)
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(rules_fired(result), {"nd-entropy-seed"})

    def test_sorted_copy_of_unordered_map_passes(self):
        # Copy-then-sort is the sanctioned pattern: iterating the copy is
        # order-defined even though the source container is unordered.
        self.write("src/eval/sorted.cc", """\
#include <algorithm>
#include <unordered_map>
#include <vector>
double f(const std::unordered_map<int, double>& m) {
  std::vector<std::pair<int, double>> items(m.begin(), m.end());
  std::sort(items.begin(), items.end());
  double total = 0.0;
  for (const auto& kv : items) total = total + kv.second;
  return total;
}
""")
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_inline_allow_comment_suppresses(self):
        self.write("src/util/bad.cc", self.SHARED_SUM.replace(
            "total += v[i];",
            "total += v[i];  "
            "// dgc-analyze: allow(par-shared-compound-assign) exercising"))
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_dgc_lint_marker_does_not_suppress_analyze(self):
        # The two tools have separate allow vocabularies on purpose: a
        # dgc-lint waiver must not silence a determinism finding.
        self.write("src/util/bad.cc", self.SHARED_SUM.replace(
            "total += v[i];",
            "total += v[i];  "
            "// dgc-lint: allow(par-shared-compound-assign) wrong tool"))
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)

    def test_allowlist_suppresses_with_justification(self):
        self.write("src/util/bad.cc", self.SHARED_SUM)
        self.write("tools/lint/analyze_allowlist.txt",
                   "par-shared-compound-assign|src/util/bad.cc|total"
                   "|vetted: exercising the allowlist in a test\n")
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("1 allowlisted", result.stderr)

    def test_malformed_allowlist_entry_is_a_finding(self):
        self.write("src/util/fine.cc", "void f();\n")
        self.write("tools/lint/analyze_allowlist.txt",
                   "fp-fma|src/util/bad.cc|fma|\n")
        result = run_analyze(self.root)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("allowlist-malformed", result.stdout)

    def test_json_report_shape(self):
        self.write("src/util/bad.cc", self.SHARED_SUM)
        out = os.path.join(self.root, "report.json")
        result = run_analyze(self.root, "--json", out)
        self.assertEqual(result.returncode, 1)
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
        self.assertEqual(report["tool"], "dgc-analyze")
        self.assertIn("engine_version", report)
        finding = report["findings"][0]
        self.assertEqual(finding["rule"], "par-shared-compound-assign")
        self.assertEqual(finding["file"], "src/util/bad.cc")
        self.assertEqual(finding["line"], 5)
        self.assertIn("total", finding["text"])

    def test_github_annotations_only_under_actions_env(self):
        self.write("src/util/bad.cc", self.SHARED_SUM)
        result = run_analyze(self.root)
        self.assertNotIn("::error", result.stdout)
        result = run_analyze(self.root,
                             env_extra={"GITHUB_ACTIONS": "true"})
        self.assertEqual(result.returncode, 1)
        self.assertIn("::error file=src/util/bad.cc,line=5::"
                      "[par-shared-compound-assign]", result.stdout)


if __name__ == "__main__":
    unittest.main()
