// Seeded violation: fp-fma (and nothing else).
// Fused multiply-add rounds once where the determinism contract pins
// two-rounding semantics (-ffp-contract=off) for byte-identical goldens.
#include <cmath>

double DotTail(const double* a, const double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    acc = std::fma(a[i], b[i], acc);
  }
  return acc;
}

float DotTailF(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    acc = fmaf(a[i], b[i], acc);
  }
  return acc;
}
