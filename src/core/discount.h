// Degree-discount schedules (Section 3.4 / Table 4 of the paper): how a
// node's degree is converted into a multiplicative penalty on its similarity
// contributions.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/types.h"

namespace dgc {

/// How the degree d is discounted.
enum class DiscountKind {
  kNone,   ///< no penalty (alpha = 0 in Table 4)
  kPower,  ///< d^{-exponent}; the paper's main proposal with exponent 0.5
  kLog,    ///< 1 / ln(1 + d), the IDF-style penalty Table 4 marks "log"
};

/// A discount schedule: kind plus exponent (exponent used by kPower only).
struct DiscountSpec {
  DiscountKind kind = DiscountKind::kPower;
  Scalar exponent = 0.5;

  /// Power-law spec d^{-e}; e == 0 degenerates to kNone.
  static DiscountSpec Power(Scalar e) {
    if (e == 0.0) return DiscountSpec{DiscountKind::kNone, 0.0};
    return DiscountSpec{DiscountKind::kPower, e};
  }
  static DiscountSpec Log() { return DiscountSpec{DiscountKind::kLog, 0.0}; }
  static DiscountSpec None() {
    return DiscountSpec{DiscountKind::kNone, 0.0};
  }

  /// "0", "log", or the exponent, matching the Table-4 row labels.
  std::string ToString() const;
};

/// \brief The discount factor of one node with the given degree.
///
/// Zero-degree nodes get factor 0: a node with no links contributes nothing
/// (rather than dividing by zero). For kNone, zero-degree nodes get 1 —
/// they have no contributions to scale anyway.
Scalar DiscountFactor(Offset degree, const DiscountSpec& spec);

/// Per-node DiscountFactor for each of the given degrees.
std::vector<Scalar> DiscountFactors(std::span<const Offset> degrees,
                                    const DiscountSpec& spec);

/// Elementwise square root, used to split a discount across the two factors
/// of a symmetric product (D^{-a} A ... Aᵀ D^{-a} = (D^{-a/2}A...)(...)ᵀ).
std::vector<Scalar> Sqrt(std::span<const Scalar> v);

}  // namespace dgc
