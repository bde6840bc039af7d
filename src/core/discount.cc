#include "core/discount.h"

#include <cmath>

namespace dgc {

std::string DiscountSpec::ToString() const {
  switch (kind) {
    case DiscountKind::kNone:
      return "0";
    case DiscountKind::kLog:
      return "log";
    case DiscountKind::kPower: {
      // Trim trailing zeros for tidy table output (0.5, 0.25, 1).
      std::string s = std::to_string(exponent);
      while (!s.empty() && s.back() == '0') s.pop_back();
      if (!s.empty() && s.back() == '.') s.pop_back();
      return s;
    }
  }
  return "?";
}

Scalar DiscountFactor(Offset degree, const DiscountSpec& spec) {
  const Scalar d = static_cast<Scalar>(degree);
  switch (spec.kind) {
    case DiscountKind::kNone:
      return 1.0;
    case DiscountKind::kPower:
      return d > 0.0 ? std::pow(d, -spec.exponent) : 0.0;
    case DiscountKind::kLog:
      return d > 0.0 ? 1.0 / std::log1p(d) : 0.0;
  }
  return 1.0;
}

std::vector<Scalar> DiscountFactors(std::span<const Offset> degrees,
                                    const DiscountSpec& spec) {
  std::vector<Scalar> out(degrees.size());
  for (size_t i = 0; i < degrees.size(); ++i) {
    out[i] = DiscountFactor(degrees[i], spec);
  }
  return out;
}

std::vector<Scalar> Sqrt(std::span<const Scalar> v) {
  std::vector<Scalar> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = std::sqrt(v[i]);
  return out;
}

}  // namespace dgc
