#ifndef TBC_BASE_LOGSPACE_H_
#define TBC_BASE_LOGSPACE_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace tbc {

/// A nonzero finite double with an explicit power-of-two scale:
///
///     value = mantissa * 2^exponent,   mantissa in ±[0.5, 1) or 0.
///
/// This is the underflow-proof accumulator for weighted model counting
/// (DESIGN.md "Log-space WMC"). A WMC over a few thousand variables with
/// literal weights around 1e-3 has intermediate products around 1e-6000 —
/// far below DBL_MIN — even when the final count is comfortably
/// representable. Accumulating in plain double silently flushes those
/// intermediates to 0.0, and a component cache then *serves* the wrong 0.0
/// to every isomorphic subproblem. ScaledDouble keeps the exponent in an
/// int64_t so no realistic WMC can leave its range (the counter would have
/// to run ~2^63 multiplies first).
///
/// Precision contract: while every intermediate stays inside the normal
/// double range, ScaledDouble arithmetic is *bit-identical* to plain
/// double arithmetic:
///   - frexp/ldexp only move the binary point (exact), so a multiply is
///     one double multiply — the same single rounding plain double does.
///   - An add aligns the smaller operand with ldexp (exact for exponent
///     gaps below kAlignmentCutoff) and performs one double add. For gaps
///     >= kAlignmentCutoff (64, beyond double's 53-bit significand) the
///     smaller operand is dropped, which is exactly how the plain double
///     add would have rounded.
/// Outside the normal range ScaledDouble keeps ~15 significant digits
/// where plain double would have flushed to 0 or inf.
class ScaledDouble {
 public:
  /// Exponent gap at or beyond which the smaller addend cannot affect the
  /// rounded sum (>= 53 + a margin for the carry-out case).
  static constexpr int64_t kAlignmentCutoff = 64;

  /// Zero.
  constexpr ScaledDouble() = default;

  static ScaledDouble FromDouble(double v) {
    ScaledDouble s;
    if (v == 0.0) return s;
    int e = 0;
    s.m_ = std::frexp(v, &e);
    s.e_ = e;
    return s;
  }
  static ScaledDouble Zero() { return ScaledDouble(); }
  static ScaledDouble One() { return FromDouble(1.0); }

  bool IsZero() const { return m_ == 0.0; }
  double mantissa() const { return m_; }
  int64_t exponent() const { return e_; }

  /// True when ToDouble() round-trips without leaving the normal double
  /// range (no underflow to subnormal/zero, no overflow to inf). A nonzero
  /// value with FitsDouble() false is exactly the state plain-double WMC
  /// would have silently destroyed — the "rescue" the observability
  /// counter reports.
  bool FitsDouble() const { return IsZero() || (e_ >= -1021 && e_ <= 1024); }

  /// Nearest double; 0.0 / ±inf when the value is outside double's range.
  double ToDouble() const {
    if (IsZero()) return 0.0;
    int64_t e = e_;
    if (e > 1100) e = 1100;    // ldexp saturates to ±inf
    if (e < -1101) e = -1101;  // below the smallest subnormal: exact 0
    return std::ldexp(m_, static_cast<int>(e));
  }

  /// log2(|value|); meaningless for zero.
  double Log2Abs() const {
    return std::log2(m_ < 0 ? -m_ : m_) + static_cast<double>(e_);
  }

  ScaledDouble& operator*=(const ScaledDouble& o) {
    if (IsZero() || o.IsZero()) {
      m_ = 0.0;
      e_ = 0;
      return *this;
    }
    // The product lies in ±[0.25, 1): no rounding beyond the one double
    // multiply, and renormalizing is at most one exact doubling.
    m_ *= o.m_;
    e_ += o.e_;
    if (std::fabs(m_) < 0.5) {
      m_ *= 2.0;
      --e_;
    }
    return *this;
  }

  /// Division; the divisor must be nonzero. Like the multiply, one double
  /// division of the mantissas (the quotient lies in ±[0.5, 2)) and at
  /// most one exact halving.
  ScaledDouble& operator/=(const ScaledDouble& o) {
    if (IsZero()) return *this;
    m_ /= o.m_;
    e_ -= o.e_;
    if (std::fabs(m_) >= 1.0) {
      m_ *= 0.5;
      ++e_;
    }
    return *this;
  }

  ScaledDouble& operator+=(const ScaledDouble& o) {
    if (o.IsZero()) return *this;
    if (IsZero()) {
      *this = o;
      return *this;
    }
    const ScaledDouble* hi = this;
    const ScaledDouble* lo = &o;
    if (o.e_ > e_) {
      hi = &o;
      lo = this;
    }
    const int64_t gap = hi->e_ - lo->e_;
    if (gap >= kAlignmentCutoff) {
      *this = *hi;  // |lo| < half an ulp of |hi|: the add would round it away
      return *this;
    }
    // 2^-gap built from its bit pattern: exact, and the aligned addend
    // stays a normal double since |lo| >= 0.5 and gap < 64. (This header
    // also compiles as C++17, hence memcpy rather than std::bit_cast.)
    const uint64_t align_bits = static_cast<uint64_t>(1023 - gap) << 52;
    double align = 0.0;
    std::memcpy(&align, &align_bits, sizeof align);
    const double sum = hi->m_ + lo->m_ * align;
    const int64_t base = hi->e_;
    if (const double mag = std::fabs(sum); mag >= 1.0) {
      m_ = sum * 0.5;  // carry out of [0.5, 1): one exact halving
      e_ = base + 1;
    } else if (mag >= 0.5) {
      m_ = sum;
      e_ = base;
    } else if (sum == 0.0) {
      m_ = 0.0;
      e_ = 0;
    } else {
      int adj = 0;  // cancellation between opposite signs
      m_ = std::frexp(sum, &adj);
      e_ = base + adj;
    }
    return *this;
  }

  friend ScaledDouble operator*(ScaledDouble a, const ScaledDouble& b) {
    a *= b;
    return a;
  }
  friend ScaledDouble operator+(ScaledDouble a, const ScaledDouble& b) {
    a += b;
    return a;
  }
  friend ScaledDouble operator/(ScaledDouble a, const ScaledDouble& b) {
    a /= b;
    return a;
  }

  /// Numeric order, the same as the doubles' wherever both are in range
  /// (the normalized representation of a value is unique).
  friend bool operator<(const ScaledDouble& a, const ScaledDouble& b) {
    const int sa = a.Sign();
    const int sb = b.Sign();
    if (sa != sb) return sa < sb;
    if (sa == 0) return false;
    if (a.e_ != b.e_) return (a.e_ < b.e_) == (sa > 0);
    return a.m_ < b.m_;
  }

 private:
  int Sign() const { return m_ > 0.0 ? 1 : (m_ < 0.0 ? -1 : 0); }

  double m_ = 0.0;   // ±[0.5, 1) or exactly 0
  int64_t e_ = 0;    // power-of-two scale; 0 when m_ == 0
};

}  // namespace tbc

#endif  // TBC_BASE_LOGSPACE_H_
