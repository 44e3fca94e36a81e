#include "dsp/correlator.hpp"

#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#define MIMONET_AUTOCORR_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mimonet::dsp {

MovingSum::MovingSum(std::size_t window) : buf_(window, cf64{0.0, 0.0}) {
  if (window == 0) throw std::invalid_argument("MovingSum: zero window");
}

cf64 MovingSum::push(cf64 x) noexcept {
  sum_ += x - buf_[head_];
  buf_[head_] = x;
  head_ = (head_ + 1) % buf_.size();
  return sum_;
}

void MovingSum::reset() noexcept {
  for (auto& v : buf_) v = cf64{0.0, 0.0};
  sum_ = cf64{0.0, 0.0};
  head_ = 0;
}

MovingSumReal::MovingSumReal(std::size_t window) : buf_(window, 0.0) {
  if (window == 0) throw std::invalid_argument("MovingSumReal: zero window");
}

double MovingSumReal::push(double x) noexcept {
  sum_ += x - buf_[head_];
  buf_[head_] = x;
  head_ = (head_ + 1) % buf_.size();
  return sum_;
}

void MovingSumReal::reset() noexcept {
  for (auto& v : buf_) v = 0.0;
  sum_ = 0.0;
  head_ = 0;
}

namespace {

bool g_force_scalar = false;

// Scalar product fill, the dispatch fallback and the reference the AVX2
// kernel must match bit for bit: the conj product uses the naive complex
// formula with one rounding per multiply and per add, and the magnitude is
// computed in float (like mag_sqr) before widening. fp-contract is pinned
// off so a native build cannot fuse the multiply-adds into FMAs the vector
// kernel does not use.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("-ffp-contract=off")))
#endif
void products_scalar(const cf32* x, std::size_t lag, std::size_t n_prod,
                     std::size_t n_mag, double* re, double* im, double* mag) {
  for (std::size_t i = 0; i < n_prod; ++i) {
    const double ar = static_cast<double>(x[i].real());
    const double ai = static_cast<double>(x[i].imag());
    const double br = static_cast<double>(x[i + lag].real());
    const double bi = static_cast<double>(x[i + lag].imag());
    re[i] = ar * br + ai * bi;  // x_i * conj(x_{i+lag})
    im[i] = ai * br - ar * bi;
  }
  for (std::size_t i = 0; i < n_mag; ++i) {
    const float m = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
    mag[i] = static_cast<double>(m);
  }
}

#ifdef MIMONET_AUTOCORR_X86_DISPATCH
// AVX2 product fill, 4 complex samples per iteration. Bit-identical to
// products_scalar: the same float squares/adds for the magnitudes and the
// same double multiplies/adds for the conj products, no FMA contraction
// (intrinsics emit the separate mul/add the scalar reference pins).
__attribute__((target("avx2"))) void products_avx2(
    const cf32* x, std::size_t lag, std::size_t n_prod, std::size_t n_mag,
    double* re, double* im, double* mag) {
  const float* xf = reinterpret_cast<const float*>(x);
  const __m256i deinterleave = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);

  std::size_t i = 0;
  for (; i + 4 <= n_prod; i += 4) {
    // [r0 i0 r1 i1 r2 i2 r3 i3] -> [r0 r1 r2 r3 | i0 i1 i2 i3]
    const __m256 a =
        _mm256_permutevar8x32_ps(_mm256_loadu_ps(xf + 2 * i), deinterleave);
    const __m256 b = _mm256_permutevar8x32_ps(
        _mm256_loadu_ps(xf + 2 * (i + lag)), deinterleave);
    const __m256d ar = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
    const __m256d ai = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
    const __m256d br = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    const __m256d bi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    _mm256_storeu_pd(re + i, _mm256_add_pd(_mm256_mul_pd(ar, br),
                                           _mm256_mul_pd(ai, bi)));
    _mm256_storeu_pd(im + i, _mm256_sub_pd(_mm256_mul_pd(ai, br),
                                           _mm256_mul_pd(ar, bi)));
  }
  for (; i < n_prod; ++i) {
    const double ar = static_cast<double>(x[i].real());
    const double ai = static_cast<double>(x[i].imag());
    const double br = static_cast<double>(x[i + lag].real());
    const double bi = static_cast<double>(x[i + lag].imag());
    const double pr = ar * br;
    const double qi = ai * bi;
    re[i] = pr + qi;
    const double pi2 = ai * br;
    const double qr = ar * bi;
    im[i] = pi2 - qr;
  }

  i = 0;
  for (; i + 4 <= n_mag; i += 4) {
    const __m256 v =
        _mm256_permutevar8x32_ps(_mm256_loadu_ps(xf + 2 * i), deinterleave);
    const __m128 r = _mm256_castps256_ps128(v);
    const __m128 im4 = _mm256_extractf128_ps(v, 1);
    // |x|^2 in float (one mul per part, one add), exactly mag_sqr's ops.
    const __m128 m = _mm_add_ps(_mm_mul_ps(r, r), _mm_mul_ps(im4, im4));
    _mm256_storeu_pd(mag + i, _mm256_cvtps_pd(m));
  }
  for (; i < n_mag; ++i) {
    const float rr = x[i].real() * x[i].real();
    const float ii = x[i].imag() * x[i].imag();
    mag[i] = static_cast<double>(rr + ii);
  }
}

[[nodiscard]] bool have_avx2() noexcept {
  return __builtin_cpu_supports("avx2");
}
#endif  // MIMONET_AUTOCORR_X86_DISPATCH

void fill_products(const cf32* x, std::size_t lag, std::size_t n_prod,
                   std::size_t n_mag, AutocorrResult::Scratch& s) {
  s.prod_re.resize(n_prod);
  s.prod_im.resize(n_prod);
  s.mag.resize(n_mag);
#ifdef MIMONET_AUTOCORR_X86_DISPATCH
  static const bool use_avx2 = have_avx2();
  if (use_avx2 && !g_force_scalar) {
    products_avx2(x, lag, n_prod, n_mag, s.prod_re.data(), s.prod_im.data(),
                  s.mag.data());
    return;
  }
#endif
  products_scalar(x, lag, n_prod, n_mag, s.prod_re.data(), s.prod_im.data(),
                  s.mag.data());
}

/// The one sliding-sum loop. Writes output positions [res.cursor.next,
/// res.cursor.next + count) of the sweep of x into res[0, count) and
/// advances the cursor. Products are computed only for the samples those
/// positions read (plus the position whose terms leave the window first when
/// resuming), so a sweep taken in chunks does O(chunk) work and keeps
/// O(chunk) scratch. The sums evolve by sum += entering - leaving, the exact
/// MovingSum ring-buffer recurrence, from position 0 whatever the chunking:
/// the bits equal one whole-span sweep (same operands, same ops, same order).
void sweep_core(const cf32* x, std::size_t lag, std::size_t window,
                std::size_t count, AutocorrResult& res) {
  res.corr.resize(count);
  res.pow_lead.resize(count);
  res.pow_lag.resize(count);
  res.metric.resize(count);
  if (count == 0) return;

  // Resuming at position p first steps the sums from p-1 to p, so products
  // start at p-1; a fresh sweep seeds the sums from position 0's window.
  AutocorrResult::Cursor& cur = res.cursor;
  const std::size_t p0 = cur.next;
  const std::size_t base = (p0 == 0) ? 0 : p0 - 1;
  const std::size_t n_prod = p0 + count - 1 + window - base;
  fill_products(x + base, lag, n_prod, n_prod + lag, res.scratch);
  const double* pre = res.scratch.prod_re.data();
  const double* pim = res.scratch.prod_im.data();
  const double* mag = res.scratch.mag.data();

  cf64 corr_sum{0.0, 0.0};
  double pow_lead = 0.0;
  double pow_lag = 0.0;
  // Slide the window from position `n` to n + 1 (n relative to base).
  const auto step = [&](std::size_t n) {
    const std::size_t k = n + window;  // sample entering the window
    corr_sum += cf64{pre[k], pim[k]} - cf64{pre[n], pim[n]};
    pow_lead += mag[k] - mag[n];
    pow_lag += mag[k + lag] - mag[n + lag];
  };
  if (p0 == 0) {
    for (std::size_t k = 0; k < window; ++k) {
      corr_sum += cf64{pre[k], pim[k]} - cf64{0.0, 0.0};
      pow_lead += mag[k] - 0.0;
      pow_lag += mag[k + lag] - 0.0;
    }
  } else {
    corr_sum = cur.corr_sum;
    pow_lead = cur.pow_lead;
    pow_lag = cur.pow_lag;
    step(0);
  }
  for (std::size_t i = 0;; ++i) {
    const double pp = pow_lead * pow_lag;
    res.corr[i] = cf32(static_cast<float>(corr_sum.real()),
                       static_cast<float>(corr_sum.imag()));
    res.pow_lead[i] = static_cast<float>(pow_lead);
    res.pow_lag[i] = static_cast<float>(pow_lag);
    res.metric[i] =
        (pp > 0.0) ? static_cast<float>(mag_sqr(corr_sum) / pp) : 0.0F;
    if (i + 1 == count) break;
    step(p0 + i - base);
  }
  cur.next = p0 + count;
  cur.corr_sum = corr_sum;
  cur.pow_lead = pow_lead;
  cur.pow_lag = pow_lag;
}

/// Whole sweep of a contiguous sample array from position 0.
void autocorr_core(const cf32* x, std::size_t len, std::size_t lag,
                   std::size_t window, AutocorrResult& res) {
  res.cursor = {};
  sweep_core(x, lag, window, len - lag - window + 1, res);
}

void clear_result(AutocorrResult& res) {
  res.corr.clear();
  res.pow_lead.clear();
  res.pow_lag.clear();
  res.metric.clear();
  res.cursor = {};
}

}  // namespace

namespace detail {
void force_scalar_autocorr(bool force) noexcept { g_force_scalar = force; }
bool autocorr_simd_active() noexcept {
#ifdef MIMONET_AUTOCORR_X86_DISPATCH
  return have_avx2() && !g_force_scalar;
#else
  return false;
#endif
}
}  // namespace detail

void lag_autocorrelate_into(std::span<const cf32> x, std::size_t lag,
                            std::size_t window, AutocorrResult& res) {
  if (lag == 0 || window == 0) {
    throw std::invalid_argument("lag_autocorrelate: lag and window must be > 0");
  }
  if (x.size() < lag + window) {
    clear_result(res);
    return;
  }
  autocorr_core(x.data(), x.size(), lag, window, res);
}

void lag_autocorrelate_strided_into(std::span<const cf32> x, std::size_t lag,
                                    std::size_t window, std::size_t stride,
                                    AutocorrResult& res) {
  if (stride == 0) {
    throw std::invalid_argument("lag_autocorrelate_strided: zero stride");
  }
  if (lag == 0 || window == 0) {
    throw std::invalid_argument("lag_autocorrelate: lag and window must be > 0");
  }
  if (lag % stride != 0 || window % stride != 0) {
    throw std::invalid_argument(
        "lag_autocorrelate_strided: lag and window must be multiples of stride");
  }
  if (stride == 1) {
    lag_autocorrelate_into(x, lag, window, res);
    return;
  }
  if (x.size() < lag + window) {
    clear_result(res);
    return;
  }
  // Pack every stride-th sample, then sweep the packed sequence at the
  // decimated lag/window — position i of the result is position i*stride of
  // x, and the decimated sequence still correlates at the same absolute lag.
  auto& y = res.scratch.packed;
  const std::size_t n_y = (x.size() + stride - 1) / stride;
  y.resize(n_y);
  for (std::size_t i = 0; i < n_y; ++i) y[i] = x[i * stride];
  const std::size_t lag_d = lag / stride;
  const std::size_t win_d = window / stride;
  if (n_y < lag_d + win_d) {
    clear_result(res);
    return;
  }
  autocorr_core(y.data(), n_y, lag_d, win_d, res);
}

void lag_autocorrelate_into(std::span<const cf32> x, std::size_t lag,
                            std::size_t window, std::size_t count,
                            AutocorrResult& res) {
  if (lag == 0 || window == 0) {
    throw std::invalid_argument("lag_autocorrelate: lag and window must be > 0");
  }
  const std::size_t n_out = (x.size() < lag + window) ? 0 : x.size() - lag - window + 1;
  if (res.cursor.next > n_out || count > n_out - res.cursor.next) {
    throw std::invalid_argument("lag_autocorrelate: range past the end of the sweep");
  }
  sweep_core(x.data(), lag, window, count, res);
}

AutocorrResult lag_autocorrelate(std::span<const cf32> x, std::size_t lag,
                                 std::size_t window) {
  AutocorrResult res;
  lag_autocorrelate_into(x, lag, window, res);
  return res;
}

}  // namespace mimonet::dsp
