#include "retention.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace camllm::ecc {

double
retentionBer(double retention_hours, double pe_cycles,
             const RetentionParams &p)
{
    CAMLLM_ASSERT(retention_hours >= 0.0 && pe_cycles >= 0.0);
    const double t = std::max(retention_hours, 1.0);
    const double wear = pe_cycles / p.pe_reference;
    const double ber = p.base_ber * std::pow(t, p.time_exponent) *
                       (1.0 + p.pe_quadratic * wear * wear);
    return std::min(ber, 0.499);
}

CodewordTail::CodewordTail(std::uint32_t correctable_bits,
                           std::uint32_t codeword_bytes)
    : codeword_bytes_(codeword_bytes),
      n_(std::uint64_t(codeword_bytes) * 8)
{
    if (correctable_bits >= n_)
        return;
    const double lgn = std::lgamma(double(n_) + 1.0);
    log_binom_.reserve(std::size_t(correctable_bits) + 1);
    for (std::uint64_t k = 0; k <= correctable_bits; ++k)
        log_binom_.push_back(lgn - std::lgamma(double(k) + 1.0) -
                             std::lgamma(double(n_ - k) + 1.0));
}

double
CodewordTail::failProb(double ber) const
{
    CAMLLM_ASSERT(codeword_bytes_ > 0);
    if (ber <= 0.0)
        return 0.0;
    const double p = std::min(ber, 0.499);
    if (log_binom_.empty())
        return 0.0;
    // P(X > t) = 1 - sum_{k<=t} C(n,k) p^k q^(n-k), summed in log
    // space term by term (t is small, so the sum is cheap and exact).
    const double lp = std::log(p);
    const double lq = std::log1p(-p);
    double cdf = 0.0;
    for (std::uint64_t k = 0; k < log_binom_.size(); ++k)
        cdf += std::exp(log_binom_[k] + double(k) * lp +
                        double(n_ - k) * lq);
    return std::clamp(1.0 - cdf, 0.0, 1.0);
}

double
CodewordTail::pageUcp(double ber, std::uint32_t page_bytes) const
{
    CAMLLM_ASSERT(codeword_bytes_ > 0 && page_bytes >= codeword_bytes_);
    const double cw = failProb(ber);
    if (cw <= 0.0)
        return 0.0;
    const double n_cw = double((page_bytes + codeword_bytes_ - 1) /
                               codeword_bytes_);
    // 1 - (1-cw)^n via log1p so tiny codeword tails don't cancel.
    return -std::expm1(n_cw * std::log1p(-cw));
}

double
codewordFailProb(double ber, std::uint32_t correctable_bits,
                 std::uint32_t codeword_bytes)
{
    return CodewordTail(correctable_bits, codeword_bytes).failProb(ber);
}

double
pageUcp(double ber, std::uint32_t correctable_bits,
        std::uint32_t codeword_bytes, std::uint32_t page_bytes)
{
    return CodewordTail(correctable_bits, codeword_bytes)
        .pageUcp(ber, page_bytes);
}

} // namespace camllm::ecc
