/**
 * @file
 * Empirical flash retention-error model.
 *
 * The paper motivates the on-die ECC with published NAND reliability
 * data: a fresh 3D TLC chip reaches ~1e-4 raw bit error rate after
 * hours of retention [Zhao et al., ICTA'23], and worn parts exceed
 * 1e-2 [Cai et al., Intel Tech Journal'13]. This model is a smooth
 * fit through those anchors: BER grows roughly linearly with
 * retention time on a log-log scale and quadratically with P/E wear.
 */

#ifndef CAMLLM_ECC_RETENTION_H
#define CAMLLM_ECC_RETENTION_H

#include <cstdint>
#include <vector>

namespace camllm::ecc {

/** Fit constants for the retention model (3D TLC defaults). */
struct RetentionParams
{
    double base_ber = 2e-5;       ///< fresh part, ~1 hour retention
    double time_exponent = 0.45;  ///< BER ~ t^a in retention hours
    double pe_reference = 3000.0; ///< rated P/E cycles
    double pe_quadratic = 8.0;    ///< wear multiplier at pe_reference
};

/**
 * Raw bit error rate after @p retention_hours at @p pe_cycles of
 * program/erase wear. Monotone in both arguments; clamped to [0, 0.5).
 *
 * Saturation ownership: this layer owns *raw-bit* saturation — a BER
 * at or above 0.5 would mean an inverted channel, so the fit clamps
 * to [0, 0.5). Page-level saturation lives one layer up: the fault
 * layer (flash::FaultSpec / flash::FaultModel) clamps every derived
 * *uncorrectable-page* probability to [0, 0.9] so the read-retry
 * ladder always keeps a decodable rung.
 */
double retentionBer(double retention_hours, double pe_cycles,
                    const RetentionParams &params = {});

/**
 * Probability that one ECC codeword protecting @p codeword_bytes of
 * payload sees more than @p correctable_bits raw bit errors at bit
 * error rate @p ber — the exact binomial tail P(X > t), evaluated in
 * log space so strengths up to hundreds of bits stay stable. Monotone
 * increasing in @p ber and decreasing in @p correctable_bits.
 */
double codewordFailProb(double ber, std::uint32_t correctable_bits,
                        std::uint32_t codeword_bytes);

/**
 * Uncorrectable-page probability of a @p page_bytes page striped into
 * ceil(page/codeword) independent codewords: 1 - (1 - cw_fail)^n.
 * This is the bridge from the retention fit to the runtime fault
 * layer's retry ladder when an ECC strength is armed (the page fails
 * if any codeword exceeds the correction budget).
 */
double pageUcp(double ber, std::uint32_t correctable_bits,
               std::uint32_t codeword_bytes, std::uint32_t page_bytes);

/**
 * codewordFailProb and pageUcp for one fixed (correctable bits,
 * codeword size) pair, with the BER-independent log-binomial
 * coefficients ln C(n, k), k <= correctable bits, built once. Every
 * result is bit-identical to the free functions', which delegate
 * here: the terms and the summation order are the same. Callers that
 * evaluate many BERs at one ECC strength keep one of these.
 */
class CodewordTail
{
  public:
    CodewordTail(std::uint32_t correctable_bits,
                 std::uint32_t codeword_bytes);

    /** codewordFailProb(@p ber, correctable bits, codeword bytes). */
    double failProb(double ber) const;

    /** pageUcp(@p ber, correctable bits, codeword bytes,
     *  @p page_bytes). */
    double pageUcp(double ber, std::uint32_t page_bytes) const;

  private:
    std::uint32_t codeword_bytes_;
    std::uint64_t n_; ///< codeword bits
    /** ln C(n, k) for k = 0..correctable bits; empty when the code
     *  corrects the whole codeword (it never fails). */
    std::vector<double> log_binom_;
};

} // namespace camllm::ecc

#endif // CAMLLM_ECC_RETENTION_H
