#include "fault.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "ecc/retention.h"

namespace camllm::flash {

void
FaultSpec::addSlowdown(std::uint32_t channel, double factor, Tick t0,
                       Tick t1)
{
    CAMLLM_ASSERT(factor >= 1.0, "slowdown factor %.2f < 1", factor);
    CAMLLM_ASSERT(t1 > t0, "empty slowdown window");
    ChannelFault f;
    f.channel = channel;
    f.slowdown = factor;
    f.t0 = t0;
    f.t1 = t1;
    channel_faults.push_back(f);
}

void
FaultSpec::addOffline(std::uint32_t channel, Tick t0)
{
    ChannelFault f;
    f.channel = channel;
    f.t0 = t0;
    f.offline = true;
    channel_faults.push_back(f);
}

double
FaultSpec::effectiveUcpRate() const
{
    if (ucp_rate <= 0.0)
        return 0.0;
    double scale = 1.0;
    if (retention_hours > 0.0 || pe_cycles > 0.0) {
        const ecc::RetentionParams p;
        scale = ecc::retentionBer(retention_hours, pe_cycles, p) /
                p.base_ber;
    }
    return std::min(ucp_rate * scale, 0.9);
}

FaultModel::FaultModel(const FaultSpec &spec, std::uint32_t page_bytes)
    : spec_(spec), page_bytes_(page_bytes),
      tail_(spec.ecc_correctable_bits, spec.ecc_codeword_bytes),
      rng_(spec.seed)
{
    CAMLLM_ASSERT(page_bytes_ > 0);
    const double ucp0 =
        spec_.ecc_correctable_bits > 0
            ? ucpAt(spec_.retention_hours, spec_.pe_cycles)
            : spec_.effectiveUcpRate();
    deriveLadder(ucp0,
                 ecc::retentionBer(spec_.retention_hours,
                                   spec_.pe_cycles),
                 uniform_);
}

void
FaultModel::setWearSource(const WeightPlacement *placement)
{
    wear_ = placement;
    planes_.assign(placement ? placement->planeCount() : 0,
                   PlaneLadder{});
}

double
FaultModel::ucpAt(double age_hours, double pe_cycles) const
{
    const ecc::RetentionParams rp;
    const double ber = ecc::retentionBer(age_hours, pe_cycles, rp);
    if (spec_.ecc_correctable_bits > 0) {
        return std::min(tail_.pageUcp(ber, page_bytes_), 0.9);
    }
    if (spec_.ucp_rate <= 0.0)
        return 0.0;
    return std::min(spec_.ucp_rate * (ber / rp.base_ber), 0.9);
}

void
FaultModel::deriveLadder(double ucp0, double ber0, Ladder &out) const
{
    out.resize(spec_.ladder.max_retries);
    if (out.empty())
        return;
    out[0] = ucp0;
    double ber = ber0;
    for (std::size_t k = 1; k < out.size(); ++k) {
        if (spec_.ecc_correctable_bits > 0) {
            // Shifted read levels lower the raw BER; re-derive the
            // rung's failure probability from the codeword tail,
            // which collapses super-geometrically for strong codes.
            ber *= spec_.ladder.retry_fail_decay;
            out[k] = std::min(tail_.pageUcp(ber, page_bytes_), 0.9);
        } else {
            out[k] = out[k - 1] * spec_.ladder.retry_fail_decay;
        }
    }
}

const FaultModel::Ladder &
FaultModel::planeLadder(std::size_t idx)
{
    PlaneLadder &l = planes_[idx];
    const double pe = wear_->planeWear(idx);
    const double age = wear_->planeAge(idx);
    const double frac = wear_->planeFreshFraction(idx);
    if (pe != l.pe || age != l.age || frac != l.frac) {
        l.pe = pe;
        l.age = age;
        l.frac = frac;
        double ucp0 = ucpAt(age, pe);
        double ber0 = ecc::retentionBer(age, pe);
        if (frac > 0.0) {
            // A read hits a scrubbed (fresh) page with probability
            // frac; mix the aged and fresh failure rates accordingly.
            ucp0 = (1.0 - frac) * ucp0 + frac * ucpAt(0.0, pe);
            ber0 = (1.0 - frac) * ber0 +
                   frac * ecc::retentionBer(0.0, pe);
        }
        deriveLadder(ucp0, ber0, l.fail);
    }
    return l.fail;
}

std::uint32_t
FaultModel::climbLadder(const Ladder &fail)
{
    if (fail.empty() || fail[0] <= 0.0)
        return 0;
    std::uint32_t r = 0;
    while (r < fail.size()) {
        ++draws_;
        if (!rng_.chance(fail[r]))
            break;
        ++r;
    }
    return r;
}

std::uint32_t
FaultModel::drawRetries()
{
    return climbLadder(uniform_);
}

std::uint32_t
FaultModel::drawRetriesForPlane(std::uint32_t channel,
                                std::uint32_t die_in_channel,
                                std::uint32_t plane)
{
    if (!wear_)
        return drawRetries();
    return climbLadder(planeLadder(
        wear_->planeIndex(channel, die_in_channel, plane)));
}

double
FaultModel::eccSenseScale() const
{
    if (spec_.ecc_correctable_bits == 0)
        return 1.0;
    return 1.0 + spec_.ecc_sense_per_bit *
                     double(spec_.ecc_correctable_bits);
}

Tick
FaultModel::senseTime(Tick t_read, std::uint32_t attempt) const
{
    const double scale = eccSenseScale();
    if (attempt == 0)
        return scale == 1.0 ? t_read : Tick(double(t_read) * scale);
    const double esc =
        std::pow(spec_.ladder.sense_escalation, double(attempt));
    return Tick(double(t_read) * esc * scale);
}

} // namespace camllm::flash
