#include "dram.hh"

#include <cstring>

namespace babol::dram {

DramBuffer::DramBuffer(EventQueue &eq, const std::string &name,
                       std::uint64_t bytes, double bandwidth_mbps,
                       Tick setup_latency,
                       obs::power::PowerModel *power)
    : SimObject(eq, name),
      size_(bytes),
      mem_(static_cast<std::uint8_t *>(std::calloc(bytes, 1))),
      bandwidthMBps_(bandwidth_mbps),
      setupLatency_(setup_latency),
      power_(power, eq, name, {"rd", "wr"},
             obs::power::modelOf(power).params().dramStandbyMw)
{
    if (!mem_ && bytes != 0)
        fatal("%s: cannot allocate %llu bytes of DRAM", name.c_str(),
              static_cast<unsigned long long>(bytes));
}

void
DramBuffer::checkRange(std::uint64_t addr, std::uint64_t len) const
{
    babol_assert(addr + len <= size_,
                 "DRAM access [%llu, %llu) exceeds capacity %llu",
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(addr + len),
                 static_cast<unsigned long long>(size_));
}

void
DramBuffer::write(std::uint64_t addr, std::span<const std::uint8_t> data,
                  Tick at)
{
    checkRange(addr, data.size());
    if (!data.empty())
        std::memcpy(mem_.get() + addr, data.data(), data.size());
    bytesWritten_.fetch_add(data.size(), std::memory_order_relaxed);
    if (power_.enabled()) {
        const Tick t0 = at == kOwnClock ? curTick() : at;
        const std::uint64_t fj = data.size() *
            power_.params().dramPjPerByte * 1000;
        power_.chargeEnergy(1, fj);
        power_.noteActive(t0, t0 + transferTime(data.size()), fj);
    }
}

void
DramBuffer::read(std::uint64_t addr, std::span<std::uint8_t> out,
                 Tick at) const
{
    checkRange(addr, out.size());
    if (!out.empty())
        std::memcpy(out.data(), mem_.get() + addr, out.size());
    bytesRead_.fetch_add(out.size(), std::memory_order_relaxed);
    if (power_.enabled()) {
        const Tick t0 = at == kOwnClock ? curTick() : at;
        const std::uint64_t fj = out.size() *
            power_.params().dramPjPerByte * 1000;
        power_.chargeEnergy(0, fj);
        power_.noteActive(t0, t0 + transferTime(out.size()), fj);
    }
}

Tick
DramBuffer::transferTime(std::uint64_t bytes) const
{
    double seconds = static_cast<double>(bytes) / (bandwidthMBps_ * 1e6);
    return setupLatency_ +
           static_cast<Tick>(seconds * static_cast<double>(ticks::perSec));
}

} // namespace babol::dram
