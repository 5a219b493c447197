/**
 * @file
 * Measurement probes the benchmark places around the simulator's public
 * interfaces. Nothing here reaches inside src/: layers are timed at the
 * calls the benchmark makes into them and at the one boundary it can
 * interpose on, core::FlashBackend (between the FTL and the device).
 *
 *  - Tracer: a self-time clock over a stack of layer frames. A frame's
 *    duration is charged to its layer minus the time its child frames
 *    cover, so host, FTL and controller-submit self times never overlap.
 *  - TimedBackend: a FlashBackend decorator that opens a Ctrl frame
 *    around submit(), an Ftl frame around each completion handler the
 *    FTL handed down, and records each flash op's simulated latency.
 *  - Page stamps: every written page (or sector) carries (key, gen) and
 *    a derived fill pattern, so every read can be checked in full.
 */

#ifndef SIMBENCH_PROBES_HH
#define SIMBENCH_PROBES_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "core/flash_backend.hh"

namespace simbench {

using babol::Tick;

/** Seconds on the monotonic clock. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Host: the benchmark's generator and checker. Nvme: its submissions
 *  into the NVMe front end. Ftl: PageFtl calls and completion handlers.
 *  Ctrl: FlashBackend::submit into the device. */
enum class Layer : std::uint8_t { Host, Nvme, Ftl, Ctrl };
inline constexpr int kLayers = 4;

class Tracer
{
  public:
    void enter(Layer layer);
    void leave();

    /** Forget everything recorded so far (call between engine runs,
     *  with no frame open). */
    void reset() { *this = Tracer{}; }

    double selfSeconds(Layer layer) const
    {
        return self_[static_cast<int>(layer)];
    }

    /** Simulated latency (µs) of every flash op the backend completed. */
    std::vector<double> opLatencyUs;

    /** Payload bytes of successful reads and programs: what the ECC
     *  engine decoded and encoded. */
    std::uint64_t payloadRead = 0;
    std::uint64_t payloadWritten = 0;

  private:
    struct Frame
    {
        Layer layer;
        double start;
        double children;
    };
    std::vector<Frame> stack_;
    std::array<double, kLayers> self_{};
};

/** RAII frame; a null tracer makes it free, so untraced runs pay nothing
 *  beyond a pointer test. */
class Scope
{
  public:
    Scope(Tracer *t, Layer layer) : t_(t)
    {
        if (t_)
            t_->enter(layer);
    }
    ~Scope()
    {
        if (t_)
            t_->leave();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
};

class TimedBackend : public babol::core::FlashBackend
{
  public:
    TimedBackend(babol::core::FlashBackend &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}

    void submit(babol::core::FlashRequest req) override;

    std::uint32_t backendChipCount() const override
    {
        return inner_.backendChipCount();
    }
    const babol::nand::Geometry &backendGeometry() const override
    {
        return inner_.backendGeometry();
    }
    babol::dram::DramBuffer &backendDram() override
    {
        return inner_.backendDram();
    }
    std::string backendChipName(std::uint32_t chip) const override
    {
        return inner_.backendChipName(chip);
    }
    babol::fault::FaultEngine &backendFaults() override
    {
        return inner_.backendFaults();
    }

  private:
    babol::core::FlashBackend &inner_;
    Tracer &tracer_;
};

/** The splitmix64 finaliser: a bijective 64-bit mix. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** splitmix64: the host I/O streams' generator. */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ull); }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** Fill @p buf with the stamp of (key, gen): both values literally in
 *  the first 16 bytes, then a fill derived from them. */
void stamp(std::span<std::uint8_t> buf, std::uint64_t key,
           std::uint64_t gen);

/** True when @p buf holds exactly the stamp of (key, gen). */
bool stampMatches(std::span<const std::uint8_t> buf, std::uint64_t key,
                  std::uint64_t gen, std::vector<std::uint8_t> &scratch);

/** Percentile @p pct of @p samples, smoothed over the neighbouring
 *  order statistics (Harrell-Davis); 0 when empty. */
double percentile(std::vector<double> samples, double pct);

struct Tail
{
    double pct = 0;
    double value = 0;
    std::size_t samples = 0;
};

/** The highest of p99/p95/p90 that leaves at least ten samples above
 *  it (else p50), with its value. */
Tail tailOf(std::vector<double> samples);

double median(std::vector<double> v);

/** Wall time of one call into core::EccEngine on a full page. */
struct EccCost
{
    double encodeNs = 0;
    double decodeNs = 0;
    double extractNs = 0;
};
EccCost timeEcc(std::uint32_t page_bytes);

} // namespace simbench

#endif // SIMBENCH_PROBES_HH
