/**
 * @file
 * A whole SSD back end: several independent channels — each a complete
 * ChannelSystem with its own BABOL (or baseline) controller and its own
 * embedded CPU — sharing one DRAM staging buffer, exposed to the FTL as
 * a flat chip space (chip = channel * waysPerChannel + way). This
 * completes the paper's Fig. 1 architecture: HIC ↔ FTL ↔ Storage
 * Controllers ↔ Flash.
 *
 * Device builds that assembly once. Its two placements differ only in
 * which queue each part runs on and how a request crosses the
 * host<->channel interconnect: Ssd (here) puts everything on one
 * EventQueue, ShardedSsd (ssd/sharded_ssd.hh) gives every channel its
 * own shard of a ParallelEngine.
 */

#ifndef BABOL_SSD_SSD_HH
#define BABOL_SSD_SSD_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "core/controller.hh"
#include "core/controller_factory.hh"

namespace babol::ssd {

struct SsdConfig
{
    std::uint32_t channels = 4;

    /** Per-channel configuration (chips here = ways per channel). */
    core::ChannelConfig channel;

    /** Controller flavour (a spelling is parsed on assignment). */
    core::FlavorSetting flavor = core::Flavor::Coro;

    /** Embedded CPU frequency for the software flavours. */
    std::uint32_t cpuMhz = 1000;

    /** Read-retry budget per flash read (recovery escalation). */
    std::uint32_t maxReadRetries = 0;

    /** Shared staging DRAM for the whole device. */
    std::uint64_t dramBytes = 256ull * 1024 * 1024;
};

/**
 * The modeled host<->channel interconnect hop, which doubles as the
 * sharded engine's conservative lookahead L. The cheapest thing that
 * can cross the paper's Fig. 1 interconnect is a command handoff, which
 * on the flash side costs chip-enable setup plus a command/address
 * cycle pair plus tWB. Both placements charge it on dispatch and on
 * completion, so they simulate the same device and a one-thread sharded
 * run reproduces the classic results. Clamped at 50 ns so an all-zero
 * timing preset still yields a usable window; a larger L only adds
 * modeled latency, it never breaks conservativeness.
 */
inline Tick
interconnectLookahead(const nand::TimingParams &t)
{
    return std::max<Tick>(t.tCs + 2 * t.tCmdCycleDdr + t.tWb,
                          50 * ticks::perNs);
}

/**
 * The device assembly both placements share: the staging DRAM on the
 * host queue, one ChannelSystem + controller per channel on the queue
 * the placement names, the fault engine (owned unless the config wires
 * one, and destroyed after the channels), the flat-chip router and the
 * aggregate counters. A placement implements submit() on top of route().
 */
class Device : public core::FlashBackend
{
  public:
    /** Callbacks hold `this`, so a device never moves. */
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    const std::string &name() const { return name_; }
    const SsdConfig &config() const { return cfg_; }

    std::uint32_t channelCount() const { return cfg_.channels; }
    std::uint32_t waysPerChannel() const { return cfg_.channel.chips; }

    core::ChannelSystem &channelSystem(std::uint32_t ch);
    core::ChannelController &controller(std::uint32_t ch);

    /** This device's fault engine — arm campaigns here, not on the
     *  process default. */
    fault::FaultEngine &faults() const
    {
        return fault::engineOf(cfg_.channel.package.faults);
    }

    /** The interconnect hop charged on dispatch and on completion. */
    Tick lookahead() const { return lookahead_; }

    // --- FlashBackend (submit() is the placement's) ---
    std::uint32_t backendChipCount() const override
    {
        return cfg_.channels * cfg_.channel.chips;
    }
    const nand::Geometry &backendGeometry() const override
    {
        return cfg_.channel.package.geometry;
    }
    dram::DramBuffer &backendDram() override { return *dram_; }
    fault::FaultEngine &backendFaults() override { return faults(); }
    std::string backendChipName(std::uint32_t chip) const override
    {
        const std::uint32_t ways = cfg_.channel.chips;
        return strfmt("%s.ch%u.pkg%u", name_.c_str(), chip / ways,
                      chip % ways);
    }

    // --- Aggregated stats (a sharded device: read after run()) ---
    std::uint64_t opsCompleted() const
    {
        return sum(&core::ChannelController::opsCompleted);
    }
    std::uint64_t payloadBytesRead() const
    {
        return sum(&core::ChannelController::payloadBytesRead);
    }
    std::uint64_t payloadBytesWritten() const
    {
        return sum(&core::ChannelController::payloadBytesWritten);
    }

  protected:
    /** Build the DRAM on @p host and channel ch on channelQueue(ch). */
    Device(const std::string &name, SsdConfig cfg, EventQueue &host,
           const std::function<EventQueue &(std::uint32_t)> &channelQueue);

    /** Check a flat chip index, rewrite req.chip to the way within its
     *  channel, and return the channel. */
    std::uint32_t route(core::FlashRequest &req) const;

  private:
    std::uint64_t
    sum(std::uint64_t (core::ChannelController::*counter)() const) const;

    std::string name_;
    SsdConfig cfg_;

    /** Owned engine when the config wired none (outlives the channels). */
    std::unique_ptr<fault::FaultEngine> faultsOwned_;

    Tick lookahead_;
    std::unique_ptr<dram::DramBuffer> dram_;
    std::vector<std::unique_ptr<core::ChannelSystem>> systems_;
    std::vector<std::unique_ptr<core::ChannelController>> controllers_;
};

/** The single-queue placement: DRAM, every channel and both interconnect
 *  hops on one EventQueue. */
class Ssd : public Device
{
  public:
    Ssd(EventQueue &eq, const std::string &name, SsdConfig cfg);

    void submit(core::FlashRequest req) override;

  private:
    EventQueue &eq_;
};

} // namespace babol::ssd

#endif // BABOL_SSD_SSD_HH
