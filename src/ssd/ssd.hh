/**
 * @file
 * A whole SSD back end: several independent channels — each a complete
 * ChannelSystem with its own BABOL (or baseline) controller and its own
 * embedded CPU — sharing one DRAM staging buffer, exposed to the FTL as
 * a flat chip space (chip = channel * waysPerChannel + way). This
 * completes the paper's Fig. 1 architecture: HIC ↔ FTL ↔ Storage
 * Controllers ↔ Flash.
 */

#ifndef BABOL_SSD_SSD_HH
#define BABOL_SSD_SSD_HH

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

class Ssd : public SimObject, public core::FlashBackend
{
  public:
    Ssd(EventQueue &eq, const std::string &name, SsdConfig cfg);
    ~Ssd() override;

    const SsdConfig &config() const { return cfg_; }

    std::uint32_t channelCount() const { return cfg_.channels; }
    std::uint32_t waysPerChannel() const { return cfg_.channel.chips; }

    core::ChannelSystem &channelSystem(std::uint32_t ch);
    core::ChannelController &controller(std::uint32_t ch);

    /** This device's fault engine — arm campaigns here, not on the
     *  process default (the device wires its own unless the config
     *  already carries one). */
    fault::FaultEngine &faults() const
    {
        return fault::engineOf(cfg_.channel.package.faults);
    }

    /** The modeled host<->channel interconnect hop charged on dispatch
     *  and completion (ssd/lookahead.hh). */
    Tick lookahead() const { return lookahead_; }

    // --- FlashBackend ---
    void submit(core::FlashRequest req) override;
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
        return strfmt("%s.ch%u.pkg%u", name().c_str(), chip / ways,
                      chip % ways);
    }

    // --- Aggregated stats ---
    std::uint64_t opsCompleted() const;
    std::uint64_t payloadBytesRead() const;
    std::uint64_t payloadBytesWritten() const;

  private:
    SsdConfig cfg_;

    /** Owned engine when the config wired none (destroyed last). */
    std::unique_ptr<fault::FaultEngine> faultsOwned_;

    Tick lookahead_ = 0;
    std::unique_ptr<dram::DramBuffer> dram_;
    std::vector<std::unique_ptr<core::ChannelSystem>> systems_;
    std::vector<std::unique_ptr<core::ChannelController>> controllers_;
};

} // namespace babol::ssd

#endif // BABOL_SSD_SSD_HH
