#include "ssd.hh"

#include "ssd/lookahead.hh"

namespace babol::ssd {

Ssd::Ssd(EventQueue &eq, const std::string &name, SsdConfig cfg)
    : SimObject(eq, name), cfg_(cfg)
{
    babol_assert(cfg_.channels >= 1 && cfg_.channels <= 16,
                 "SSD supports 1..16 channels, got %u", cfg_.channels);

    if (!cfg_.channel.package.faults) {
        faultsOwned_ = std::make_unique<fault::FaultEngine>();
        cfg_.channel.package.faults = faultsOwned_.get();
    }
    lookahead_ = interconnectLookahead(cfg_.channel.package.timing);

    dram_ = std::make_unique<dram::DramBuffer>(
        eq, name + ".dram", cfg_.dramBytes, 1600.0, 200 * ticks::perNs,
        cfg_.channel.package.power);

    for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
        core::ChannelConfig ccfg = cfg_.channel;
        ccfg.externalDram = dram_.get();
        ccfg.seed = cfg_.channel.seed + ch * 7717;
        systems_.push_back(std::make_unique<core::ChannelSystem>(
            eq, strfmt("%s.ch%u", name.c_str(), ch), ccfg));

        core::ChannelSystem &sys = *systems_.back();
        std::string cname = strfmt("%s.ch%u.ctrl", name.c_str(), ch);
        core::SoftControllerConfig soft;
        soft.cpuMhz = cfg_.cpuMhz;
        soft.maxReadRetries = cfg_.maxReadRetries;
        controllers_.push_back(
            core::makeController(cfg_.flavor, eq, cname, sys, soft));
    }
}

Ssd::~Ssd() = default;

core::ChannelSystem &
Ssd::channelSystem(std::uint32_t ch)
{
    babol_assert(ch < systems_.size(), "channel %u out of range", ch);
    return *systems_[ch];
}

core::ChannelController &
Ssd::controller(std::uint32_t ch)
{
    babol_assert(ch < controllers_.size(), "channel %u out of range", ch);
    return *controllers_[ch];
}

void
Ssd::submit(core::FlashRequest req)
{
    const std::uint32_t ways = cfg_.channel.chips;
    babol_assert(req.chip < backendChipCount(),
                 "global chip %u out of range", req.chip);
    const std::uint32_t channel = req.chip / ways;
    req.chip = req.chip % ways;

    // Model the host<->channel interconnect: dispatch and completion
    // each pay the hop L. Charging it here rather than inside the
    // controller keeps this engine cycle-compatible with ShardedSsd,
    // whose shard links carry the same L as their lookahead.
    if (req.onComplete) {
        auto cb = std::move(req.onComplete);
        req.onComplete = [this, cb = std::move(cb)](core::OpResult r) {
            scheduleIn(lookahead_, [cb, r] { cb(r); }, "ssd.complete");
        };
    }
    scheduleIn(lookahead_,
               [this, channel, req = std::move(req)]() mutable {
                   controllers_[channel]->submit(std::move(req));
               },
               "ssd.dispatch");
}

std::uint64_t
Ssd::opsCompleted() const
{
    std::uint64_t sum = 0;
    for (const auto &ctrl : controllers_)
        sum += ctrl->opsCompleted();
    return sum;
}

std::uint64_t
Ssd::payloadBytesRead() const
{
    std::uint64_t sum = 0;
    for (const auto &ctrl : controllers_)
        sum += ctrl->payloadBytesRead();
    return sum;
}

std::uint64_t
Ssd::payloadBytesWritten() const
{
    std::uint64_t sum = 0;
    for (const auto &ctrl : controllers_)
        sum += ctrl->payloadBytesWritten();
    return sum;
}

} // namespace babol::ssd
