#include "ssd.hh"

namespace babol::ssd {

Device::Device(const std::string &name, SsdConfig cfg, EventQueue &host,
               const std::function<EventQueue &(std::uint32_t)> &channelQueue)
    : name_(name), cfg_(cfg),
      lookahead_(interconnectLookahead(cfg.channel.package.timing))
{
    babol_assert(cfg_.channels >= 1 && cfg_.channels <= 16,
                 "SSD supports 1..16 channels, got %u", cfg_.channels);

    if (!cfg_.channel.package.faults) {
        faultsOwned_ = std::make_unique<fault::FaultEngine>();
        cfg_.channel.package.faults = faultsOwned_.get();
    }

    dram_ = std::make_unique<dram::DramBuffer>(
        host, name + ".dram", cfg_.dramBytes, 1600.0, 200 * ticks::perNs,
        cfg_.channel.package.power);

    for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
        EventQueue &ceq = channelQueue(ch);
        core::ChannelConfig ccfg = cfg_.channel;
        ccfg.externalDram = dram_.get();
        ccfg.seed = cfg_.channel.seed + ch * 7717;
        systems_.push_back(std::make_unique<core::ChannelSystem>(
            ceq, strfmt("%s.ch%u", name.c_str(), ch), ccfg));

        core::ChannelSystem &sys = *systems_.back();
        std::string cname = strfmt("%s.ch%u.ctrl", name.c_str(), ch);
        core::SoftControllerConfig soft;
        soft.cpuMhz = cfg_.cpuMhz;
        soft.maxReadRetries = cfg_.maxReadRetries;
        controllers_.push_back(
            core::makeController(cfg_.flavor, ceq, cname, sys, soft));
    }
}

core::ChannelSystem &
Device::channelSystem(std::uint32_t ch)
{
    babol_assert(ch < systems_.size(), "channel %u out of range", ch);
    return *systems_[ch];
}

core::ChannelController &
Device::controller(std::uint32_t ch)
{
    babol_assert(ch < controllers_.size(), "channel %u out of range", ch);
    return *controllers_[ch];
}

std::uint32_t
Device::route(core::FlashRequest &req) const
{
    const std::uint32_t ways = cfg_.channel.chips;
    babol_assert(req.chip < backendChipCount(),
                 "global chip %u out of range", req.chip);
    const std::uint32_t channel = req.chip / ways;
    req.chip = req.chip % ways;
    return channel;
}

std::uint64_t
Device::sum(std::uint64_t (core::ChannelController::*counter)() const) const
{
    std::uint64_t total = 0;
    for (const auto &ctrl : controllers_)
        total += ((*ctrl).*counter)();
    return total;
}

Ssd::Ssd(EventQueue &eq, const std::string &name, SsdConfig cfg)
    : Device(name, cfg, eq, [&eq](std::uint32_t) -> EventQueue & {
          return eq;
      }),
      eq_(eq)
{}

void
Ssd::submit(core::FlashRequest req)
{
    const std::uint32_t channel = route(req);

    // Model the host<->channel interconnect: dispatch and completion
    // each pay the hop L. Charging it here rather than inside the
    // controller keeps this engine cycle-compatible with ShardedSsd,
    // whose shard links carry the same L as their lookahead.
    if (req.onComplete) {
        auto cb = std::move(req.onComplete);
        req.onComplete = [this, cb = std::move(cb)](core::OpResult r) {
            eq_.scheduleIn(lookahead(), [cb, r] { cb(r); }, "ssd.complete");
        };
    }
    eq_.scheduleIn(lookahead(),
                   [this, channel, req = std::move(req)]() mutable {
                       controller(channel).submit(std::move(req));
                   },
                   "ssd.dispatch");
}

} // namespace babol::ssd
