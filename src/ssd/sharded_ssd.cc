#include "sharded_ssd.hh"

namespace babol::ssd {

ShardEngine::ShardEngine(const SsdConfig &cfg)
    : engine_(cfg.channels + 1,
              interconnectLookahead(cfg.channel.package.timing))
{}

ShardedSsd::ShardedSsd(const std::string &name, SsdConfig cfg)
    : ShardEngine(cfg),
      Device(name, cfg, engine_.queue(0),
             [this](std::uint32_t ch) -> EventQueue & {
                 return engine_.queue(1 + ch);
             }),
      metrics_(obs::metrics(), name + ".engine")
{
    // One ExecContext per shard, all recording against the process
    // metrics registry (counters stay shard-local; the registry mutex
    // only guards registration). Installed around every bounded run of
    // the shard, together with its detached auditor when one is live.
    for (std::uint32_t s = 0; s < shardCount(); ++s) {
        ctxs_.push_back(std::make_unique<obs::ExecContext>(
            obs::interner(), &obs::hub().metrics(), s));
        engine_.setShardHooks(
            s,
            [this, s] {
                obs::Hub::exchangeCurrent(ctxs_[s].get());
                obs::audit::Auditor::exchangeCurrent(
                    s < auditors_.size() ? auditors_[s].get() : nullptr);
            },
            [] {
                obs::Hub::exchangeCurrent(nullptr);
                obs::audit::Auditor::exchangeCurrent(nullptr);
            });
    }

    // Deterministic epoch merge of the per-shard trace rings into the
    // hub's main recorder (and once more after the final window).
    engine_.setEpochHook([this] { mergeTraces(); });

    // Engine health for --metrics-out: the cross-shard traffic and the
    // windows it was carried over.
    metrics_.value("cross_shard_messages",
                   [this] { return engine_.crossShardMessages(); });
    metrics_.value("windows", [this] { return engine_.windowCount(); });
}

void
ShardedSsd::mergeTraces()
{
    std::vector<obs::ExecContext *> shards;
    shards.reserve(ctxs_.size());
    for (auto &c : ctxs_)
        shards.push_back(c.get());
    obs::mergeShardTraces(obs::hub().trace(), shards.data(), shards.size());
}

void
ShardedSsd::submit(core::FlashRequest req)
{
    const std::uint32_t channel = route(req);

    // The completion crosses back host-ward over the same interconnect
    // hop the dispatch pays; the classic Ssd charges the identical L on
    // its shared queue, so both engines time the same device.
    const Tick hop = lookahead();
    if (req.onComplete) {
        auto cb = std::move(req.onComplete);
        req.onComplete = [this, channel, hop,
                          cb = std::move(cb)](core::OpResult r) {
            const Tick now = engine_.queue(1 + channel).now();
            engine_.post(1 + channel, 0, now + hop,
                         [cb, r] { cb(r); });
        };
    }

    const Tick when = hostQueue().now() + hop;
    engine_.post(0, 1 + channel, when,
                 [this, channel, req = std::move(req)]() mutable {
                     controller(channel).submit(std::move(req));
                 });
}

std::uint64_t
ShardedSsd::run(std::uint32_t threads, Tick until)
{
    // Shard recorders mirror the main recorder's enable switch at entry
    // so `--trace` harness flags reach every shard.
    const bool tracing = obs::hub().trace().enabled();
    for (auto &c : ctxs_)
        c->trace.setEnabled(tracing);

    // Fresh detached auditors mirroring the process instance's armed
    // config; findings fold back in shard order below.
    auditors_.clear();
    for (std::uint32_t s = 0; s < shardCount(); ++s) {
        auditors_.push_back(
            obs::audit::Auditor::makeShard(obs::audit::Auditor::instance()));
    }

    const std::uint64_t fired = engine_.run(threads, until);

    for (auto &a : auditors_)
        obs::audit::Auditor::instance().absorb(*a);
    auditors_.clear();
    return fired;
}

} // namespace babol::ssd
