/**
 * @file
 * The multi-core SSD: the same Device Ssd places — N channels sharing
 * one staging DRAM behind a flat chip space — but partitioned across a
 * ParallelEngine at channel granularity. Shard 0 is the host complex
 * (HIC / FTL / workload generator / DRAM accounting); shard 1+ch runs
 * channel ch's ChannelSystem and controller on its own EventQueue.
 *
 * The FTL talks to a ShardedSsd exactly as it talks to an Ssd: through
 * FlashBackend::submit(). The submit crosses to the channel shard over
 * a shard link after the modeled interconnect hop L (ssd/ssd.hh),
 * and the completion crosses back the same way — the identical hop the
 * classic Ssd charges on its single queue, so a one-thread sharded run
 * simulates the same device as the classic engine.
 *
 * Shard topology — and with it every window edge, link ordering and
 * trace merge order — depends only on the channel count, never on the
 * worker-thread count, so runs are byte-reproducible at any --threads.
 *
 * Observability: every shard gets a private ExecContext (trace ring +
 * span-id namespace) installed via the engine's shard hooks; rings are
 * merged deterministically into the hub's main recorder at epoch
 * barriers, so exporters and the audit conservation pass see one
 * coherent trace. Each shard likewise gets a detached Auditor clone
 * whose findings are absorbed into the process auditor after the run.
 *
 * The assembly itself — DRAM, channels, controllers, the device-owned
 * FaultEngine that keeps back-to-back sims and fleet members from
 * bleeding campaign state into each other, chip routing and counters —
 * is Device's (ssd/ssd.hh); this placement adds only the engine.
 */

#ifndef BABOL_SSD_SHARDED_SSD_HH
#define BABOL_SSD_SHARDED_SSD_HH

#include <memory>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "obs/audit/auditor.hh"
#include "obs/hub.hh"
#include "sim/parallel.hh"
#include "ssd/ssd.hh"

namespace babol::ssd {

/** Base-from-member: ShardedSsd's engine is a base listed before
 *  Device, so the shard queues exist before Device places the DRAM and
 *  the channels on them, and outlive every object that schedules there. */
struct ShardEngine
{
    explicit ShardEngine(const SsdConfig &cfg);
    sim::ParallelEngine engine_;
};

class ShardedSsd : private ShardEngine, public Device
{
  public:
    ShardedSsd(const std::string &name, SsdConfig cfg);

    /** Shard count: host + one per channel. */
    std::uint32_t shardCount() const { return channelCount() + 1; }

    sim::ParallelEngine &engine() { return engine_; }

    /** Queue of the host shard — build the FTL / workload here. */
    EventQueue &hostQueue() { return engine_.queue(0); }

    /**
     * Run the device with @p threads workers until every shard drains
     * or simulated time would pass @p until. Byte-identical results at
     * any thread count. @return total events fired.
     */
    std::uint64_t run(std::uint32_t threads, Tick until = kMaxTick);

    /** FlashBackend; call from host-shard code only. */
    void submit(core::FlashRequest req) override;

  private:
    void mergeTraces();

    /** Per-shard obs/audit contexts, installed by the shard hooks. */
    std::vector<std::unique_ptr<obs::ExecContext>> ctxs_;
    std::vector<std::unique_ptr<obs::audit::Auditor>> auditors_;

    /** Last member: deregisters before the engine it polls dies. */
    obs::MetricsGroup metrics_;
};

} // namespace babol::ssd

#endif // BABOL_SSD_SHARDED_SSD_HH
