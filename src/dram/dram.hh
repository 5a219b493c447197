/**
 * @file
 * The SSD's DRAM staging buffer.
 *
 * Host data is staged here by the HIC and moved to/from the channel by
 * the Packetizer (the BABOL DMA unit). The backing store is a flat byte
 * array from calloc: a block this large (64-256 MiB per device) comes
 * as fresh zero pages, so pages a run never touches are never faulted
 * in. The timing model charges a fixed setup latency plus a bandwidth
 * term per transfer. DRAM bandwidth is far above a single channel's
 * (as in the real Cosmos+), so it rarely becomes the bottleneck — but it
 * is modeled so that misconfigured systems can observe it.
 */

#ifndef BABOL_DRAM_DRAM_HH
#define BABOL_DRAM_DRAM_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>

#include "obs/power/power.hh"
#include "sim/sim_object.hh"

namespace babol::dram {

class DramBuffer : public SimObject
{
  public:
    /**
     * @param bytes          capacity of the staging area
     * @param bandwidth_mbps sustained DMA bandwidth in MB/s
     * @param setup_latency  per-descriptor DMA setup time
     * @param power          power model to charge (nullptr = process
     *                       default)
     */
    DramBuffer(EventQueue &eq, const std::string &name, std::uint64_t bytes,
               double bandwidth_mbps = 1600.0,
               Tick setup_latency = 200 * ticks::perNs,
               obs::power::PowerModel *power = nullptr);

    std::uint64_t size() const { return size_; }

    /** "Stamp the access with my own queue's clock" — the right value
     *  for callers living on the DRAM's queue (host-side HIC/NVMe).
     *  Channel shards of a sharded device MUST pass their own shard
     *  time instead: reading this buffer's host-queue clock from a
     *  worker thread is racy and would make the power rail's activity
     *  windows depend on the worker-thread count. */
    static constexpr Tick kOwnClock = ~Tick(0);

    /** Copy @p data into the buffer at @p addr (backing-store access).
     *  @p at is the access time for the power rail (see kOwnClock). */
    void write(std::uint64_t addr, std::span<const std::uint8_t> data,
               Tick at = kOwnClock);

    /** Copy out of the buffer at @p addr. */
    void read(std::uint64_t addr, std::span<std::uint8_t> out,
              Tick at = kOwnClock) const;

    /** Time a DMA of @p bytes occupies the DRAM port. */
    Tick transferTime(std::uint64_t bytes) const;

    std::uint64_t bytesWritten() const
    {
        return bytesWritten_.load(std::memory_order_relaxed);
    }
    std::uint64_t bytesRead() const
    {
        return bytesRead_.load(std::memory_order_relaxed);
    }

    /** The row-activity power rail (per-byte access + standby). */
    obs::power::Meter &powerMeter() { return power_; }

  private:
    void checkRange(std::uint64_t addr, std::uint64_t len) const;

    struct Free
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };
    std::uint64_t size_;
    std::unique_ptr<std::uint8_t[], Free> mem_;
    double bandwidthMBps_;
    Tick setupLatency_;

    /** The staging DRAM is shared by every channel shard of a sharded
     *  device, so the accounting is relaxed-atomic. The byte array
     *  itself needs no locking: disjoint staging regions per op. */
    mutable std::atomic<std::uint64_t> bytesWritten_{0};
    mutable std::atomic<std::uint64_t> bytesRead_{0};

    /** Like the byte counters, the meter takes charges from every shard
     *  touching the shared staging buffer; its accumulators are relaxed
     *  atomics, so the totals stay order-independent. */
    mutable obs::power::Meter power_;
};

} // namespace babol::dram

#endif // BABOL_DRAM_DRAM_HH
