/**
 * @file
 * Conservative-lookahead parallel discrete-event engine over per-shard
 * EventQueues.
 *
 * The simulated system is partitioned into a FIXED set of shards (for an
 * SSD: one host shard for HIC/FTL/workload plus one shard per flash
 * channel). Worker threads multiplex shards — shard s runs on thread
 * (s mod T) — so the shard topology, and with it every window boundary,
 * message ordering, and merge order, is a function of the model alone,
 * never of the thread count. That is what makes runs byte-reproducible
 * at any T, and a T=1 run equivalent to the classic single-queue engine.
 *
 * Execution alternates two barrier-separated phases per window:
 *
 *   sync phase:  each thread drains the inbound links of its shards
 *                (scheduling delivered messages into the shard queue,
 *                in fixed sender order) and reports the shard's next
 *                event time. The barrier completion computes the
 *                global bound B = min over shards and the window edge
 *                limit = B + L - 1,  where L is the lookahead.
 *   run phase:   each shard independently fires every event with
 *                when <= limit, then arrives at the barrier again.
 *
 * A link is a plain vector per ordered shard pair. Only the sender's
 * thread appends to it, and only in a run phase (or before run()); only
 * the receiver's thread reads and clears it, and only in a sync phase.
 * The barrier between the phases orders every access, so a link needs
 * no atomics, no lock and no capacity.
 *
 * Cross-shard sends (ParallelEngine::post) must carry a delivery time at
 * least L past the sender's clock; since the sender's clock is <= limit
 * = B + L - 1 while running, every message lands at or after the next
 * window's bound and can never arrive in a shard's past. L is derived
 * from the modeled minimum cross-shard latency (for BABOL: the channel
 * interconnect/dispatch hop floor — CE setup + command/address cycles +
 * tWB; see interconnectLookahead() in ssd/ssd.hh).
 *
 * Error handling: a SimPanic (or any exception) thrown inside a shard is
 * captured, every thread still reaches the barrier (no deadlock), the
 * engine stops at the window edge, and run() rethrows the exception of
 * the lowest-numbered failing shard on the calling thread — again
 * deterministic at any thread count.
 */

#ifndef BABOL_SIM_PARALLEL_HH
#define BABOL_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "event_queue.hh"
#include "types.hh"

namespace babol::sim {

class ParallelEngine
{
  public:
    using Fn = std::function<void()>;

    /**
     * @param shards    number of shards (fixed for the engine's lifetime)
     * @param lookahead minimum cross-shard latency L in ticks (> 0)
     */
    ParallelEngine(std::uint32_t shards, Tick lookahead);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    std::uint32_t shardCount() const { return shardCount_; }
    Tick lookahead() const { return lookahead_; }

    /** The shard's private event queue. */
    EventQueue &queue(std::uint32_t shard);

    /**
     * Hooks run around every bounded queue.run() of @p shard, on the
     * worker thread that owns it. Used to install per-shard
     * observability / audit contexts.
     */
    void setShardHooks(std::uint32_t shard, Fn enter, Fn leave);

    /**
     * Run @p fn with all worker threads quiesced at the window barrier,
     * every kEpochWindows (64) windows and once after the final window.
     * Used for deterministic epoch merges of per-shard trace buffers.
     */
    void setEpochHook(Fn fn);

    /**
     * Send @p fn to run on shard @p to at absolute time @p when. Must
     * be called from code executing on shard @p from (during its run
     * phase, or from the calling thread before run()); @p when must be
     * at least lookahead() past queue(from).now().
     */
    void post(std::uint32_t from, std::uint32_t to, Tick when, Fn fn);

    /**
     * Run every shard with @p threads worker threads (clamped to the
     * shard count; the calling thread participates) until all queues
     * drain or simulated time would pass @p until.
     *
     * @return total events fired across all shards.
     */
    std::uint64_t run(std::uint32_t threads, Tick until = kMaxTick);

    /** Windows executed by the last / current run(). */
    std::uint64_t windowCount() const { return windows_; }

    /** Messages posted across shard links (all links, lifetime). */
    std::uint64_t crossShardMessages() const { return messages_; }

  private:
    /**
     * Windows between two epoch-hook calls. The hook runs in the
     * barrier while every worker waits, so it is spaced out rather than
     * run each window; yet 64 windows hold far fewer trace records than
     * a shard's trace ring (at most 146 per shard in fig12_end_to_end
     * --quick --threads 2, against 2^18), so no record is overwritten
     * before its merge. Records sort within one merge only, so this
     * value also fixes the record order of a traced sharded run.
     */
    static constexpr std::uint64_t kEpochWindows = 64;

    struct Msg
    {
        Tick when = 0;
        Fn fn;
    };

    struct ShardState
    {
        EventQueue queue;
        Fn enter, leave;
        Tick nextTime = kMaxTick;
        std::exception_ptr error;
    };

    std::vector<Msg> &link(std::uint32_t from, std::uint32_t to);
    void drainInbox(std::uint32_t shard);
    void onBarrier();

    std::uint32_t shardCount_;
    Tick lookahead_;
    std::vector<std::unique_ptr<ShardState>> shards_;
    std::vector<std::vector<Msg>> links_; // from*K + to; self-links unused

    Fn epochHook_;

    // Window-loop state: written only by the barrier completion (or
    // before/after the run), read by workers after the barrier.
    Tick until_ = kMaxTick;
    Tick limit_ = 0;
    bool done_ = false;
    int phase_ = 0;
    std::uint64_t windows_ = 0;
    std::atomic<bool> abort_{false};
    std::atomic<std::uint64_t> messages_{0};
};

} // namespace babol::sim

#endif // BABOL_SIM_PARALLEL_HH
