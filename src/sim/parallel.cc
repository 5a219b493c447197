#include "parallel.hh"

#include <algorithm>
#include <barrier>
#include <thread>

namespace babol::sim {

ParallelEngine::ParallelEngine(std::uint32_t shards, Tick lookahead)
    : shardCount_(shards), lookahead_(lookahead)
{
    babol_assert(shards >= 1, "engine needs at least one shard");
    babol_assert(lookahead >= 1, "lookahead must be positive");
    shards_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s)
        shards_.push_back(std::make_unique<ShardState>());
    links_.resize(std::size_t(shards) * shards);
}

ParallelEngine::~ParallelEngine() = default;

EventQueue &
ParallelEngine::queue(std::uint32_t shard)
{
    babol_assert(shard < shardCount_, "shard %u out of range", shard);
    return shards_[shard]->queue;
}

void
ParallelEngine::setShardHooks(std::uint32_t shard, Fn enter, Fn leave)
{
    babol_assert(shard < shardCount_, "shard %u out of range", shard);
    shards_[shard]->enter = std::move(enter);
    shards_[shard]->leave = std::move(leave);
}

void
ParallelEngine::setEpochHook(Fn fn)
{
    epochHook_ = std::move(fn);
}

std::vector<ParallelEngine::Msg> &
ParallelEngine::link(std::uint32_t from, std::uint32_t to)
{
    return links_[std::size_t(from) * shardCount_ + to];
}

void
ParallelEngine::post(std::uint32_t from, std::uint32_t to, Tick when, Fn fn)
{
    babol_assert(from < shardCount_ && to < shardCount_ && from != to,
                 "bad link %u -> %u", from, to);
    const Tick senderNow = shards_[from]->queue.now();
    babol_assert(when >= senderNow + lookahead_,
                 "cross-shard message violates lookahead: when=%llu < "
                 "now=%llu + L=%llu",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(senderNow),
                 static_cast<unsigned long long>(lookahead_));
    link(from, to).push_back(Msg{when, std::move(fn)});
    messages_.fetch_add(1, std::memory_order_relaxed);
}

void
ParallelEngine::drainInbox(std::uint32_t shard)
{
    // Fixed sender order: delivery (and hence the receiver's sequence
    // numbering of same-tick messages) is independent of thread count.
    EventQueue &q = shards_[shard]->queue;
    for (std::uint32_t from = 0; from < shardCount_; ++from) {
        std::vector<Msg> &in = link(from, shard);
        for (Msg &m : in)
            q.schedule(m.when, std::move(m.fn), "xshard");
        in.clear();
    }
}

void
ParallelEngine::onBarrier()
{
    if (phase_ == 0) {
        // All shards drained and reported: compute the next window.
        Tick bound = kMaxTick;
        for (const auto &s : shards_)
            bound = std::min(bound, s->nextTime);
        if (abort_.load(std::memory_order_relaxed) || bound == kMaxTick ||
            bound > until_) {
            done_ = true;
        } else {
            const Tick edge = bound > kMaxTick - (lookahead_ - 1)
                                  ? kMaxTick
                                  : bound + lookahead_ - 1;
            limit_ = std::min(edge, until_);
            ++windows_;
        }
        phase_ = 1;
    } else {
        // All shards ran their window; a quiesced point suitable for
        // deterministic merges.
        if (abort_.load(std::memory_order_relaxed))
            done_ = true;
        if (epochHook_ && windows_ % kEpochWindows == 0)
            epochHook_();
        phase_ = 0;
    }
}

std::uint64_t
ParallelEngine::run(std::uint32_t threads, Tick until)
{
    threads = std::max(1u, std::min(threads, shardCount_));
    until_ = until;
    done_ = false;
    phase_ = 0;
    abort_.store(false, std::memory_order_relaxed);
    for (auto &s : shards_)
        s->error = nullptr;

    std::barrier sync(threads, [this]() noexcept { onBarrier(); });

    std::vector<std::uint64_t> fired(threads, 0);

    // Thread tid owns shards tid, tid + T, tid + 2T, ... (s mod T).
    auto body = [&](std::uint32_t tid) {
        for (;;) {
            for (std::uint32_t s = tid; s < shardCount_; s += threads) {
                try {
                    drainInbox(s);
                    shards_[s]->nextTime = shards_[s]->queue.nextEventTime();
                } catch (...) {
                    shards_[s]->error = std::current_exception();
                    abort_.store(true, std::memory_order_relaxed);
                }
            }
            sync.arrive_and_wait();
            if (done_)
                break;
            for (std::uint32_t s = tid; s < shardCount_; s += threads) {
                ShardState &st = *shards_[s];
                if (st.enter)
                    st.enter();
                try {
                    fired[tid] += st.queue.run(limit_);
                } catch (...) {
                    st.error = std::current_exception();
                    abort_.store(true, std::memory_order_relaxed);
                }
                if (st.leave)
                    st.leave();
            }
            sync.arrive_and_wait();
            if (done_)
                break;
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(threads - 1);
    for (std::uint32_t t = 1; t < threads; ++t)
        workers.emplace_back(body, t);
    body(0);
    for (auto &w : workers)
        w.join();

    // Final quiesced merge so epoch consumers see a complete trace.
    if (epochHook_)
        epochHook_();

    // Deterministic error propagation: lowest failing shard wins.
    for (const auto &s : shards_)
        if (s->error)
            std::rethrow_exception(s->error);

    std::uint64_t total = 0;
    for (std::uint64_t f : fired)
        total += f;
    return total;
}

} // namespace babol::sim
