#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/ecc.hh"

namespace simbench {

void
Tracer::enter(Layer layer)
{
    stack_.push_back({layer, wallNow(), 0.0});
}

void
Tracer::leave()
{
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = wallNow() - f.start;
    self_[static_cast<int>(f.layer)] += dur - f.children;
    if (!stack_.empty())
        stack_.back().children += dur;
}

void
TimedBackend::submit(babol::core::FlashRequest req)
{
    if (req.onComplete) {
        // The FTL's completion handler: its self time is FTL time, and
        // any host callback it runs opens a Host frame of its own.
        using babol::core::FlashOpKind;
        const FlashOpKind kind = req.kind;
        // 0 asks for the whole page, as every controller flavour reads it.
        const std::uint32_t bytes =
            req.dataBytes ? req.dataBytes
                          : inner_.backendGeometry().pageDataBytes;
        auto cb = std::move(req.onComplete);
        req.onComplete = [this, kind, bytes, cb = std::move(cb)](
                             babol::core::OpResult r) {
            if (r.ok && (kind == FlashOpKind::Read ||
                         kind == FlashOpKind::PslcRead))
                tracer_.payloadRead += bytes;
            if (r.ok && (kind == FlashOpKind::Program ||
                         kind == FlashOpKind::PslcProgram))
                tracer_.payloadWritten += bytes;
            tracer_.opLatencyUs.push_back(
                static_cast<double>(r.latency()) /
                static_cast<double>(babol::ticks::perUs));
            Scope s(&tracer_, Layer::Ftl);
            cb(r);
        };
    }
    Scope s(&tracer_, Layer::Ctrl);
    inner_.submit(std::move(req));
}

void
stamp(std::span<std::uint8_t> buf, std::uint64_t key, std::uint64_t gen)
{
    const std::size_t words = buf.size() / 8;
    const std::uint64_t w = mix64(key * 0x100000001b3ull ^ mix64(gen + 1));
    for (std::size_t i = 0; i < words; ++i) {
        const std::uint64_t v = i == 0 ? key
                                : i == 1 ? gen
                                         : w + i * 0x9e3779b97f4a7c15ull;
        std::memcpy(buf.data() + i * 8, &v, 8);
    }
}

bool
stampMatches(std::span<const std::uint8_t> buf, std::uint64_t key,
             std::uint64_t gen, std::vector<std::uint8_t> &scratch)
{
    scratch.resize(buf.size());
    stamp(scratch, key, gen);
    return std::memcmp(scratch.data(), buf.data(), buf.size()) == 0;
}

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    // Harrell-Davis weighting with the normal approximation of its Beta
    // kernel: a weighted mean of the order statistics around rank
    // pct*n. A latency histogram made of steps (one more request queued
    // on a chip) would otherwise make the plain nearest-rank value jump
    // a whole step when one sample crosses the cut-off.
    const double n = static_cast<double>(samples.size());
    const double p = pct / 100.0;
    const double sigma = std::sqrt(p * (1.0 - p) / (n + 1.0));
    if (sigma == 0)
        return p <= 0 ? samples.front() : samples.back();
    auto cdf = [&](double x) {
        return 0.5 * std::erfc(-(x - p) / (sigma * std::sqrt(2.0)));
    };
    const auto lo = static_cast<std::size_t>(
        std::max(0.0, std::floor((p - 8 * sigma) * n)));
    const auto hi = static_cast<std::size_t>(
        std::min(n, std::ceil((p + 8 * sigma) * n)));
    double acc = 0, weight = 0;
    for (std::size_t i = lo; i < hi; ++i) {
        const double w = cdf((i + 1) / n) - cdf(i / n);
        acc += w * samples[i];
        weight += w;
    }
    return acc / weight;
}

Tail
tailOf(std::vector<double> samples)
{
    Tail t;
    t.samples = samples.size();
    const double n = static_cast<double>(samples.size());
    for (double pct : {99.0, 95.0, 90.0}) {
        if (n * (100.0 - pct) / 100.0 >= 10.0) {
            t.pct = pct;
            break;
        }
    }
    if (t.pct == 0)
        t.pct = 50.0;
    t.value = percentile(std::move(samples), t.pct);
    return t;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

EccCost
timeEcc(std::uint32_t page_bytes)
{
    babol::core::EccEngine ecc;
    std::vector<std::uint8_t> data(page_bytes);
    stamp(data, 1, 1);
    std::vector<std::uint8_t> image = ecc.encode(data);
    const std::vector<std::uint32_t> no_flips;

    // Median over batches of calls: one slow batch (a preemption) does
    // not move it.
    constexpr int kBatches = 15, kCalls = 8;
    auto per_call_ns = [&](auto &&call) {
        std::vector<double> ns;
        for (int b = 0; b < kBatches; ++b) {
            const double t0 = wallNow();
            for (int i = 0; i < kCalls; ++i)
                call();
            ns.push_back((wallNow() - t0) * 1e9 / kCalls);
        }
        return median(std::move(ns));
    };

    EccCost c;
    std::size_t sink = 0;
    c.encodeNs = per_call_ns([&] { sink += ecc.encode(data).size(); });
    c.decodeNs = per_call_ns([&] {
        sink += ecc.decode(image, 0, no_flips).codewords;
    });
    c.extractNs = per_call_ns([&] {
        sink += ecc.extractData(image, page_bytes).size();
    });
    // Keep the calls observable so none is optimised away.
    volatile std::size_t keep = sink;
    (void)keep;
    return c;
}

} // namespace simbench
