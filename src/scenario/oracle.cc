#include "oracle.hh"

#include <algorithm>
#include <cstdio>

#include "nand/lun.hh"
#include "obs/audit/auditor.hh"
#include "obs/hub.hh"
#include "obs/power/power.hh"
#include "scenario/run.hh"

namespace babol::scenario {

namespace {

/** splitmix64 finalizer: the keyed byte-stream generator behind the
 *  stamped data patterns. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** cutAndRemount()'s read-back walk; @p expect_exact after a clean
 *  shutdown. */
RecoveryReport
verifyRecovery(ftl::PageFtl &ftl, const Ledger &led, bool expect_exact,
               const std::function<void()> &run)
{
    RecoveryReport rep;
    std::vector<std::uint8_t> got(ftl.pageBytes());
    Digest digest;
    auto violation = [&](const std::string &msg) {
        obs::audit::Auditor::instance().report(
            obs::audit::Check::Recovery, "recovery.conservation",
            "ssd.ftl", ftl.curTick(), msg);
        std::printf("RECOVERY VIOLATION: %s\n", msg.c_str());
    };

    for (std::uint64_t lpn = 0; lpn < led.extent(); ++lpn) {
        const auto ulpn = static_cast<unsigned long long>(lpn);
        const auto acked = static_cast<unsigned long long>(led.ackedGen[lpn]);
        const bool mapped = ftl.isMapped(lpn);
        std::uint64_t gen = 0;
        if (!mapped) {
            if (led.ackedGen[lpn] != 0) {
                ++rep.lost;
                violation(strfmt("lpn %llu: acknowledged gen %llu lost "
                                 "(unmapped after remount)",
                                 ulpn, acked));
            }
        } else {
            ++rep.mapped;
            bool ok = false, done = false;
            ftl.readPage(lpn, kHostBase, [&](bool o) {
                ok = o;
                done = true;
            });
            run();
            if (!done || !ok) {
                ++rep.corrupt;
                violation(strfmt("lpn %llu: mapped but unreadable", ulpn));
            } else {
                ftl.backend().backendDram().read(kHostBase, got);
                const Verdict v = led.check(got, lpn, led.ackedGen[lpn], &gen);
                const auto ugen = static_cast<unsigned long long>(gen);
                switch (v) {
                  case Verdict::Unstamped:
                    ++rep.corrupt;
                    violation(strfmt("lpn %llu: recovered page carries "
                                     "no valid stamp", ulpn));
                    break;
                  case Verdict::Corrupt:
                    ++rep.corrupt;
                    violation(strfmt("lpn %llu: payload of gen %llu "
                                     "corrupt", ulpn, ugen));
                    break;
                  case Verdict::Stale:
                    ++rep.stale;
                    violation(strfmt("lpn %llu: stale gen %llu resurrected "
                                     "over acknowledged gen %llu",
                                     ulpn, ugen, acked));
                    break;
                  case Verdict::Unissued:
                    ++rep.corrupt;
                    violation(strfmt("lpn %llu: gen %llu was never issued",
                                     ulpn, ugen));
                    break;
                  case Verdict::Intact:
                    if (expect_exact && gen != led.issuedGen[lpn]) {
                        ++rep.lost;
                        violation(strfmt(
                            "lpn %llu: clean shutdown lost gen %llu "
                            "(recovered %llu)",
                            ulpn,
                            static_cast<unsigned long long>(
                                led.issuedGen[lpn]),
                            ugen));
                    }
                    break;
                }
            }
        }
        digest.fold(lpn);
        digest.fold(mapped ? 1 : 0);
        digest.fold(gen);
    }
    rep.digest = digest.value;
    return rep;
}

/** The one-line account of a cut (@p crash_at > 0) or clean (0)
 *  remount. */
std::string
recoveryLine(std::uint64_t crash_at, const Ledger &led, Tick cut_at,
             ftl::PageFtl &ftl, Tick mount_ticks, const RecoveryReport &rep)
{
    return strfmt(
        "%s=%llu acked=%llu issued=%llu cut@%.1fus | mount %llu "
        "pages (%llu torn) in %.1f us | mapped=%llu digest=%016llx "
        "| lost=%llu stale=%llu corrupt=%llu",
        crash_at != 0 ? "crash-at" : "clean-remount",
        static_cast<unsigned long long>(crash_at),
        static_cast<unsigned long long>(led.acked),
        static_cast<unsigned long long>(led.issued), ticks::toUs(cut_at),
        static_cast<unsigned long long>(ftl.mountPagesScanned()),
        static_cast<unsigned long long>(ftl.mountTornPages()),
        ticks::toUs(mount_ticks),
        static_cast<unsigned long long>(rep.mapped),
        static_cast<unsigned long long>(rep.digest),
        static_cast<unsigned long long>(rep.lost),
        static_cast<unsigned long long>(rep.stale),
        static_cast<unsigned long long>(rep.corrupt));
}

} // namespace

void
stampPage(std::vector<std::uint8_t> &page, std::uint64_t lpn,
          std::uint64_t gen)
{
    page[0] = 0xB0;
    page[1] = 0xB0;
    page[2] = 0x7E;
    page[3] = 0x57;
    for (int i = 0; i < 4; ++i)
        page[4 + i] = static_cast<std::uint8_t>(lpn >> (8 * i));
    for (int i = 0; i < 8; ++i)
        page[8 + i] = static_cast<std::uint8_t>(gen >> (8 * i));
    std::uint64_t s = mix64(lpn * 0x10001u + gen);
    for (std::size_t off = 16; off < page.size(); off += 8) {
        s = mix64(s);
        for (std::size_t i = 0; i < 8 && off + i < page.size(); ++i)
            page[off + i] = static_cast<std::uint8_t>(s >> (8 * i));
    }
}

bool
readStamp(const std::vector<std::uint8_t> &page, std::uint64_t lpn,
          std::uint64_t *gen)
{
    if (page[0] != 0xB0 || page[1] != 0xB0 || page[2] != 0x7E ||
        page[3] != 0x57) {
        return false;
    }
    std::uint64_t got_lpn = 0;
    for (int i = 0; i < 4; ++i)
        got_lpn |= static_cast<std::uint64_t>(page[4 + i]) << (8 * i);
    if (got_lpn != lpn)
        return false;
    *gen = 0;
    for (int i = 0; i < 8; ++i)
        *gen |= static_cast<std::uint64_t>(page[8 + i]) << (8 * i);
    return true;
}

Verdict
Ledger::check(const std::vector<std::uint8_t> &got, std::uint64_t lpn,
              std::uint64_t floor, std::uint64_t *gen) const
{
    *gen = 0;
    if (!readStamp(got, lpn, gen))
        return Verdict::Unstamped;
    if (*gen < floor)
        return Verdict::Stale;
    if (*gen > issuedGen[lpn])
        return Verdict::Unissued;
    std::vector<std::uint8_t> want(got.size());
    stampPage(want, lpn, *gen);
    return got == want ? Verdict::Intact : Verdict::Corrupt;
}

void
Digest::fold(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        value ^= (v >> (8 * i)) & 0xFF;
        value *= 1099511628211ull;
    }
}

Remount
cutAndRemount(const LunPairs &luns, std::uint64_t crash_at, Tick cut_at,
              const std::function<void()> &drop_old, ftl::PageFtl &ftl,
              const Ledger &led, const std::function<void()> &run)
{
    for (const auto &[old_lun, new_lun] : luns) {
        if (crash_at != 0)
            old_lun->powerCut();
        new_lun->array().copyStateFrom(old_lun->array());
    }
    drop_old();
    // The old world's torn spans would otherwise trip the auditor's
    // conservation pass, and a power cut tearing them open is exactly
    // the expected outcome here.
    if (obs::trace().enabled())
        obs::trace().clear();

    auto &pm = obs::power::PowerModel::instance();
    const std::uint64_t e0 =
        pm.enabled() ? pm.grandTotalFjAt(ftl.curTick()) : 0;
    bool mounted = false;
    ftl.mount([&](bool ok) { mounted = ok; });
    run();
    if (!mounted)
        fatal("remount failed");
    const Tick mount_ticks = ftl.curTick();
    const std::uint64_t mount_fj =
        pm.enabled() ? pm.grandTotalFjAt(mount_ticks) - e0 : 0;

    Remount r;
    r.report = verifyRecovery(ftl, led, crash_at == 0, run);
    r.line = recoveryLine(crash_at, led, cut_at, ftl, mount_ticks, r.report);
    if (pm.enabled())
        r.line += strfmt(" | mount %.2f uJ",
                         static_cast<double>(mount_fj) / 1e9);
    return r;
}

int
campaignStatus(std::uint64_t recovery_violations, bool data_lost,
               int status)
{
    if (recovery_violations)
        return 1;
    return data_lost ? kExitDataLoss : status;
}

StampedWorkload::StampedWorkload(ftl::PageFtl &ftl, Ledger &led,
                                 Config cfg)
    : ftl_(ftl),
      led_(led),
      cfg_(cfg),
      rng_(cfg.seed),
      page_(ftl.pageBytes()),
      got_(ftl.pageBytes())
{
}

void
StampedWorkload::start()
{
    for (std::uint32_t q = 0; q < kStampedQd; ++q)
        issue(q);
}

void
StampedWorkload::issue(std::uint32_t slot)
{
    if (stopped_)
        return;
    if (issued_ >= cfg_.totalOps) {
        if (completed_ == issued_ && onDrain)
            onDrain();
        return;
    }
    ++issued_;
    const std::uint64_t addr =
        kHostBase + std::uint64_t(slot) * ftl_.pageBytes();
    const std::uint64_t lpn = rng_.uniform(0, led_.extent() - 1);
    dram::DramBuffer &dram = ftl_.backend().backendDram();

    if (cfg_.mixedReads && issued_ % 3 == 0 && led_.ackedGen[lpn] != 0) {
        ++reads_;
        const std::uint64_t floor_gen = led_.ackedGen[lpn];
        ftl_.readPage(lpn, addr, [this, &dram, slot, lpn, addr,
                                  floor_gen](bool ok) {
            ++completed_;
            if (!ok) {
                ++readFailures_;
            } else {
                dram.read(addr, got_);
                std::uint64_t gen = 0;
                if (led_.check(got_, lpn, floor_gen, &gen) !=
                    Verdict::Intact)
                    ++readCorrupt_;
            }
            issue(slot);
        });
        return;
    }

    const std::uint64_t gen = ++led_.issuedGen[lpn];
    ++led_.issued;
    stampPage(page_, lpn, gen);
    dram.write(addr, page_);
    ftl_.writePage(lpn, addr, [this, slot, lpn, gen](bool ok) {
        ++completed_;
        if (!ok)
            fatal("stamped workload: write lpn %llu failed",
                  static_cast<unsigned long long>(lpn));
        led_.ackedGen[lpn] = std::max(led_.ackedGen[lpn], gen);
        ++led_.acked;
        if (onAck)
            onAck(led_.acked);
        if (cfg_.stopAtAck != 0 && led_.acked == cfg_.stopAtAck) {
            stopped_ = true;
            return;
        }
        issue(slot);
    });
}

} // namespace babol::scenario
