#include "rain.hh"

#include <algorithm>
#include <memory>

#include "sim/logging.hh"

namespace babol::reliability {

RainManager::RainManager(EventQueue &eq, const std::string &name,
                         ftl::PageFtl &ftl, RainConfig cfg)
    : SimObject(eq, name), ftl_(ftl), cfg_(cfg),
      pageBytes_(ftl.pageBytes()), metrics_(obs::metrics(), name)
{
    obsTrack_ = obs::interner().intern(name);
    lblSeal_ = obs::interner().intern("rain.seal");
    lblRelease_ = obs::interner().intern("rain.release");
    lblRebuild_ = obs::interner().intern("rain.rebuild");

    metrics_.value("stripes_sealed", [this] { return stripesSealed_; });
    metrics_.value("parity_writes", [this] { return parityWrites_; });
    metrics_.value("rebuilds_ok", [this] { return rebuildsOk_; });
    metrics_.value("rebuilds_failed", [this] { return rebuildsFailed_; });
    metrics_.value("stripes_released", [this] { return stripesReleased_; });
    metrics_.value("holes_patched", [this] { return holesPatched_; });
    metrics_.value("rebuild_total", [this] { return rebuildTotal_; });
    metrics_.value("rebuild_done", [this] { return rebuildDone_; });
    metrics_.value("rebuild_eta_us", [this] { return rebuildEtaUs(); });

    ftl_.onProgramCommitted = [this](const ftl::Ppa &at, std::uint64_t lpn,
                                     std::uint64_t dram_addr,
                                     ftl::OobState state) {
        noteProgram(at, lpn, dram_addr, state);
    };
    ftl_.beforeErase = [this](std::uint32_t chip, std::uint32_t block,
                              std::function<void()> proceed) {
        releaseBlock(chip, block, std::move(proceed));
    };
    ftl_.onReadFailed = [this](std::uint64_t lpn, ftl::Ppa at,
                               std::uint64_t dram_addr,
                               ftl::PageFtl::Callback done) {
        rebuildRead(lpn, at, dram_addr, std::move(done));
    };
    ftl_.onChipDead = [this](std::uint32_t chip) { startSweep(chip); };
}

void
RainManager::foldInto(std::vector<std::uint8_t> &dst,
                      const std::vector<std::uint8_t> &src) const
{
    if (src.empty())
        return;
    if (dst.empty())
        dst.assign(pageBytes_, 0);
    for (std::uint32_t i = 0; i < pageBytes_; ++i)
        dst[i] ^= src[i];
}

std::uint32_t
RainManager::liveChips() const
{
    std::uint32_t n = 0;
    for (std::uint32_t c = 0; c < ftl_.chipCount(); ++c)
        if (!ftl_.chipDead(c))
            ++n;
    return n;
}

std::uint32_t
RainManager::dataPagesTarget() const
{
    if (cfg_.stripeDataPages)
        return cfg_.stripeDataPages;
    const std::uint32_t live = liveChips();
    return live > 1 ? live - 1 : 1;
}

RainManager::Stripe &
RainManager::openStripe()
{
    if (openId_ == 0) {
        openId_ = nextStripeId_++;
        Stripe &s = stripes_[openId_];
        s.id = openId_;
        s.xorAcc.assign(pageBytes_, 0);
    }
    return stripes_[openId_];
}

void
RainManager::dropStripe(std::uint64_t id)
{
    auto it = stripes_.find(id);
    if (it == stripes_.end())
        return;
    for (const Unit &u : it->second.members)
        unitAt_.erase(key(u.at));
    if (it->second.hasParity)
        unitAt_.erase(key(it->second.parity));
    if (openId_ == id)
        openId_ = 0;
    stripes_.erase(it);
}

// --- Stripe accumulation ------------------------------------------------

void
RainManager::addUnit(const ftl::Ppa &at, std::uint64_t lpn,
                     const std::vector<std::uint8_t> &data)
{
    Stripe *s = &openStripe();
    if (at.chip < 32 && (s->chipMask >> at.chip) & 1) {
        // The open stripe already has a unit on this chip — a single
        // die loss may never take two units of one stripe, so seal it
        // short and start a new one for this page.
        seal(*s);
        s = &openStripe();
    }

    foldInto(s->xorAcc, data);
    s->members.push_back({at, lpn});
    if (at.chip < 32)
        s->chipMask |= 1u << at.chip;
    unitAt_[key(at)] = s->id;

    if (s->members.size() >= dataPagesTarget())
        seal(*s);
}

void
RainManager::patchOut(std::uint64_t stripe_id, const ftl::Ppa &at,
                      const std::vector<std::uint8_t> &data)
{
    auto it = stripes_.find(stripe_id);
    if (it == stripes_.end())
        return;
    Stripe &s = it->second;
    auto mit = std::find_if(s.members.begin(), s.members.end(),
                            [&](const Unit &u) {
                                return key(u.at) == key(at);
                            });
    if (mit == s.members.end())
        return;

    // Open stripes fold the removal straight into the accumulator;
    // sealed ones must not touch xorAcc (a parity snapshot of it may
    // be in flight), so the removal lands in delta instead. Either
    // way the stripe equation keeps summing to zero.
    if (!s.sealed)
        foldInto(s.xorAcc, data);
    else
        foldInto(s.delta, data);

    s.members.erase(mit);
    unitAt_.erase(key(at));
    s.chipMask = 0;
    for (const Unit &u : s.members)
        if (u.at.chip < 32)
            s.chipMask |= 1u << u.at.chip;
    ++holesPatched_;

    if (s.members.empty()) {
        dropStripe(stripe_id); // parity page (if any) becomes garbage
        ++stripesReleased_;
    }
}

void
RainManager::parityLost(std::uint64_t stripe_id,
                        const std::vector<std::uint8_t> &content)
{
    auto it = stripes_.find(stripe_id);
    if (it == stripes_.end() || !it->second.hasParity)
        return;
    Stripe &s = it->second;
    unitAt_.erase(key(s.parity));
    s.hasParity = false;
    // parity = XOR(members) ^ delta, so folding its content into the
    // (empty) accumulator keeps the equation balanced with the NAND
    // page gone. The stripe stays memory-protected for the rest of
    // its life — deliberately NOT rewritten to NAND: parity pages
    // live in ordinary churning blocks, so a rewrite-on-erase policy
    // re-buys every parity page each time its block turns over, and
    // that feedback loop alone can out-write the host by orders of
    // magnitude and wear out the device. One parity write per stripe,
    // ever, keeps RAIN's amplification bounded.
    foldInto(s.xorAcc, content);
    if (s.members.empty()) {
        dropStripe(stripe_id);
        ++stripesReleased_;
    }
}

void
RainManager::noteProgram(const ftl::Ppa &at, std::uint64_t lpn,
                         std::uint64_t dram_addr, ftl::OobState state)
{
    if (state == ftl::OobState::RainParity)
        return; // our own parity pages never join a stripe

    std::vector<std::uint8_t> page(pageBytes_);
    ftl_.backend().backendDram().read(dram_addr, page);
    addUnit(at, lpn, page);
}

void
RainManager::seal(Stripe &s)
{
    if (s.sealed)
        return;
    s.sealed = true;
    if (openId_ == s.id)
        openId_ = 0;
    ++stripesSealed_;
    parityPending_.push_back(s.id);
    pumpParity();
}

void
RainManager::pumpParity()
{
    if (parityBusy_)
        return;
    while (!parityPending_.empty()) {
        const std::uint64_t id = parityPending_.front();
        auto it = stripes_.find(id);
        if (it == stripes_.end() || it->second.hasParity) {
            parityPending_.pop_front(); // released or already done
            continue;
        }
        parityBusy_ = true;
        Stripe &s = it->second;

        // Snapshot the parity-to-be: fold any patch delta into the
        // accumulator so the staged copy equals XOR(current members).
        // Patches landing while the write is in flight accumulate in
        // a fresh delta against the snapshot.
        foldInto(s.xorAcc, s.delta);
        s.delta.clear();
        s.delta.shrink_to_fit();

        const std::uint64_t addr =
            ftl_.reliabilityScratchAddr(cfg_.scratchSlot);
        ftl_.backend().backendDram().write(addr, s.xorAcc);

        const obs::SpanId span = obs::trace().beginSpan(
            obsTrack_, lblSeal_, curTick(), obs::currentCtx(), id);
        ftl_.writeParity(id, addr, s.chipMask,
                         [this, id, span](bool ok, ftl::Ppa at) {
            obs::trace().endSpan(span, curTick());
            parityBusy_ = false;
            parityPending_.pop_front();
            auto sit = stripes_.find(id);
            if (sit != stripes_.end()) {
                if (ok) {
                    Stripe &st = sit->second;
                    st.hasParity = true;
                    st.parity = at;
                    unitAt_[key(at)] = id;
                    st.xorAcc.clear(); // parity landed; free the copy
                    st.xorAcc.shrink_to_fit();
                    ++parityWrites_;
                } else {
                    // Keep xorAcc: the stripe stays protected by the
                    // in-memory accumulator only.
                    warn("%s: parity write for stripe %llu failed; "
                         "stripe protected in memory only",
                         name().c_str(),
                         static_cast<unsigned long long>(id));
                }
            }
            pumpParity();
        });
        return;
    }
}

// --- Serialized work queue ----------------------------------------------

void
RainManager::pumpWork()
{
    if (workBusy_ || work_.empty())
        return;
    workBusy_ = true;
    auto job = std::move(work_.front());
    work_.pop_front();
    job([this] {
        workBusy_ = false;
        pumpWork();
    });
}

// --- Release (erase gating) ---------------------------------------------

void
RainManager::releaseBlock(std::uint32_t chip, std::uint32_t block,
                          std::function<void()> proceed)
{
    work_.push_back([this, chip, block, proceed = std::move(proceed)](
                        std::function<void()> next) {
        doRelease(chip, block, proceed, std::move(next));
    });
    pumpWork();
}

void
RainManager::doRelease(std::uint32_t chip, std::uint32_t block,
                       std::function<void()> proceed,
                       std::function<void()> next)
{
    // Units (members or parity pages) about to be destroyed. Chip-
    // collision sealing guarantees at most one unit per stripe here.
    struct Doomed
    {
        std::uint64_t stripe;
        ftl::Ppa at;
    };
    struct State
    {
        std::vector<Doomed> doomed;
        std::size_t i = 0;
        std::uint32_t chip, block;
        obs::SpanId span;
        std::function<void()> proceed, next;
    };
    auto st = std::make_shared<State>();
    st->chip = chip;
    st->block = block;
    st->proceed = std::move(proceed);
    st->next = std::move(next);
    for (std::uint32_t p = 0; p < ftl_.pagesPerBlock(); ++p) {
        auto it = unitAt_.find(key({chip, block, p}));
        if (it != unitAt_.end())
            st->doomed.push_back({it->second, {chip, block, p}});
    }
    st->span = obs::trace().beginSpan(obsTrack_, lblRelease_, curTick(),
                                      obs::currentCtx(),
                                      st->doomed.size());

    // Each doomed unit is read once (rebuilt if unreadable) and
    // patched out of its stripe — reads only, no data moves, so the
    // erase can never deadlock behind a write and frees every page it
    // promises. A doomed parity page folds back to DRAM and the
    // stripe queues a parity rewrite. The step holds itself weakly:
    // the pending read's callbacks keep it alive, so it is freed once
    // the last unit is done.
    auto step = std::make_shared<std::function<void()>>();
    *step = [this, st, weak = std::weak_ptr(step)] {
        const auto step = weak.lock();
        if (st->i >= st->doomed.size()) {
            obs::trace().endSpan(st->span, curTick());
            st->proceed();
            st->next();
            return;
        }
        const Doomed d = st->doomed[st->i];
        auto sit = stripes_.find(d.stripe);
        auto uit = unitAt_.find(key(d.at));
        if (sit == stripes_.end() || uit == unitAt_.end() ||
            uit->second != d.stripe) {
            ++st->i; // stripe dissolved while we worked the block
            (*step)();
            return;
        }
        const bool isParity = sit->second.hasParity &&
                              key(sit->second.parity) == key(d.at);

        auto apply = [this, st, step, d,
                      isParity](const std::vector<std::uint8_t> &bytes) {
            if (isParity)
                parityLost(d.stripe, bytes);
            else
                patchOut(d.stripe, d.at, bytes);
            ++st->i;
            (*step)();
        };
        auto giveUp = [this, st, step, d] {
            // Unreadable and unrebuildable (double fault): the
            // stripe's equation can no longer balance — drop it and
            // let the survivors run uncovered rather than risk a
            // wrong rebuild later.
            warn("%s: stripe %llu lost unit at chip %u block %u page "
                 "%u past repair; dropping stripe (members lose cover)",
                 name().c_str(),
                 static_cast<unsigned long long>(d.stripe), d.at.chip,
                 d.at.block, d.at.page);
            ++rebuildsFailed_;
            dropStripe(d.stripe);
            ++stripesReleased_;
            ++st->i;
            (*step)();
        };

        const std::uint64_t addr =
            ftl_.reliabilityScratchAddr(cfg_.scratchSlot + 1);
        ftl_.readPhysical(d.at.chip, d.at.block, d.at.page, addr,
                          [this, d, addr, apply,
                           giveUp](const core::OpResult &r) {
            if (r.ok) {
                std::vector<std::uint8_t> bytes(pageBytes_);
                ftl_.backend().backendDram().read(addr, bytes);
                apply(bytes);
                return;
            }
            // Too decayed to read straight — the stripe is still
            // whole, so recompute this unit from the rest of it.
            rebuildUnit(d.stripe, d.at, cfg_.scratchSlot + 1,
                        [apply, giveUp](bool ok,
                                        std::vector<std::uint8_t> b) {
                if (ok)
                    apply(b);
                else
                    giveUp();
            });
        });
    };
    (*step)();
}

// --- Rebuild ------------------------------------------------------------

void
RainManager::rebuildUnit(
    std::uint64_t stripe_id, const ftl::Ppa &target, std::uint32_t slot,
    std::function<void(bool, std::vector<std::uint8_t>)> done)
{
    auto it = stripes_.find(stripe_id);
    if (it == stripes_.end()) {
        done(false, {});
        return;
    }
    const Stripe &s = it->second;
    if (!s.hasParity && s.xorAcc.empty()) {
        done(false, {}); // no equation left to solve
        return;
    }

    struct State
    {
        std::vector<ftl::Ppa> sources;
        std::vector<std::uint8_t> acc;
        std::size_t i = 0;
    };
    auto st = std::make_shared<State>();

    // target = XOR(everything else in the stripe equation).
    st->acc.assign(pageBytes_, 0);
    foldInto(st->acc, s.xorAcc);
    foldInto(st->acc, s.delta);
    const bool targetIsParity =
        s.hasParity && key(s.parity) == key(target);
    if (s.hasParity && !targetIsParity)
        st->sources.push_back(s.parity);
    for (const Unit &u : s.members)
        if (key(u.at) != key(target))
            st->sources.push_back(u.at);

    for (const ftl::Ppa &src : st->sources) {
        if (ftl_.chipDead(src.chip)) {
            // Two units of the stripe are unreadable: past the
            // single-fault protection RAIN provides.
            done(false, {});
            return;
        }
    }

    const std::uint64_t addr = ftl_.reliabilityScratchAddr(slot);
    auto step = std::make_shared<std::function<void()>>();
    *step = [this, st, weak = std::weak_ptr(step), addr,
             done = std::move(done)] {
        const auto step = weak.lock(); // held by the pending read
        if (st->i >= st->sources.size()) {
            done(true, std::move(st->acc));
            return;
        }
        const ftl::Ppa src = st->sources[st->i++];
        ftl_.readPhysical(src.chip, src.block, src.page, addr,
                          [this, st, step, addr,
                           done](const core::OpResult &r) {
            if (!r.ok) {
                done(false, {}); // double fault: a source is unreadable
                return;
            }
            std::vector<std::uint8_t> d(pageBytes_);
            ftl_.backend().backendDram().read(addr, d);
            for (std::uint32_t i = 0; i < pageBytes_; ++i)
                st->acc[i] ^= d[i];
            (*step)();
        });
    };
    (*step)();
}

void
RainManager::rebuildRead(std::uint64_t lpn, ftl::Ppa at,
                         std::uint64_t dram_addr,
                         ftl::PageFtl::Callback done)
{
    // Front of the queue: a host read is stalled on this rebuild.
    HostRebuild hr{lpn, at, dram_addr, std::move(done)};
    work_.push_front(
        [this, hr = std::move(hr)](std::function<void()> next) mutable {
            doHostRebuild(std::move(hr), std::move(next));
        });
    pumpWork();
}

void
RainManager::doHostRebuild(HostRebuild hr, std::function<void()> next)
{
    auto uit = unitAt_.find(key(hr.at));
    if (uit == unitAt_.end()) {
        ++rebuildsFailed_; // not striped (pre-RAIN data or dropped map)
        hr.done(false);
        next();
        return;
    }
    const obs::SpanId span = obs::trace().beginSpan(
        obsTrack_, lblRebuild_, curTick(), obs::currentCtx(), hr.lpn);
    rebuildUnit(uit->second, hr.at, cfg_.scratchSlot + 1,
                [this, hr = std::move(hr), span,
                 next = std::move(next)](bool ok,
                                         std::vector<std::uint8_t> d) {
        obs::trace().endSpan(span, curTick());
        if (!ok) {
            ++rebuildsFailed_;
            hr.done(false);
            next();
            return;
        }
        ftl_.backend().backendDram().write(hr.dramAddr, d);
        ++rebuildsOk_;
        hr.done(true);
        next();
        // Remap the page off the bad copy soon (front of the queue:
        // it just cost a host read a full rebuild).
        rebuildQueue_.push_front({false, hr.lpn, 0, {}});
        ++rebuildTotal_;
        pumpRepair();
    });
}

void
RainManager::startSweep(std::uint32_t chip)
{
    std::uint64_t stranded = 0, heals = 0;
    for (std::uint64_t lpn = 0; lpn < ftl_.logicalPages(); ++lpn) {
        auto mp = ftl_.mappedPpa(lpn);
        if (mp && mp->chip == chip) {
            rebuildQueue_.push_back({false, lpn, 0, {}});
            ++rebuildTotal_;
            ++stranded;
        }
    }
    // Heal pass: every unit the dead die still contributes to a stripe
    // (stale members, parity pages) is rebuilt from the survivors and
    // patched out, restoring single-fault cover for the rest of the
    // stripe. Without this, one dead stale page poisons every future
    // rebuild its stripe is asked for.
    for (const auto &[id, s] : stripes_) {
        for (const Unit &u : s.members) {
            if (u.at.chip == chip) {
                rebuildQueue_.push_back({true, 0, id, u.at});
                ++rebuildTotal_;
                ++heals;
            }
        }
        if (s.hasParity && s.parity.chip == chip) {
            rebuildQueue_.push_back({true, 0, id, s.parity});
            ++rebuildTotal_;
            ++heals;
        }
    }
    warn("%s: chip %u dead; %llu stranded pages queued for rebuild, "
         "%llu stripe units queued for heal",
         name().c_str(), chip,
         static_cast<unsigned long long>(stranded),
         static_cast<unsigned long long>(heals));
    pumpRepair();
}

void
RainManager::pumpRepair()
{
    if (repairBusy_ || rebuildQueue_.empty())
        return;
    repairBusy_ = true;
    // Paced: repair is background traffic, one unit per interval.
    scheduleIn(cfg_.rebuildPaceUs * ticks::perUs, [this] {
        if (rebuildQueue_.empty()) {
            repairBusy_ = false;
            return;
        }
        RepairJob job = std::move(rebuildQueue_.front());
        rebuildQueue_.pop_front();
        ++rebuildDone_;
        work_.push_back([this, job](std::function<void()> next) {
            doRepair(job, std::move(next));
        });
        pumpWork();
    }, "rain.repair");
}

void
RainManager::doRepair(RepairJob job, std::function<void()> next)
{
    // `idle` frees the repair feeder; `next` frees the shared work
    // queue. Remap jobs release `next` as soon as their rewrite is
    // issued (holding the queue across a write could deadlock behind
    // a gated erase) and `idle` only when the write lands, so at most
    // one remap write is ever in flight.
    auto idle = [this] {
        repairBusy_ = false;
        pumpRepair();
    };

    if (job.heal) {
        auto sit = stripes_.find(job.stripe);
        auto uit = unitAt_.find(key(job.at));
        if (sit == stripes_.end() || uit == unitAt_.end() ||
            uit->second != job.stripe) {
            idle(); // already patched (e.g. by a remap) or dissolved
            next();
            return;
        }
        const bool isParity = sit->second.hasParity &&
                              key(sit->second.parity) == key(job.at);
        const obs::SpanId span = obs::trace().beginSpan(
            obsTrack_, lblRebuild_, curTick(), obs::currentCtx(),
            job.stripe);
        rebuildUnit(job.stripe, job.at, cfg_.scratchSlot + 1,
                    [this, job, isParity, span, idle,
                     next = std::move(next)](
                        bool ok, std::vector<std::uint8_t> d) {
            obs::trace().endSpan(span, curTick());
            if (ok) {
                ++rebuildsOk_;
                if (isParity)
                    parityLost(job.stripe, d);
                else
                    patchOut(job.stripe, job.at, d);
            } else {
                ++rebuildsFailed_;
                warn("%s: cannot patch dead unit out of stripe %llu "
                     "(double fault); members keep degraded cover",
                     name().c_str(),
                     static_cast<unsigned long long>(job.stripe));
            }
            idle();
            next();
        });
        return;
    }

    auto mp = ftl_.mappedPpa(job.lpn);
    if (!mp || !ftl_.chipDead(mp->chip)) {
        idle(); // moved to a healthy chip already (or unmapped)
        next();
        return;
    }
    const ftl::Ppa at = *mp;
    auto uit = unitAt_.find(key(at));
    if (uit == unitAt_.end()) {
        ++rebuildsFailed_;
        warn("%s: LPN %llu stranded on dead chip %u with no stripe; "
             "unrecoverable", name().c_str(),
             static_cast<unsigned long long>(job.lpn), at.chip);
        idle();
        next();
        return;
    }
    const std::uint64_t stripe = uit->second;
    const obs::SpanId span = obs::trace().beginSpan(
        obsTrack_, lblRebuild_, curTick(), obs::currentCtx(), job.lpn);
    rebuildUnit(stripe, at, cfg_.scratchSlot + 1,
                [this, job, at, stripe, span, idle,
                 next = std::move(next)](bool ok,
                                         std::vector<std::uint8_t> d) {
        obs::trace().endSpan(span, curTick());
        if (!ok) {
            ++rebuildsFailed_;
            idle();
            next();
            return;
        }
        ++rebuildsOk_;
        const std::uint64_t addr =
            ftl_.reliabilityScratchAddr(cfg_.scratchSlot + 2);
        ftl_.backend().backendDram().write(addr, d);
        ftl_.rewritePage(job.lpn, at, addr,
                         [this, at, stripe, d, idle](bool ok2) {
            if (ok2)
                patchOut(stripe, at, d); // the dead copy leaves its stripe
            idle();
        });
        next(); // free the queue; the write completes in background
    });
}

} // namespace babol::reliability
