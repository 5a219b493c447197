#include "bus.hh"

#include <memory>

#include "obs/audit/auditor.hh"

namespace babol::chan {

ChannelBus::ChannelBus(EventQueue &eq, const std::string &name,
                       const nand::TimingParams &timing,
                       std::uint32_t rate_mt,
                       obs::power::PowerModel *power)
    : SimObject(eq, name), phy_(timing, rate_mt), trace_(name),
      power_(power, eq, name, {"cmd", "xfer"},
             obs::power::modelOf(power).params().busIdleMw)
{}

std::uint32_t
ChannelBus::attach(nand::Package *pkg)
{
    babol_assert(packages_.size() < 32, "too many packages on one channel");
    packages_.push_back(pkg);
    skew_.push_back(0);
    adjust_.push_back(0);
    return static_cast<std::uint32_t>(packages_.size() - 1);
}

nand::Package &
ChannelBus::package(std::uint32_t i)
{
    babol_assert(i < packages_.size(), "package index %u out of range", i);
    return *packages_[i];
}

void
ChannelBus::setPhaseSkew(std::uint32_t pkg, Tick skew_ps)
{
    babol_assert(pkg < skew_.size(), "package index out of range");
    skew_[pkg] = skew_ps;
}

Tick
ChannelBus::phaseSkew(std::uint32_t pkg) const
{
    babol_assert(pkg < skew_.size(), "package index out of range");
    return skew_[pkg];
}

void
ChannelBus::setPhaseAdjust(std::uint32_t pkg, Tick adjust_ps)
{
    babol_assert(pkg < adjust_.size(), "package index out of range");
    adjust_[pkg] = adjust_ps;
}

Tick
ChannelBus::phaseAdjust(std::uint32_t pkg) const
{
    babol_assert(pkg < adjust_.size(), "package index out of range");
    return adjust_[pkg];
}

bool
ChannelBus::phaseOk(std::uint32_t pkg) const
{
    Tick delta = skew_[pkg] > adjust_[pkg] ? skew_[pkg] - adjust_[pkg]
                                           : adjust_[pkg] - skew_[pkg];
    return delta <= phy_.phaseWindow();
}

void
ChannelBus::checkModeMatch(std::uint32_t ce_mask) const
{
    forEachSelected(ce_mask, [this](const nand::Package &pkg) {
        if (pkg.dataInterface() != phy_.mode()) {
            panic("%s: PHY is in %s but %s is configured for %s "
                  "(bring-up/SET FEATURES mismatch)",
                  name().c_str(), nand::toString(phy_.mode()),
                  pkg.name().c_str(),
                  nand::toString(pkg.dataInterface()));
        }
        if (phy_.mode() == nand::DataInterface::Nvddr2 &&
            pkg.transferMT() != phy_.rateMT()) {
            panic("%s: PHY runs at %u MT/s but %s is configured for "
                  "%u MT/s",
                  name().c_str(), phy_.rateMT(), pkg.name().c_str(),
                  pkg.transferMT());
        }
    });
}

void
ChannelBus::issue(Segment seg, std::function<void(SegmentResult)> done)
{
    auto &aud = obs::audit::auditor();
    const bool auditing = aud.armed();

    if (busy()) {
        if (auditing) {
            aud.report(obs::audit::Check::Channel, "chan.double-drive",
                       name(), curTick(),
                       strfmt("segment '%s' issued while bus busy until "
                              "%.3f us (transaction atomicity violated)",
                              seg.label.c_str(), ticks::toUs(busyUntil_)));
        } else {
            panic("%s: segment '%s' issued while bus busy until %.3f us "
                  "(double-drive — transaction atomicity violated)",
                  name().c_str(), seg.label.c_str(),
                  ticks::toUs(busyUntil_));
        }
    }

    const Tick start = curTick();
    Tick offset = phy_.ceSetup();
    Tick latchTicks = 0; //!< command + address latch cycles (power)
    Tick burstTicks = 0; //!< data-burst occupancy (power)
    auto result = std::make_shared<SegmentResult>();

    obs::audit::SegmentView view;
    if (auditing) {
        view.channel = name();
        view.label = seg.label;
        view.ceMask = seg.ceMask;
        view.timing = &phy_.timing();
        view.cycles.reserve(seg.items.size());
    }

    // Event closures capture only the CE mask (not the whole Segment) so
    // every per-cycle callback stays on the kernel's inline path.
    const std::uint32_t mask = seg.ceMask;

    // Span of this segment, minted before the record is written so the
    // command-latch callbacks (which start LUN array ops) can adopt it
    // as their ambient context; falls back to the op span when only the
    // op layers are tracing.
    const obs::SpanId seg_span = trace_.reserveSpan();
    const obs::SpanId ctx =
        seg_span != obs::kNoSpan ? seg_span : seg.ctx.span;

    for (const SegmentItem &item : seg.items) {
        offset += item.preDelay;
        switch (item.type) {
          case nand::CycleType::CmdLatch:
            for (std::uint8_t cmd : item.out) {
                if (auditing) {
                    obs::audit::CycleView c;
                    c.type = nand::CycleType::CmdLatch;
                    c.value = cmd;
                    c.start = start + offset;
                    c.end = c.dataEnd = c.start + phy_.commandCycle();
                    view.cycles.push_back(c);
                }
                offset += phy_.commandCycle();
                latchTicks += phy_.commandCycle();
                eq_.schedule(start + offset, [this, mask, cmd, ctx] {
                    obs::Hub::ScopedCtx scope(ctx);
                    forEachSelected(mask, [cmd](nand::Package &pkg) {
                        pkg.commandLatch(cmd);
                    });
                }, "cmd latch");
            }
            break;
          case nand::CycleType::AddrLatch:
            for (std::uint8_t byte : item.out) {
                if (auditing) {
                    obs::audit::CycleView c;
                    c.type = nand::CycleType::AddrLatch;
                    c.value = byte;
                    c.start = start + offset;
                    c.end = c.dataEnd = c.start + phy_.addressCycle();
                    view.cycles.push_back(c);
                }
                offset += phy_.addressCycle();
                latchTicks += phy_.addressCycle();
                eq_.schedule(start + offset, [this, mask, byte, ctx] {
                    obs::Hub::ScopedCtx scope(ctx);
                    forEachSelected(mask, [byte](nand::Package &pkg) {
                        pkg.addressLatch(byte);
                    });
                }, "addr latch");
            }
            break;
          case nand::CycleType::DataIn: {
            const Tick burst_start = start + offset;
            const Tick dur = phy_.dataBurst(item.out.size());
            offset += dur;
            burstTicks += dur;
            dataBytesIn_ += item.out.size();
            if (auditing) {
                obs::audit::CycleView c;
                c.type = nand::CycleType::DataIn;
                c.bytes = static_cast<std::uint32_t>(item.out.size());
                c.start = burst_start;
                c.end = c.dataEnd = burst_start + dur;
                view.cycles.push_back(c);
            }
            auto bytes = std::make_shared<std::vector<std::uint8_t>>(
                item.out);
            eq_.schedule(burst_start, [this, mask] {
                checkModeMatch(mask);
            }, "data-in mode check");
            eq_.schedule(burst_start + dur,
                         [this, mask, bytes, burst_start, ctx] {
                obs::Hub::ScopedCtx scope(ctx);
                forEachSelected(mask, [&](nand::Package &pkg) {
                    pkg.dataIn(*bytes, burst_start);
                });
            }, "data-in burst");
            break;
          }
          case nand::CycleType::DataOut: {
            const Tick burst_start = start + offset;
            const Tick dur = phy_.dataBurst(item.inCount);
            offset += dur;
            burstTicks += dur;
            dataBytesOut_ += item.inCount;
            if (auditing) {
                obs::audit::CycleView c;
                c.type = nand::CycleType::DataOut;
                c.bytes = item.inCount;
                c.start = burst_start;
                c.end = burst_start + dur;
                c.dataEnd = c.end - phy_.burstPostamble();
                view.cycles.push_back(c);
            }
            const std::uint32_t count = item.inCount;
            eq_.schedule(burst_start, [this, mask, result, count,
                                       burst_start, ctx] {
                obs::Hub::ScopedCtx scope(ctx);
                checkModeMatch(mask);
                const std::uint32_t sel = attachedBits(mask);
                const int chips = std::popcount(sel);
                if (chips != 1) {
                    auto &a = obs::audit::auditor();
                    if (a.armed()) {
                        a.report(obs::audit::Check::Channel,
                                 "chan.ce-overlap", name(), curTick(),
                                 strfmt("data-out with %d chips enabled "
                                        "(ceMask 0x%x)",
                                        chips, mask));
                    } else {
                        panic("%s: data-out with %d chips enabled "
                              "(ceMask 0x%x)",
                              name().c_str(), chips, mask);
                    }
                    if (chips == 0) {
                        // Nothing drives DQ: the capture reads back 0s.
                        result->dataOut.resize(result->dataOut.size() +
                                               count);
                        return;
                    }
                }
                std::size_t base = result->dataOut.size();
                result->dataOut.resize(base + count);
                std::span<std::uint8_t> dst(result->dataOut.data() + base,
                                            count);
                packages_[std::countr_zero(sel)]->dataOut(dst,
                                                          burst_start);

                // Mis-calibrated sampling phase corrupts the capture
                // (judged by the highest enabled package).
                if (!phaseOk(static_cast<std::uint32_t>(
                        std::bit_width(sel) - 1))) {
                    for (std::size_t i = 0; i < dst.size(); i += 2)
                        dst[i] ^= 0xFF;
                }
            }, "data-out burst");
            break;
          }
        }
    }

    offset += seg.postDelay;
    busyUntil_ = start + offset;
    busyTicks_ += offset;
    ++segmentsIssued_;

    if (power_.enabled()) {
        // Latch cycles and data bursts at the rate the PHY is actually
        // driving; CE setup and quiet guard delays inside the segment
        // are occupancy without switching activity, so they charge
        // nothing beyond the cycles counted here.
        const obs::power::PowerParams &p = power_.params();
        const bool ddr = phy_.mode() == nand::DataInterface::Nvddr2;
        const std::uint64_t cmdFj = latchTicks * p.busCmdMw;
        const std::uint64_t xferFj =
            burstTicks * p.busXferMw(ddr, phy_.rateMT());
        power_.chargeEnergy(0, cmdFj);
        power_.chargeEnergy(1, xferFj);
        power_.noteActive(start, busyUntil_, cmdFj + xferFj);
    }

    trace_.record(start, busyUntil_, seg.ceMask, seg.label, seg.ctx.span,
                  seg_span);

    if (auditing) {
        view.start = start;
        view.end = busyUntil_;
        view.span = seg_span;
        view.parent = seg.ctx.span;
        aud.tapSegment(view);
    }

    eq_.schedule(busyUntil_, [result, done = std::move(done)] {
        done(std::move(*result));
    }, "segment complete");
}

} // namespace babol::chan
