#include "lun.hh"

#include <algorithm>
#include <set>

#include "fault/fault_engine.hh"
#include "obs/audit/auditor.hh"
#include "param_page.hh"

namespace babol::nand {

fault::FaultEngine &
Lun::faults() const
{
    return fault::engineOf(cfg_.faults);
}

const char *
toString(ArrayOp op)
{
    switch (op) {
      case ArrayOp::None:
        return "None";
      case ArrayOp::Read:
        return "Read";
      case ArrayOp::Program:
        return "Program";
      case ArrayOp::Erase:
        return "Erase";
      case ArrayOp::Reset:
        return "Reset";
      case ArrayOp::SetFeatures:
        return "SetFeatures";
      case ArrayOp::GetFeatures:
        return "GetFeatures";
      case ArrayOp::ParamPage:
        return "ParamPage";
    }
    return "?";
}

Lun::Lun(EventQueue &eq, const std::string &name, const PackageConfig &cfg,
         std::uint32_t lun_index, std::uint64_t seed)
    : SimObject(eq, name),
      cfg_(cfg),
      lunIndex_(lun_index),
      array_(cfg.geometry, seed),
      rng_(seed ^ 0x9e3779b97f4a7c15ULL),
      planes_(cfg.geometry.planesPerLun),
      power_(cfg.power, eq, name, {"read", "program", "erase", "misc"},
             obs::power::modelOf(cfg.power).params().lunIdleMw),
      metrics_(obs::metrics(), name)
{
    obsTrack_ = obs::interner().intern(name);
    for (std::size_t i = 0; i < busyLabel_.size(); ++i) {
        busyLabel_[i] = obs::interner().intern(
            strfmt("busy.%s", toString(static_cast<ArrayOp>(i))));
    }
    metrics_.value("reads", [this] { return completedReads_; });
    metrics_.value("programs", [this] { return completedPrograms_; });
    metrics_.value("erases", [this] { return completedErases_; });

    for (Plane &pl : planes_) {
        pl.cacheReg.assign(cfg_.geometry.pageTotalBytes(), 0xFF);
        pl.dataReg.assign(cfg_.geometry.pageTotalBytes(), 0xFF);
    }

    idJedec_ = {cfg_.jedecManufacturer, cfg_.jedecDevice,
                static_cast<std::uint8_t>(cfg_.geometry.lunsPerPackage),
                static_cast<std::uint8_t>(cfg_.geometry.planesPerLun), 0x00};
    idOnfi_ = {'O', 'N', 'F', 'I'};
    uniqueId_.assign(16, 0);
    for (std::size_t i = 0; i < uniqueId_.size(); ++i)
        uniqueId_[i] = static_cast<std::uint8_t>(rng_.uniform(0, 255));
    paramPage_ = encodeParamPage(cfg_);
    // ONFI mandates at least three identical copies of the page.
    std::vector<std::uint8_t> one = paramPage_;
    paramPage_.insert(paramPage_.end(), one.begin(), one.end());
    paramPage_.insert(paramPage_.end(), one.begin(), one.end());
}

std::uint8_t
Lun::statusByte() const
{
    std::uint8_t s = status::kWp;
    if (rdy_)
        s |= status::kRdy;
    if (ardy_)
        s |= status::kArdy;
    if (suspended_)
        s |= status::kCsp;
    if (failBit_)
        s |= status::kFail;
    if (failCBit_)
        s |= status::kFailC;
    return s;
}

const std::vector<std::uint32_t> &
Lun::cacheRegisterFlips() const
{
    return planes_[selectedPlane_].cacheFlips;
}

bool
Lun::outputActive() const
{
    return (statusMode_ || output_ != Output::None) && addressedToMe();
}

// ---------------------------------------------------------------------
// Command decode
// ---------------------------------------------------------------------

void
Lun::violation(const char *rule, std::string msg) const
{
    // A violation provoked by an injected fault (e.g. a command landing
    // on a LUN held busy past its datasheet time by a stuck-busy
    // injection) is expected fallout, not a conformance bug: tag it so
    // it never double-reports as a failure.
    bool suppressed = faults().suppresses(name(), curTick());
    auto &aud = obs::audit::auditor();
    if (aud.armed()) {
        aud.report(obs::audit::Check::LunProtocol, rule, name(), curTick(),
                   std::move(msg), suppressed);
        return;
    }
    if (suppressed) {
        warn("%s: %s (fault-expected, suppressed)", name().c_str(),
             msg.c_str());
        return;
    }
    panic("%s: %s", name().c_str(), msg.c_str());
}

void
Lun::auditOpFloor(const char *rule, Tick dur, Tick floor) const
{
    auto &aud = obs::audit::auditor();
    if (!aud.armed() || dur >= floor)
        return;
    aud.report(obs::audit::Check::AcTiming, rule, name(), curTick(),
               strfmt("array op scheduled to complete in %.1f us, below "
                      "the %.1f us floor",
                      ticks::toUs(dur), ticks::toUs(floor)));
}

void
Lun::requireIdleFor(std::uint8_t cmd) const
{
    // On a single-LUN package any non-status command to a busy die is a
    // controller bug. With several dies behind one CE, a busy die also
    // observes its siblings' dialogs and must track (but ignore) them —
    // an operation that ultimately *addresses* the busy die is still
    // caught in startArrayOp.
    if (!rdy_ && cfg_.geometry.lunsPerPackage == 1) {
        violation("lun.busy",
                  strfmt("command 0x%02x latched while LUN busy (%s)", cmd,
                         toString(busyOp_)));
    }
}

void
Lun::commandLatch(std::uint8_t cmd)
{
    using namespace opcode;

    // Any command latch ends the READ STATUS output overlay; the status
    // commands below re-arm it.
    statusMode_ = false;

    // Commands that are legal regardless of the busy state.
    switch (cmd) {
      case kReadStatus:
        if (cfg_.geometry.lunsPerPackage > 1) {
            panic("%s: READ STATUS (70h) is ambiguous on multi-LUN "
                  "packages; use READ STATUS ENHANCED (78h)",
                  name().c_str());
        }
        statusMode_ = true;
        decode_ = Decode::Idle;
        guardStatusOutAt(curTick() + cfg_.timing.tWhr);
        return;
      case kReadStatusEnhanced:
        decode_ = Decode::StatusEnhAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.rowAddressBytes();
        return;
      case kReset:
      case kSynchronousReset:
        busyEvent_.cancel();
        bgEvent_.cancel();
        completion_ = nullptr;
        bgCompletion_ = nullptr;
        suspended_ = false;
        failBit_ = false;
        failCBit_ = false;
        decode_ = Decode::Idle;
        output_ = Output::None;
        multiPlaneReadQueue_.clear();
        multiPlaneProgramQueue_.clear();
        eraseQueue_.clear();
        cacheNextRow_.reset();
        for (Plane &pl : planes_) {
            pl.cacheValid = false;
            pl.dataValid = false;
        }
        rdy_ = false;
        ardy_ = false;
        busyOp_ = ArrayOp::Reset;
        opStart_ = curTick();
        opParent_ = obs::currentCtx();
        busyUntil_ = curTick() + cfg_.timing.tRst;
        busyEvent_ = scheduleIn(cfg_.timing.tRst,
                                [this] { completeArrayOp(); }, "lun reset");
        completion_ = [] {};
        return;
      case kVendorSuspend:
        handleSuspend();
        return;
      default:
        break;
    }

    if (!rdy_)
        requireIdleFor(cmd);

    switch (decode_) {
      case Decode::Idle:
        latchWhileIdle(cmd);
        break;
      case Decode::ReadConfirm:
        confirmRead(cmd);
        break;
      case Decode::ChangeColConfirm:
        if (cmd != kChangeReadCol2) {
            panic("%s: expected E0h to confirm column change, got 0x%02x",
                  name().c_str(), cmd);
        }
        output_ = Output::Register;
        decode_ = Decode::Idle;
        guardDataOutAt(curTick() + cfg_.timing.tCcs);
        break;
      case Decode::ProgramData:
        finishProgramPhase(cmd);
        break;
      case Decode::EraseConfirm:
        confirmErase(cmd);
        break;
      default:
        panic("%s: unexpected command 0x%02x mid-address-phase",
              name().c_str(), cmd);
    }
}

void
Lun::latchWhileIdle(std::uint8_t cmd)
{
    using namespace opcode;

    switch (cmd) {
      case kRead1:
        // Either the first cycle of a READ, or — if a data-out burst
        // follows with no address — the output re-enable after a status
        // poll (resolved in dataOut()). The previous output source is
        // deliberately preserved for the latter case.
        decode_ = Decode::ReadAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.colAddressBytes() +
                             cfg_.geometry.rowAddressBytes();
        break;
      case kChangeReadCol1:
        decode_ = Decode::ChangeColAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.colAddressBytes();
        break;
      case kChangeReadColEnh:
        decode_ = Decode::ChangeColEnhAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.colAddressBytes() +
                             cfg_.geometry.rowAddressBytes();
        break;
      case kProgram1:
        decode_ = Decode::ProgramAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.colAddressBytes() +
                             cfg_.geometry.rowAddressBytes();
        failBit_ = false;
        break;
      case kErase1:
        decode_ = Decode::EraseAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.rowAddressBytes();
        failBit_ = false;
        break;
      case kReadCacheSeq:
        // Sequential cache read: pre-read the next page while streaming
        // the current one.
        if (!addressedToMe())
            break;
        if (!planes_[selectedPlane_].dataValid && !cacheReadArmed_) {
            panic("%s: READ CACHE (31h) with no prior page read",
                  name().c_str());
        }
        {
            // The page that will occupy the data register once any
            // in-flight pre-read lands; the new pre-read targets the page
            // after it.
            RowAddress next = cacheNextRow_.value_or(
                planes_[selectedPlane_].dataRow);
            ++next.page;
            if (next.page >= cfg_.geometry.pagesPerBlock) {
                panic("%s: sequential cache read past end of block",
                      name().c_str());
            }
            startCacheTurn(next);
        }
        break;
      case kReadCacheEnd:
        if (!addressedToMe())
            break;
        startCacheTurn(std::nullopt);
        break;
      case kReadId:
        decode_ = Decode::IdAddr;
        addrBytes_.clear();
        addrBytesExpected_ = 1;
        break;
      case kReadParamPage:
      case kReadUniqueId:
        pendingCmd_ = cmd;
        decode_ = Decode::ParamAddr;
        addrBytes_.clear();
        addrBytesExpected_ = 1;
        break;
      case kSetFeatures:
      case kGetFeatures:
        pendingCmd_ = cmd;
        decode_ = Decode::FeatAddr;
        addrBytes_.clear();
        addrBytesExpected_ = 1;
        break;
      case kVendorSlcPrefix:
        if (!cfg_.supportsPslc) {
            panic("%s: pSLC prefix (A2h) unsupported by %s", name().c_str(),
                  cfg_.partName.c_str());
        }
        slcPrefixArmed_ = true;
        break;
      case kVendorResume:
        handleResume();
        break;
      default:
        panic("%s: unknown/unsupported command 0x%02x", name().c_str(),
              cmd);
    }
}

void
Lun::addressLatch(std::uint8_t byte)
{
    if (decode_ == Decode::Idle) {
        panic("%s: address cycle 0x%02x with no command context",
              name().c_str(), byte);
    }
    addrBytes_.push_back(byte);
    if (addrBytes_.size() == addrBytesExpected_)
        completeAddressPhase();
}

void
Lun::completeAddressPhase()
{
    const Geometry &geo = cfg_.geometry;
    const std::uint32_t col_bytes = geo.colAddressBytes();

    auto split_col_row = [&](std::uint32_t *col, RowAddress *row) {
        std::vector<std::uint8_t> col_part(addrBytes_.begin(),
                                           addrBytes_.begin() + col_bytes);
        std::vector<std::uint8_t> row_part(addrBytes_.begin() + col_bytes,
                                           addrBytes_.end());
        *col = decodeColumn(geo, col_part);
        *row = decodeRow(geo, row_part);
    };

    switch (decode_) {
      case Decode::ReadAddr: {
        split_col_row(&pendingColumn_, &pendingRow_);
        addressedLun_ = pendingRow_.lun;
        decode_ = Decode::ReadConfirm;
        break;
      }
      case Decode::ChangeColAddr:
        column_ = decodeColumn(geo, addrBytes_);
        decode_ = Decode::ChangeColConfirm;
        break;
      case Decode::ChangeColEnhAddr: {
        std::uint32_t col = 0;
        RowAddress row;
        split_col_row(&col, &row);
        addressedLun_ = row.lun;
        if (addressedToMe()) {
            column_ = col;
            selectedPlane_ = row.plane(geo);
        }
        decode_ = Decode::ChangeColConfirm;
        break;
      }
      case Decode::ProgramAddr: {
        split_col_row(&pendingColumn_, &pendingRow_);
        addressedLun_ = pendingRow_.lun;
        if (addressedToMe()) {
            selectedPlane_ = pendingRow_.plane(geo);
            column_ = pendingColumn_;
            Plane &pl = selectedPlane();
            pl.cacheReg.assign(geo.pageTotalBytes(), 0xFF);
            pl.cacheValid = false;
        }
        decode_ = Decode::ProgramData;
        guardDataInAt(curTick() + cfg_.timing.tAdl);
        break;
      }
      case Decode::ChangeWriteColAddr:
        if (addressedToMe())
            column_ = decodeColumn(geo, addrBytes_);
        decode_ = Decode::ProgramData;
        guardDataInAt(curTick() + cfg_.timing.tCcs);
        break;
      case Decode::EraseAddr: {
        RowAddress row = decodeRow(geo, addrBytes_);
        addressedLun_ = row.lun;
        pendingRow_ = row;
        decode_ = Decode::EraseConfirm;
        break;
      }
      case Decode::FeatAddr:
        featureAddr_ = addrBytes_[0];
        if (pendingCmd_ == opcode::kSetFeatures) {
            decode_ = Decode::FeatDataIn;
            featureBytesSeen_ = 0;
            guardDataInAt(curTick() + cfg_.timing.tAdl);
        } else {
            // GET FEATURES: array fetches the parameters, then streams
            // them out.
            decode_ = Decode::Idle;
            switch (featureAddr_) {
              case feature::kTimingMode: {
                std::uint8_t p1 = 0x00;
                if (dataInterface_ == DataInterface::Nvddr2)
                    p1 = static_cast<std::uint8_t>(
                        0x20 | (transferMT_ >= 200 ? 1 : 0));
                featureData_ = {p1, 0, 0, 0};
                break;
              }
              case feature::kOutputDrive:
                featureData_ = outputDrive_;
                break;
              case feature::kVendorReadRetry:
                featureData_ = {static_cast<std::uint8_t>(retryLevel_), 0,
                                0, 0};
                break;
              default:
                featureData_ = {0, 0, 0, 0};
                break;
            }
            startArrayOp(ArrayOp::GetFeatures, cfg_.timing.tFeat, [this] {
                output_ = Output::Features;
                idReadOffset_ = 0;
                guardDataOutAt(curTick() + cfg_.timing.tRr);
            });
        }
        break;
      case Decode::IdAddr:
        decode_ = Decode::Idle;
        if (addrBytes_[0] == id_address::kOnfi)
            output_ = Output::Id, idReadOffset_ = 1000; // ONFI signature
        else
            output_ = Output::Id, idReadOffset_ = 0;
        guardDataOutAt(curTick() + cfg_.timing.tWhr);
        break;
      case Decode::ParamAddr:
        decode_ = Decode::Idle;
        if (pendingCmd_ == opcode::kReadParamPage) {
            startArrayOp(ArrayOp::ParamPage, cfg_.timing.tRParam, [this] {
                output_ = Output::ParamPage;
                idReadOffset_ = 0;
                guardDataOutAt(curTick() + cfg_.timing.tRr);
            });
        } else {
            startArrayOp(ArrayOp::ParamPage, cfg_.timing.tRParam, [this] {
                output_ = Output::UniqueId;
                idReadOffset_ = 0;
                guardDataOutAt(curTick() + cfg_.timing.tRr);
            });
        }
        break;
      case Decode::StatusEnhAddr: {
        RowAddress row = decodeRow(geo, addrBytes_);
        addressedLun_ = row.lun;
        decode_ = Decode::Idle;
        if (addressedToMe()) {
            selectedPlane_ = row.plane(geo);
            statusMode_ = true;
            guardStatusOutAt(curTick() + cfg_.timing.tWhr);
        }
        break;
      }
      default:
        panic("%s: address phase completed in unexpected state",
              name().c_str());
    }
    addrBytes_.clear();
}

void
Lun::confirmRead(std::uint8_t cmd)
{
    using namespace opcode;
    switch (cmd) {
      case kRead2: {
        std::vector<RowAddress> rows = std::move(multiPlaneReadQueue_);
        multiPlaneReadQueue_.clear();
        rows.push_back(pendingRow_);
        decode_ = Decode::Idle;
        startRead(std::move(rows));
        break;
      }
      case kReadMultiPlane:
        // Queue this plane's read; the final plane uses 30h.
        if (addressedToMe())
            multiPlaneReadQueue_.push_back(pendingRow_);
        decode_ = Decode::Idle;
        break;
      case kReadCacheSeq:
        // Random cache read: 00h-addr-31h pre-reads the addressed page.
        decode_ = Decode::Idle;
        if (addressedToMe())
            startCacheTurn(pendingRow_);
        break;
      default:
        panic("%s: expected read confirm (30h/31h/32h), got 0x%02x",
              name().c_str(), cmd);
    }
}

void
Lun::confirmErase(std::uint8_t cmd)
{
    using namespace opcode;
    switch (cmd) {
      case kErase1:
        // Multi-plane erase: queue and collect another row address.
        if (addressedToMe())
            eraseQueue_.push_back(pendingRow_.block);
        decode_ = Decode::EraseAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.rowAddressBytes();
        break;
      case kErase2:
        if (addressedToMe())
            eraseQueue_.push_back(pendingRow_.block);
        decode_ = Decode::Idle;
        startErase();
        break;
      default:
        panic("%s: expected erase confirm (60h/D0h), got 0x%02x",
              name().c_str(), cmd);
    }
}

void
Lun::finishProgramPhase(std::uint8_t cmd)
{
    using namespace opcode;
    switch (cmd) {
      case kProgram2:
        decode_ = Decode::Idle;
        startProgram(false);
        break;
      case kProgramCache:
        decode_ = Decode::Idle;
        startProgram(true);
        break;
      case kProgramMultiPlane:
        // Queue this plane's program; data already sits in its register.
        if (addressedToMe())
            multiPlaneProgramQueue_.push_back(pendingRow_);
        decode_ = Decode::Idle;
        break;
      case kChangeWriteCol:
        decode_ = Decode::ChangeWriteColAddr;
        addrBytes_.clear();
        addrBytesExpected_ = cfg_.geometry.colAddressBytes();
        break;
      default:
        panic("%s: expected program confirm (10h/15h/11h/85h), got 0x%02x",
              name().c_str(), cmd);
    }
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

void
Lun::dataIn(std::span<const std::uint8_t> bytes, Tick burst_start)
{
    if (burst_start < earliestDataIn_) {
        violation("onfi.tADL",
                  strfmt("data-in burst starts %.1f ns early (tADL/tCCS "
                         "violation)",
                         ticks::toNs(earliestDataIn_ - burst_start)));
    }

    if (decode_ == Decode::FeatDataIn) {
        for (std::uint8_t b : bytes) {
            if (featureBytesSeen_ < featureData_.size())
                featureData_[featureBytesSeen_] = b;
            ++featureBytesSeen_;
        }
        if (featureBytesSeen_ >= 4) {
            decode_ = Decode::Idle;
            startArrayOp(ArrayOp::SetFeatures, cfg_.timing.tFeat, [this] {
                switch (featureAddr_) {
                  case feature::kTimingMode: {
                    std::uint8_t p1 = featureData_[0];
                    if ((p1 & 0xF0) == 0x20) {
                        dataInterface_ = DataInterface::Nvddr2;
                        transferMT_ = (p1 & 0x0F) ? 200 : 100;
                    } else {
                        dataInterface_ = DataInterface::Sdr;
                        transferMT_ = 0;
                    }
                    break;
                  }
                  case feature::kOutputDrive:
                    outputDrive_ = featureData_;
                    break;
                  case feature::kVendorReadRetry:
                    retryLevel_ = std::min<std::uint32_t>(
                        featureData_[0],
                        cfg_.readRetryLevels ? cfg_.readRetryLevels - 1 : 0);
                    break;
                  default:
                    warn("%s: SET FEATURES to unknown address 0x%02x",
                         name().c_str(), featureAddr_);
                    break;
                }
            });
        }
        return;
    }

    if (decode_ == Decode::ProgramData) {
        if (!addressedToMe())
            return;
        Plane &pl = selectedPlane();
        if (column_ + bytes.size() > pl.cacheReg.size()) {
            panic("%s: program data overruns page register (col %u + %zu)",
                  name().c_str(), column_, bytes.size());
        }
        std::copy(bytes.begin(), bytes.end(),
                  pl.cacheReg.begin() + column_);
        column_ += static_cast<std::uint32_t>(bytes.size());
        return;
    }

    panic("%s: unexpected data-in burst (decode state %d)", name().c_str(),
          static_cast<int>(decode_));
}

void
Lun::dataOut(std::span<std::uint8_t> out, Tick burst_start)
{
    // The READ STATUS overlay serves every byte from the status
    // register; it has its own (tWHR) guard so that polls overlapping an
    // array-op completion are not judged by the data-path guards.
    if (statusMode_) {
        if (burst_start < earliestStatusOut_) {
            violation("onfi.tWHR",
                      strfmt("status output starts %.1f ns early (tWHR "
                             "violation)",
                             ticks::toNs(earliestStatusOut_ - burst_start)));
        }
        std::fill(out.begin(), out.end(), statusByte());
        return;
    }

    if (burst_start < earliestDataOut_) {
        violation("onfi.tWHR",
                  strfmt("data-out burst starts %.1f ns early (tWHR/tCCS "
                         "violation)",
                         ticks::toNs(earliestDataOut_ - burst_start)));
    }
    if (output_ == Output::Register && burst_start < registerReadyAt_) {
        violation("onfi.tRR",
                  strfmt("register read starts %.1f ns before tRR elapsed",
                         ticks::toNs(registerReadyAt_ - burst_start)));
    }

    // 00h with no address re-enables the previous output source after a
    // status poll.
    if (decode_ == Decode::ReadAddr && addrBytes_.empty())
        decode_ = Decode::Idle;

    switch (output_) {
      case Output::Id: {
        const std::vector<std::uint8_t> &src =
            idReadOffset_ >= 1000 ? idOnfi_ : idJedec_;
        std::uint32_t off = idReadOffset_ >= 1000 ? idReadOffset_ - 1000
                                                  : idReadOffset_;
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = off + i < src.size() ? src[off + i] : 0x00;
        idReadOffset_ += static_cast<std::uint32_t>(out.size());
        return;
      }
      case Output::ParamPage:
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = idReadOffset_ + i < paramPage_.size()
                         ? paramPage_[idReadOffset_ + i]
                         : 0x00;
        }
        idReadOffset_ += static_cast<std::uint32_t>(out.size());
        return;
      case Output::UniqueId:
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = idReadOffset_ + i < uniqueId_.size()
                         ? uniqueId_[idReadOffset_ + i]
                         : 0x00;
        idReadOffset_ += static_cast<std::uint32_t>(out.size());
        return;
      case Output::Features:
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = i < featureData_.size() ? featureData_[i] : 0x00;
        return;
      case Output::Register: {
        if (!addressedToMe()) {
            panic("%s: data-out while another LUN is addressed",
                  name().c_str());
        }
        Plane &pl = selectedPlane();
        if (!pl.cacheValid) {
            panic("%s: data-out from invalid cache register",
                  name().c_str());
        }
        if (column_ + out.size() > pl.cacheReg.size()) {
            panic("%s: data-out overruns page (col %u + %zu > %zu)",
                  name().c_str(), column_, out.size(), pl.cacheReg.size());
        }
        std::copy(pl.cacheReg.begin() + column_,
                  pl.cacheReg.begin() + column_ + out.size(), out.begin());
        column_ += static_cast<std::uint32_t>(out.size());
        return;
      }
      case Output::None:
        break;
    }
    panic("%s: data-out burst with nothing to output", name().c_str());
}

// ---------------------------------------------------------------------
// Array operations
// ---------------------------------------------------------------------

void
Lun::startArrayOp(ArrayOp op, Tick duration, std::function<void()> done)
{
    if (!rdy_) {
        violation("lun.busy",
                  strfmt("%s addressed to a busy LUN (still %s)",
                         toString(op), toString(busyOp_)));
        // In collector mode the new op is dropped: the die is still
        // working and its busy bookkeeping must not be clobbered.
        return;
    }
    if (auto &eng = faults(); eng.armed()) {
        // Stuck-busy injection: the array overruns its datasheet time.
        // Applied after the floor audits so only upper-bound watchers
        // (the controllers' op timeouts) see the overrun.
        fault::OpClass cls = fault::OpClass::Other;
        switch (op) {
          case ArrayOp::Read:
            cls = fault::OpClass::Read;
            break;
          case ArrayOp::Program:
            cls = fault::OpClass::Program;
            break;
          case ArrayOp::Erase:
            cls = fault::OpClass::Erase;
            break;
          default:
            break;
        }
        duration += eng.onArrayOp(name(), cls, duration, curTick());
    }
    rdy_ = false;
    ardy_ = false;
    busyOp_ = op;
    busyUntil_ = curTick() + duration;
    completion_ = std::move(done);
    // The confirm command latch that started this op runs under the
    // issuing segment's ambient span (set by the bus); adopt it as the
    // busy period's parent.
    opStart_ = curTick();
    opParent_ = obs::currentCtx();
    busyEvent_ =
        scheduleIn(duration, [this] { completeArrayOp(); }, "lun array op");
}

void
Lun::chargeArray(ArrayOp op, Tick t0, Tick t1)
{
    if (!power_.enabled() || op == ArrayOp::None)
        return;
    const obs::power::PowerParams &p = power_.params();
    std::size_t slot;
    std::uint64_t mw;
    switch (op) {
      case ArrayOp::Read:
        slot = 0;
        mw = p.lunReadMw;
        break;
      case ArrayOp::Program:
        slot = 1;
        mw = p.lunProgramMw;
        break;
      case ArrayOp::Erase:
        slot = 2;
        mw = p.lunEraseMw;
        break;
      default:
        slot = 3;
        mw = p.lunMiscMw;
        break;
    }
    power_.charge(slot, t0, t1, mw);
}

void
Lun::completeArrayOp()
{
    auto &tr = obs::trace();
    if (tr.enabled() && busyOp_ != ArrayOp::None) {
        tr.complete(obsTrack_,
                    busyLabel_[static_cast<std::size_t>(busyOp_)],
                    opStart_, curTick(), opParent_);
    }
    chargeArray(busyOp_, opStart_, curTick());
    rdy_ = true;
    ardy_ = true;
    busyOp_ = ArrayOp::None;
    if (completion_) {
        auto done = std::move(completion_);
        completion_ = nullptr;
        done();
    }
}

void
Lun::powerCut()
{
    busyEvent_.cancel();
    bgEvent_.cancel();
    completion_ = nullptr;
    bgCompletion_ = nullptr;
    suspendedCompletion_ = nullptr;
    for (const RowAddress &row : inflightProgramRows_)
        array_.tearPage(row.block, row.page);
    inflightProgramRows_.clear();
    busyOp_ = ArrayOp::None;
    rdy_ = true;
    ardy_ = true;
    suspended_ = false;
    decode_ = Decode::Idle;
    for (Plane &pl : planes_) {
        pl.cacheValid = false;
        pl.dataValid = false;
    }
}

Tick
Lun::actualReadTime(const RowAddress &row)
{
    double factor = std::clamp(rng_.normal(1.0, cfg_.timing.tRSigma), 0.7,
                               1.5);
    Tick base = cfg_.timing.tR;
    if (array_.isSlcBlock(row.block))
        base = static_cast<Tick>(base * cfg_.timing.slcReadFactor);
    return static_cast<Tick>(base * factor);
}

void
Lun::injectReadFaults(PageLoad &load, std::uint32_t block,
                      std::uint32_t page)
{
    auto &eng = faults();
    if (!eng.armed() || !load.programmed)
        return;
    std::uint32_t extra =
        eng.onRead(name(), block, page, retryLevel_, curTick());
    if (extra != 0) {
        // Concentrate the burst inside the first codeword's data bytes
        // so a capture starting at column 0 is guaranteed to hit it.
        std::uint64_t span_bits =
            std::min<std::uint64_t>(load.data.size(), 1024) * 8;
        std::set<std::uint32_t> picked;
        while (picked.size() < extra && picked.size() < span_bits) {
            picked.insert(static_cast<std::uint32_t>(
                eng.rng().uniform(0, span_bits - 1)));
        }
        for (std::uint32_t bit : picked) {
            load.data[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
            load.flippedBits.push_back(bit);
        }
    }
    if (eng.deadAt(name(), block)) {
        // Dead die/block: the sense amps return junk. One flip every 16
        // bytes drives every ECC codeword far past its capability and
        // breaks every OOB record copy's CRC — no retry level recovers
        // this, only RAIN rebuild does. Deterministic by construction.
        for (std::uint32_t byte = 0; byte < load.data.size();
             byte += 16) {
            load.data[byte] ^= 0x01;
            load.flippedBits.push_back(byte * 8);
        }
    }
}

void
Lun::loadPageIntoPlane(const RowAddress &row)
{
    Plane &pl = planes_[row.plane(cfg_.geometry)];
    bool slc_read = array_.isSlcBlock(row.block);
    PageLoad load = array_.readPage(row.block, row.page, retryLevel_,
                                    slc_read, curTick());
    injectReadFaults(load, row.block, row.page);
    pl.dataReg = std::move(load.data);
    pl.dataFlips = std::move(load.flippedBits);
    pl.dataValid = true;
    pl.dataRow = row;
    // For a plain read the cache register mirrors the data register.
    pl.cacheReg = pl.dataReg;
    pl.cacheFlips = pl.dataFlips;
    pl.cacheValid = true;
}

void
Lun::startRead(std::vector<RowAddress> rows)
{
    if (!addressedToMe()) {
        slcPrefixArmed_ = false;
        return;
    }
    babol_assert(!rows.empty(), "read with no target rows");
    slcOpActive_ = slcPrefixArmed_;
    slcPrefixArmed_ = false;

    Tick dur = 0;
    Tick floor = kMaxTick;
    for (const RowAddress &row : rows) {
        dur = std::max(dur, actualReadTime(row));
        // Lowest value actualReadTime can return for this row (the tR
        // jitter factor is clamped at 0.7).
        Tick base = cfg_.timing.tR;
        if (array_.isSlcBlock(row.block))
            base = static_cast<Tick>(base * cfg_.timing.slcReadFactor);
        floor = std::min(floor, static_cast<Tick>(base * 0.7));
    }
    auditOpFloor("onfi.tR-floor", dur, floor);

    std::uint32_t col = pendingColumn_;
    startArrayOp(ArrayOp::Read, dur, [this, rows, col] {
        for (const RowAddress &row : rows)
            loadPageIntoPlane(row);
        selectedPlane_ = rows.back().plane(cfg_.geometry);
        column_ = col;
        output_ = Output::Register;
        registerReadyAt_ = std::max(registerReadyAt_,
                                    curTick() + cfg_.timing.tRr);
        completedReads_ += rows.size();
        slcOpActive_ = false;
    });
}

void
Lun::startCacheTurn(std::optional<RowAddress> next)
{
    // The cache register turn can only happen after the array finished
    // filling the data register; a turn requested earlier stalls (RDY=0)
    // until then.
    Tick wait = bgUntil_ > curTick() ? bgUntil_ - curTick() : 0;
    Tick dur = wait + cfg_.timing.tCbsyR;

    startArrayOp(ArrayOp::Read, dur, [this, next] {
        // Finish any background pre-read first (its event may be
        // cancelled below, so apply its effect here).
        if (bgCompletion_) {
            auto bg = std::move(bgCompletion_);
            bgCompletion_ = nullptr;
            bgEvent_.cancel();
            bg();
        }
        Plane &pl = selectedPlane();
        babol_assert(pl.dataValid, "cache turn with empty data register");
        pl.cacheReg = pl.dataReg;
        pl.cacheFlips = pl.dataFlips;
        pl.cacheValid = true;
        column_ = 0;
        output_ = Output::Register;
        registerReadyAt_ = std::max(registerReadyAt_,
                                    curTick() + cfg_.timing.tRr);

        if (next) {
            // Kick off the background pre-read of the next page; RDY is
            // already back to 1 while ARDY stays 0 until it lands.
            ardy_ = false;
            cacheNextRow_ = *next;
            cacheReadArmed_ = true;
            Tick tr = actualReadTime(*next);
            bgUntil_ = curTick() + tr;
            // Background sensing: charged when scheduled (duration is
            // already known) so a RESET that cancels the event never
            // loses the energy the array actually spent starting it.
            chargeArray(ArrayOp::Read, curTick(), bgUntil_);
            RowAddress row = *next;
            bgCompletion_ = [this, row] {
                Plane &target = planes_[row.plane(cfg_.geometry)];
                bool slc_read = array_.isSlcBlock(row.block);
                PageLoad load = array_.readPage(row.block, row.page,
                                                retryLevel_, slc_read,
                                                curTick());
                injectReadFaults(load, row.block, row.page);
                target.dataReg = std::move(load.data);
                target.dataFlips = std::move(load.flippedBits);
                target.dataValid = true;
                target.dataRow = row;
                ardy_ = true;
                ++completedReads_;
            };
            bgEvent_ = scheduleIn(tr, [this] {
                if (bgCompletion_) {
                    auto bg = std::move(bgCompletion_);
                    bgCompletion_ = nullptr;
                    bg();
                }
            }, "cache pre-read");
        } else {
            cacheNextRow_.reset();
            cacheReadArmed_ = false;
        }
    });
}

void
Lun::startProgram(bool cache_mode)
{
    if (!addressedToMe()) {
        slcPrefixArmed_ = false;
        multiPlaneProgramQueue_.clear();
        return;
    }
    slcOpActive_ = slcPrefixArmed_;
    slcPrefixArmed_ = false;

    std::vector<RowAddress> rows = std::move(multiPlaneProgramQueue_);
    multiPlaneProgramQueue_.clear();
    rows.push_back(pendingRow_);

    Tick prog = cfg_.timing.tProg;
    if (array_.isSlcBlock(rows.front().block))
        prog = static_cast<Tick>(prog * cfg_.timing.slcProgFactor);

    if (!cache_mode) {
        // Wait out any background cache program still in flight, then
        // program all queued planes in parallel.
        Tick wait = bgUntil_ > curTick() ? bgUntil_ - curTick() : 0;
        auditOpFloor("onfi.tPROG-floor", wait + prog, prog);
        inflightProgramRows_ = rows;
        startArrayOp(ArrayOp::Program, wait + prog, [this, rows] {
            if (bgCompletion_) {
                auto bg = std::move(bgCompletion_);
                bgCompletion_ = nullptr;
                bgEvent_.cancel();
                bg();
            }
            for (const RowAddress &row : rows) {
                Plane &pl = planes_[row.plane(cfg_.geometry)];
                if (faults().onProgram(name(), row.block, row.page,
                                              curTick())) {
                    // Injected verify failure: the page never commits,
                    // exactly as a real failed program leaves the array.
                    failBit_ = true;
                    continue;
                }
                ArrayStatus st = array_.programPage(row.block, row.page,
                                                    pl.cacheReg,
                                                    curTick());
                if (st != ArrayStatus::Ok) {
                    failBit_ = true;
                    if (st == ArrayStatus::ProtocolError) {
                        warn("%s: out-of-order/duplicate program of "
                             "block %u page %u",
                             name().c_str(), row.block, row.page);
                    }
                }
            }
            completedPrograms_ += rows.size();
            inflightProgramRows_.clear();
        });
        return;
    }

    // Cache program: the interface frees after tCBSY; the array keeps
    // programming in the background.
    babol_assert(rows.size() == 1,
                 "cache program combined with multi-plane not supported");
    RowAddress row = rows.front();
    std::vector<std::uint8_t> data = selectedPlane().cacheReg;
    Tick wait = bgUntil_ > curTick() ? bgUntil_ - curTick() : 0;
    Tick prog_time = prog;
    inflightProgramRows_ = {row};

    startArrayOp(ArrayOp::Program, wait + cfg_.timing.tCbsyW,
                 [this, row, data = std::move(data), prog_time]() mutable {
        if (bgCompletion_) {
            auto bg = std::move(bgCompletion_);
            bgCompletion_ = nullptr;
            bgEvent_.cancel();
            bg();
        }
        ardy_ = false;
        bgUntil_ = curTick() + prog_time;
        chargeArray(ArrayOp::Program, curTick(), bgUntil_);
        bgCompletion_ = [this, row, data = std::move(data)] {
            if (faults().onProgram(name(), row.block, row.page,
                                          curTick())) {
                failCBit_ = true;
            } else {
                ArrayStatus st = array_.programPage(row.block, row.page,
                                                    data, curTick());
                if (st != ArrayStatus::Ok)
                    failCBit_ = true;
            }
            ardy_ = true;
            ++completedPrograms_;
            inflightProgramRows_.clear();
        };
        bgEvent_ = scheduleIn(prog_time, [this] {
            if (bgCompletion_) {
                auto bg = std::move(bgCompletion_);
                bgCompletion_ = nullptr;
                bg();
            }
        }, "cache program");
    });
}

void
Lun::startErase()
{
    if (!addressedToMe()) {
        slcPrefixArmed_ = false;
        eraseQueue_.clear();
        return;
    }
    bool slc_mode = slcPrefixArmed_;
    slcPrefixArmed_ = false;

    std::vector<std::uint32_t> blocks = std::move(eraseQueue_);
    eraseQueue_.clear();
    babol_assert(!blocks.empty(), "erase confirm with no queued blocks");

    Tick dur = cfg_.timing.tBers;
    if (slc_mode)
        dur = static_cast<Tick>(dur * cfg_.timing.slcEraseFactor);
    auditOpFloor("onfi.tBERS-floor", dur,
                 slc_mode ? static_cast<Tick>(cfg_.timing.tBers *
                                              cfg_.timing.slcEraseFactor)
                          : cfg_.timing.tBers);

    startArrayOp(ArrayOp::Erase, dur, [this, blocks, slc_mode] {
        for (std::uint32_t block : blocks) {
            if (faults().onErase(name(), block, curTick())) {
                // Injected erase-verify failure: the block keeps its
                // old contents and the FAIL bit tells the controller.
                failBit_ = true;
                continue;
            }
            if (array_.eraseBlock(block, slc_mode) != ArrayStatus::Ok)
                failBit_ = true;
        }
        completedErases_ += blocks.size();
    });
}

// ---------------------------------------------------------------------
// Suspend / resume
// ---------------------------------------------------------------------

void
Lun::handleSuspend()
{
    if (!cfg_.supportsSuspend) {
        panic("%s: SUSPEND (B0h) unsupported by %s", name().c_str(),
              cfg_.partName.c_str());
    }
    if (rdy_ || (busyOp_ != ArrayOp::Program && busyOp_ != ArrayOp::Erase)) {
        warn("%s: SUSPEND ignored (no program/erase in flight)",
             name().c_str());
        return;
    }
    babol_assert(!suspended_, "nested suspend");

    busyEvent_.cancel();
    // The portion of the op that already ran is charged now; the
    // resumed remainder charges when it completes.
    chargeArray(busyOp_, opStart_, curTick());
    suspendRemaining_ = busyUntil_ > curTick() ? busyUntil_ - curTick() : 0;
    suspendedOp_ = busyOp_;
    suspendedCompletion_ = std::move(completion_);
    completion_ = nullptr;
    suspended_ = true;

    // The array needs a moment to park charge pumps before the LUN can
    // take interim operations.
    busyOp_ = ArrayOp::None;
    busyUntil_ = curTick() + cfg_.timing.suspendLatency;
    busyEvent_ = scheduleIn(cfg_.timing.suspendLatency, [this] {
        rdy_ = true;
        ardy_ = true;
    }, "suspend park");
}

void
Lun::handleResume()
{
    if (!suspended_) {
        warn("%s: RESUME ignored (nothing suspended)", name().c_str());
        return;
    }
    suspended_ = false;
    Tick dur = suspendRemaining_ + cfg_.timing.resumeOverhead;
    ArrayOp op = suspendedOp_;
    suspendedOp_ = ArrayOp::None;
    auto done = std::move(suspendedCompletion_);
    suspendedCompletion_ = nullptr;
    startArrayOp(op, dur, std::move(done));
}

} // namespace babol::nand
