#include "fault_plan.hh"

#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace babol::fault {

const char *
toString(FaultKind k)
{
    switch (k) {
      case FaultKind::BitBurst:
        return "bitburst";
      case FaultKind::ProgFail:
        return "progfail";
      case FaultKind::EraseFail:
        return "erasefail";
      case FaultKind::StuckBusy:
        return "stuckbusy";
      case FaultKind::Drift:
        return "drift";
      case FaultKind::PowerCut:
        return "powercut";
      case FaultKind::DieFail:
        return "diefail";
      case FaultKind::BlockFail:
        return "blockfail";
    }
    return "?";
}

namespace {

FaultKind
kindFromString(const std::string &s, int line_no)
{
    for (FaultKind k : {FaultKind::BitBurst, FaultKind::ProgFail,
                        FaultKind::EraseFail, FaultKind::StuckBusy,
                        FaultKind::Drift, FaultKind::PowerCut,
                        FaultKind::DieFail, FaultKind::BlockFail}) {
        if (s == toString(k))
            return k;
    }
    panic("fault plan line %d: unknown fault kind '%s'", line_no,
          s.c_str());
}

/** "7" or "2-9" (inclusive); "*" leaves the full range. */
void
parseRange(const std::string &val, int line_no, std::uint32_t *lo,
           std::uint32_t *hi)
{
    if (val == "*")
        return;
    std::size_t dash = val.find('-');
    try {
        if (dash == std::string::npos) {
            *lo = *hi = static_cast<std::uint32_t>(std::stoul(val));
        } else {
            *lo = static_cast<std::uint32_t>(
                std::stoul(val.substr(0, dash)));
            *hi = static_cast<std::uint32_t>(
                std::stoul(val.substr(dash + 1)));
        }
    } catch (const std::exception &) {
        panic("fault plan line %d: bad range '%s'", line_no, val.c_str());
    }
    if (*lo > *hi)
        panic("fault plan line %d: inverted range '%s'", line_no,
              val.c_str());
}

std::uint32_t
parseU32(const std::string &val, int line_no, const char *key)
{
    try {
        return static_cast<std::uint32_t>(std::stoul(val));
    } catch (const std::exception &) {
        panic("fault plan line %d: bad %s value '%s'", line_no, key,
              val.c_str());
    }
}

} // namespace

FaultPlan
parsePlan(const std::string &text)
{
    FaultPlan plan;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;

    while (std::getline(in, line)) {
        ++line_no;
        if (std::size_t hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);

        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue; // blank / comment-only line

        if (word == "seed") {
            std::uint64_t seed = 0;
            if (!(ls >> seed))
                panic("fault plan line %d: 'seed' needs a value", line_no);
            plan.seed = seed;
            continue;
        }
        if (word != "fault") {
            panic("fault plan line %d: expected 'seed' or 'fault', got "
                  "'%s'",
                  line_no, word.c_str());
        }

        std::string kind;
        if (!(ls >> kind))
            panic("fault plan line %d: 'fault' needs a kind", line_no);
        FaultSpec spec;
        spec.kind = kindFromString(kind, line_no);

        while (ls >> word) {
            std::size_t eq = word.find('=');
            if (eq == std::string::npos) {
                panic("fault plan line %d: expected key=value, got '%s'",
                      line_no, word.c_str());
            }
            std::string key = word.substr(0, eq);
            std::string val = word.substr(eq + 1);
            if (key == "where") {
                spec.where = val;
            } else if (key == "block") {
                parseRange(val, line_no, &spec.blockLo, &spec.blockHi);
            } else if (key == "page") {
                parseRange(val, line_no, &spec.pageLo, &spec.pageHi);
            } else if (key == "nth") {
                spec.nth = parseU32(val, line_no, "nth");
                if (spec.nth == 0)
                    panic("fault plan line %d: nth counts from 1",
                          line_no);
            } else if (key == "count") {
                spec.count = parseU32(val, line_no, "count");
            } else if (key == "bits") {
                spec.bits = parseU32(val, line_no, "bits");
            } else if (key == "level") {
                spec.level = parseU32(val, line_no, "level");
            } else if (key == "extra_us") {
                spec.extraBusy = static_cast<Tick>(
                                     parseU32(val, line_no, "extra_us")) *
                                 ticks::perUs;
            } else if (key == "suppress_us") {
                spec.suppressTicks =
                    static_cast<Tick>(
                        parseU32(val, line_no, "suppress_us")) *
                    ticks::perUs;
            } else {
                panic("fault plan line %d: unknown key '%s'", line_no,
                      key.c_str());
            }
        }
        plan.faults.push_back(std::move(spec));
    }
    return plan;
}

FaultPlan
loadPlanFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault plan '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return parsePlan(buf.str());
}

} // namespace babol::fault
