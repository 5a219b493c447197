#include "spec.hh"

#include <limits>

#include "sim/logging.hh"

namespace babol::scenario {

namespace {

constexpr unsigned
bit(Kind k)
{
    return 1u << static_cast<unsigned>(k);
}

constexpr unsigned kFio = bit(Kind::Fio);
constexpr unsigned kFleet = bit(Kind::Fleet);
constexpr unsigned kQueued = bit(Kind::Queued);
constexpr unsigned kCrash = bit(Kind::Crash);
constexpr unsigned kLifetime = bit(Kind::Lifetime);
constexpr unsigned kReliability = bit(Kind::Reliability);
/** Kinds that write the observability outputs at exit. */
constexpr unsigned kObs = kFio | kQueued | kCrash | kReliability;

/** What usage and error messages say about a kind. */
struct KindInfo
{
    Kind kind;
    const char *name;
    const char *what;
};

/** One entry per Kind, in enumerator order. */
constexpr KindInfo kKinds[] = {
    {Kind::Fio, "single-device fio run",
     "fill half of an 8-way mini-SSD, then sequential and random READs"},
    {Kind::Fleet, "fleet",
     "independent mini-SSDs, each filled then read by random streams"},
    {Kind::Queued, "queued front end",
     "a sharded 2-channel device behind NVMe queue pairs"},
    {Kind::Crash, "crash campaign",
     "stamped writes, power cut, OOB remount, ledger verification"},
    {Kind::Lifetime, "lifetime smoke",
     "one chip written to its rated erase endurance, wear spread bounded"},
    {Kind::Reliability, "reliability campaign",
     "stamped mixed I/O on a sharded 2x2 device with media failures"},
};

enum class Value
{
    None,
    Count,    //!< positive whole number, as the next argument
    Path,     //!< non-empty string, as the next argument
    PathOrEq, //!< Path, or attached as --flag=FILE
};

struct Flag
{
    const char *name;
    Value value;
    const char *metavar; //!< usage text after the name, e.g. " FILE"
    unsigned kinds;      //!< the kinds that read this flag
    unsigned selects;    //!< the kind giving it picks (0 = none)
    bool repeatable;
    std::uint64_t max;
    /** Store the value; nullptr for the observability flags, whose
     *  values obs::cli::Options::parse() reads as in every harness. */
    void (*apply)(Spec &, std::uint64_t n, const std::string &s);
    const char *help;
};

constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();

const Flag kFlags[] = {
    {"--faults", Value::PathOrEq, " FILE", kFio | kFleet, 0, false, 0,
     [](Spec &s, std::uint64_t, const std::string &v) { s.faultPlan = v; },
     "arm a fault plan (src/fault/fault_plan.hh) with read-retry on"},
    {"--fleet", Value::Count, " N", kFleet, kFleet, false, kU32,
     [](Spec &s, std::uint64_t n, const std::string &) { s.fleet = n; },
     "run N independent mini-SSDs"},
    {"--streams", Value::Count, " M", kFleet, 0, false, kU32,
     [](Spec &s, std::uint64_t n, const std::string &) { s.streams = n; },
     "random-read streams per fleet member (default 1)"},
    {"--threads", Value::Count, " T", kFleet | kQueued | kReliability, 0,
     false, kU32,
     [](Spec &s, std::uint64_t n, const std::string &) { s.threads = n; },
     "worker threads (default 1); output is identical at any T"},
    {"--qpairs", Value::Count, " N", kQueued, kQueued, false, kU32,
     [](Spec &s, std::uint64_t n, const std::string &) { s.qpairs = n; },
     "reach the device through N NVMe submission/completion queue pairs"},
    {"--replay", Value::Path, " FILE", kQueued, 0, false, 0,
     [](Spec &s, std::uint64_t, const std::string &v) { s.replay = v; },
     "replay a block trace: time_us R|W lba sectors"},
    {"--tenants", Value::Count, " N", kQueued, 0, false, kU32,
     [](Spec &s, std::uint64_t n, const std::string &) { s.tenants = n; },
     "N rate-classed tenants (default 8 unless replaying)"},
    {"--slo-out", Value::Path, " FILE", kQueued, 0, false, 0,
     [](Spec &s, std::uint64_t, const std::string &v) { s.sloOut = v; },
     "write the per-tenant p50/p99/p999 SLO report as JSON"},
    {"--crash-at", Value::Count, " N", kCrash | kReliability, kCrash, true,
     kU64,
     [](Spec &s, std::uint64_t n, const std::string &) {
         s.crashAt.push_back(n);
     },
     "cut power after the Nth acknowledged write, then remount "
     "(repeatable in the crash campaign)"},
    {"--crash-plan", Value::Path, " FILE", kCrash, kCrash, false, 0,
     [](Spec &s, std::uint64_t, const std::string &v) { s.crashPlan = v; },
     "one cut per 'fault powercut nth=K' line of FILE"},
    {"--remount", Value::None, "", kCrash, kCrash, false, 0,
     [](Spec &s, std::uint64_t, const std::string &) { s.remount = true; },
     "add a clean-shutdown (flush) remount cycle"},
    {"--crash-out", Value::Path, " FILE", kCrash, 0, false, 0,
     [](Spec &s, std::uint64_t, const std::string &v) { s.crashOut = v; },
     "append one recovery digest line per cycle"},
    {"--lifetime-smoke", Value::None, "", kLifetime, kLifetime, false, 0,
     [](Spec &, std::uint64_t, const std::string &) {},
     "drive one chip to its erase endurance under a skewed workload"},
    {"--rain", Value::None, "", kReliability, kReliability, false, 0,
     [](Spec &s, std::uint64_t, const std::string &) { s.rain = true; },
     "attach cross-chip RAIN parity"},
    {"--scrub", Value::None, "", kReliability, kReliability, false, 0,
     [](Spec &s, std::uint64_t, const std::string &) { s.scrub = true; },
     "attach the background patrol scrubber"},
    {"--diefail-at", Value::Count, " N", kReliability, kReliability, false,
     kU64,
     [](Spec &s, std::uint64_t n, const std::string &) { s.diefailAt = n; },
     "kill a whole die after the Nth acknowledged write"},
    {"--blockfail-at", Value::Count, " N", kReliability, kReliability,
     false, kU64,
     [](Spec &s, std::uint64_t n, const std::string &) {
         s.blockfailAt = n;
     },
     "fail one block after the Nth acknowledged write"},
    {"--reliability-out", Value::Path, " FILE", kReliability, 0, false,
     0,
     [](Spec &s, std::uint64_t, const std::string &v) {
         s.reliabilityOut = v;
     },
     "append the campaign digest line"},
    {"--trace-out", Value::Path, " FILE", kObs, 0, false, 0, nullptr,
     "write a Perfetto (Chrome trace_event) JSON"},
    {"--metrics-out", Value::Path, " FILE", kObs, 0, false, 0, nullptr,
     "dump the metrics registry as JSON"},
    {"--audit", Value::None, "[=FILE]", kObs | kFleet, 0, false, 0,
     nullptr, "arm the ONFI conformance auditor; report to stdout or FILE"},
    {"--power-out", Value::Path, " FILE", kObs, 0, false, 0, nullptr,
     "enable the power model; write the per-rail energy JSON"},
    {"--power-cap", Value::Count, " MW", kObs, 0, false, 0, nullptr,
     "enable the power model under a per-channel power cap"},
};

/** The kind of a single-bit mask. */
Kind
kindOf(unsigned mask)
{
    for (const KindInfo &k : kKinds)
        if (mask == bit(k.kind))
            return k.kind;
    panic("kind mask %#x names no single scenario", mask);
}

/** "'ARG' is malformed; write --flag VALUE" */
UsageError
malformed(const std::string &arg, const Flag &f)
{
    return UsageError(strfmt("'%s' is malformed; write %s%s", arg.c_str(),
                             f.name, f.metavar));
}

std::uint64_t
parseCount(const Flag &f, const std::string &v)
{
    if (auto n = obs::cli::parseCount(v, f.max))
        return *n;
    throw UsageError(strfmt("%s needs a whole number from 1 to %llu, got "
                            "'%s'",
                            f.name, static_cast<unsigned long long>(f.max),
                            v.c_str()));
}

} // namespace

const char *
kindName(Kind k)
{
    return kKinds[static_cast<unsigned>(k)].name;
}

Spec
parseArgs(const std::vector<std::string> &args)
{
    Spec spec;
    const char *flavor_arg = nullptr;
    std::vector<const Flag *> given;

    for (const std::string &arg : args) {
        if (arg == "-h" || arg == "--help") {
            spec.help = true;
            return spec;
        }
    }
    // obs::cli::Options::parse() reads argv the way main() gets it.
    std::vector<std::string> owned(args);
    std::vector<char *> argv;
    for (std::string &a : owned)
        argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            if (flavor_arg)
                throw UsageError(strfmt("more than one flavour given "
                                        "('%s' and '%s')",
                                        flavor_arg, arg.c_str()));
            auto f = core::parseFlavor(arg);
            if (!f)
                throw UsageError(strfmt("unknown controller flavour '%s' "
                                        "(expected %s)",
                                        arg.c_str(), core::kFlavorChoices));
            spec.flavor = *f;
            flavor_arg = argv[i];
            continue;
        }

        const std::size_t eq = arg.find('=');
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags)
            if (arg.compare(0, eq, f.name) == 0)
                flag = &f;
        if (!flag)
            throw UsageError(strfmt("unknown flag '%s'",
                                    arg.substr(0, eq).c_str()));
        for (const Flag *g : given)
            if (g == flag && !flag->repeatable)
                throw UsageError(strfmt("%s given twice", flag->name));
        given.push_back(flag);

        if (!flag->apply) {
            if (!spec.obs.parse(argc, argv.data(), i))
                throw malformed(arg, *flag);
            continue;
        }
        std::string value;
        if (eq != std::string::npos) {
            if (flag->value != Value::PathOrEq)
                throw malformed(arg, *flag);
            value = arg.substr(eq + 1);
        } else if (flag->value != Value::None) {
            if (i + 1 >= argc)
                throw malformed(arg, *flag);
            value = argv[++i];
        }
        std::uint64_t n = 0;
        if (flag->value == Value::Count)
            n = parseCount(*flag, value);
        else if (flag->value != Value::None && value.empty())
            throw UsageError(strfmt("%s needs a file name", flag->name));
        flag->apply(spec, n, value);
    }

    // The selecting flags pick the scenario: one kind must read them
    // all. The last selector to narrow the readers names it (--crash-at
    // alone is a crash campaign, with --rain a reliability campaign).
    unsigned readers = ~0u;
    const Flag *narrowest = nullptr;
    for (const Flag *f : given) {
        if (!f->selects)
            continue;
        if (narrowest && !(readers & f->kinds))
            throw UsageError(strfmt(
                "%s (%s) and %s (%s) select different scenarios; run "
                "them separately",
                narrowest->name, kindName(kindOf(narrowest->selects)),
                f->name, kindName(kindOf(f->selects))));
        if (!narrowest || (readers & f->kinds) != readers)
            narrowest = f;
        readers &= f->kinds;
    }
    spec.kind = narrowest ? kindOf(narrowest->selects) : Kind::Fio;

    // Every other flag must be one the scenario reads.
    for (const Flag *f : given) {
        if (f->kinds & bit(spec.kind))
            continue;
        std::string readers;
        for (const KindInfo &k : kKinds)
            if (f->kinds & bit(k.kind))
                readers += std::string(readers.empty() ? "" : ", ") + k.name;
        throw UsageError(strfmt("%s has no effect on the %s; it is read by "
                                "the %s",
                                f->name, kindName(spec.kind), readers.c_str()));
    }
    if (spec.kind == Kind::Reliability && !spec.crashAt.empty()) {
        const std::uint64_t cut = spec.crashAt.front();
        if (spec.crashAt.size() > 1)
            throw UsageError("the reliability campaign takes one "
                             "--crash-at");
        if ((spec.diefailAt && spec.diefailAt <= cut) ||
            (spec.blockfailAt && spec.blockfailAt <= cut))
            throw UsageError("a power cut after the media failure is not "
                             "modelled: --crash-at must come before "
                             "--diefail-at/--blockfail-at");
        if (!spec.obs.powerOut.empty() || spec.obs.powerCapMw)
            throw UsageError("--power-out/--power-cap would meter the "
                             "probe run that locates the --crash-at tick "
                             "too; drop one of them");
    }
    if (spec.kind == Kind::Queued && spec.tenants == 0) {
        if (!spec.sloOut.empty() && !spec.replay.empty())
            throw UsageError("--slo-out reports tenants, and a replay runs "
                             "none unless --tenants N is given");
        if (spec.replay.empty())
            spec.tenants = 8; // a front-end demo needs traffic
    }
    return spec;
}

std::string
usage(const char *prog)
{
    std::string out = strfmt(
        "usage: %s [FLAVOR] [FLAGS]\n"
        "\n"
        "Runs one scenario on a simulated mini-SSD: BABOL channel "
        "controller,\npage-mapped FTL, host workload. FLAVOR is one of "
        "%s\n(default coro; hw = hw-async). The flags pick the scenario; "
        "a flag\nthe scenario does not read is an error.\n"
        "\nscenarios:\n",
        prog, core::kFlavorChoices);
    for (const KindInfo &k : kKinds) {
        std::string picks;
        for (const Flag &f : kFlags)
            if (f.selects == bit(k.kind))
                picks += std::string(picks.empty() ? "" : " ") + f.name;
        out += strfmt("  %s (%s)\n      %s\n", k.name,
                      picks.empty() ? "no flag" : picks.c_str(), k.what);
    }
    out += "\nflags:\n";
    for (const Flag &f : kFlags)
        out += strfmt("  %-22s %s\n", (std::string(f.name) + f.metavar).c_str(),
                      f.help);
    out += "\nexit status: 0 clean; 1 audit findings or failed recovery; "
           "2 bad usage or\nconfiguration; 3 simulator panic; 4 "
           "acknowledged data lost\n";
    return out;
}

} // namespace babol::scenario
