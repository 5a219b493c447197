/**
 * @file
 * simbench_cli: runs one workload for every controller flavour, round
 * after round, until the time box closes, and prints one JSON object.
 *
 *   simbench_cli --workload NAME --seed N [--seconds S] [--trace 0|1]
 *
 * A round builds a fresh device per flavour (hw, rtos, coro), sets it up
 * and runs the measured phase on one of kStreams host I/O streams
 * derived from the seed; rounds cycle through the streams, at least one
 * round each. The simulated figures pool the streams. A stream that
 * comes round again must reproduce its simulated results byte for byte;
 * a difference is a determinism failure.
 *
 * The sharded device is timed on one worker thread. In the first round
 * it also runs on kWorkerThreads: that run must match byte for byte, and
 * its wall time gives sim.parallel_speedup. (On a shared host the
 * two-thread engine's barrier windows swing its wall time by several
 * times from one round to the next, so no bound on it could hold.)
 *
 * --trace 1 measures the layers instead: each flavour's measured phase
 * runs untraced and traced back to back (which goes first alternates),
 * and the output carries per-layer figures.
 *
 * A discarded pass runs before the first round, so no measured pass
 * pays for the process's cold heap.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/power/power.hh"
#include "workloads.hh"

using namespace simbench;

namespace {

const char *const kFlavours[] = {"hw", "rtos", "coro"};

/** Host I/O streams per seed; every run covers each at least once.
 *  Many short streams from one set-up state give a steadier tail than
 *  a few long ones, which drift deeper into GC. */
constexpr std::uint32_t kStreams = 6;

/** Worker threads of the sharded device's parallel check run. */
constexpr std::uint32_t kWorkerThreads = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench_cli: %s\nusage: simbench_cli --workload NAME "
                 "--seed N [--seconds S] [--trace 0|1]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            continue;
        }
        if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else {
            const unsigned long long n = std::strtoull(v, &end, 10);
            if (flag == "--seed") {
                a.seed = n;
                have_seed = true;
            } else if (flag == "--trace" && n <= 1) {
                a.trace = n == 1;
            } else {
                usage(("bad flag or value: " + flag + " " + v).c_str());
            }
        }
        if (!end || *end != '\0' || end == v)
            usage(("not a number: " + flag + " " + v).c_str());
    }
    if (a.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** This process's resource use so far. */
struct Usage
{
    double user = 0, sys = 0, minflt = 0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return {s(ru.ru_utime), s(ru.ru_stime),
            static_cast<double>(ru.ru_minflt)};
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Everything simulated about one flavour run, as text: byte-identical
 *  for one stream whatever the thread count, tracing or round. */
std::string
digestOf(const FlavourRun &r)
{
    std::uint64_t lat = 0xcbf29ce484222325ull; // FNV-1a over the samples
    for (double v : r.latUs) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        lat = (lat ^ bits) * 0x100000001b3ull;
    }
    std::string d = "ios=" + std::to_string(r.hostIos) +
                    "|bytes=" + std::to_string(r.hostBytes) +
                    "|ticks=" + std::to_string(r.simTicks) +
                    "|fj=" + std::to_string(r.energyFj) +
                    "|lat=" + std::to_string(lat) +
                    "|attempted=" + std::to_string(r.oracle.attempted);
    for (const auto &[k, v] : r.counts)
        d += "|" + k + "=" + num(v);
    return d;
}

/** One flavour's simulated results, pooled over the streams. */
struct Pool
{
    double bytes = 0, seconds = 0, energyFj = 0, ios = 0;
    std::vector<double> latUs;
    std::vector<double> opLatUs; //!< traced runs: flash op latency
};

double
get(const std::map<std::string, double> &m, const std::string &k)
{
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

/** First and third quartiles (inclusive method, as Python's
 *  statistics.quantiles(method="inclusive")). */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        if (v.empty())
            return 0.0;
        const double pos = q * static_cast<double>(v.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
    };
    return {at(0.25), at(0.75)};
}

enum class Pass { Plain, Traced, Parallel };

struct JsonObject
{
    std::string body;
    void
    add(const std::string &key, const std::string &raw)
    {
        body += (body.empty() ? "" : ", ") + ("\"" + key + "\": " + raw);
    }
    void add(const std::string &key, double v) { add(key, num(v)); }
    std::string str() const { return "{" + body + "}"; }
};

std::string
list(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", " : "") + num(v[i]);
    return s + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (std::strcmp(SIMBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "simbench_cli: built as '%s'; timings need a Release "
                     "build\n",
                     SIMBENCH_BUILD_TYPE);
        return 2;
    }
    const Workload workload = findWorkload(args.workload);
    if (!workload)
        usage(("unknown workload '" + args.workload + "'").c_str());
    const bool sharded = args.workload == "sharded_nvme_mixed";

    // Energy per I/O is part of the output, as in fig12; meters latch
    // the flag when the device is built.
    babol::obs::power::PowerModel::instance().enable();

    EccCost ecc;
    if (args.trace)
        ecc = timeEcc(workloadPageBytes());

    Oracle oracle;
    bool deterministic = true;
    std::map<std::pair<std::string, std::uint32_t>, std::string> seen;
    std::map<std::string, Pool> pools;    // per flavour
    std::map<std::string, double> counts; // over flavours and streams
    // Per round, untraced passes only: stream, set-up and measured wall,
    // host I/Os, CPU seconds and minor faults.
    std::vector<double> r_stream, r_setup, r_wall, r_ios, r_cpu, r_minflt;
    std::vector<double> overhead_pct, speedup;
    std::map<std::string, std::vector<double>> layer_rounds;

    // One discarded pass first: the process's first device pays for
    // growing the heap, which would otherwise land on whichever
    // measured pass ran first.
    {
        Options opts;
        opts.seed = args.seed * kStreams;
        const Oracle o = workload(kFlavours[0], opts, nullptr).oracle;
        oracle.attempted += o.attempted;
        oracle.failed += o.failed;
        oracle.mismatched += o.mismatched;
    }

    const double t_start = wallNow();
    std::uint32_t round = 0;
    for (; round < kStreams || wallNow() - t_start < args.seconds; ++round) {
        const std::uint32_t stream = round % kStreams;
        std::vector<Pass> passes = {Pass::Plain};
        if (args.trace)
            passes.push_back(Pass::Traced);
        if (sharded && round == 0)
            passes.push_back(Pass::Parallel);
        double setup = 0, plain_wall = 0, plain_ios = 0, cpu = 0, minflt = 0;
        std::map<std::string, double> layer; // this round, traced passes
        for (std::size_t f = 0; f < std::size(kFlavours); ++f) {
            const char *fl = kFlavours[f];
            std::map<Pass, FlavourRun> by_pass;
            // Which pass runs first alternates, so a warmer second run
            // favours neither side of a pair.
            for (std::size_t k = 0; k < passes.size(); ++k) {
                const Pass pass = passes[(k + round + f) % passes.size()];
                Options opts;
                opts.seed = args.seed * kStreams + stream;
                opts.threads = pass == Pass::Parallel ? kWorkerThreads : 1;
                Tracer tracer;
                const Usage u0 = usageNow();
                FlavourRun r = workload(
                    fl, opts, pass == Pass::Traced ? &tracer : nullptr);
                const Usage u1 = usageNow();
                if (pass == Pass::Plain) {
                    cpu += u1.user - u0.user + u1.sys - u0.sys;
                    minflt += u1.minflt - u0.minflt;
                }

                oracle.attempted += r.oracle.attempted;
                oracle.failed += r.oracle.failed;
                oracle.mismatched += r.oracle.mismatched;
                const std::string digest = digestOf(r);
                auto [it, first] = seen.emplace(std::pair(fl, stream), digest);
                Pool &pool = pools[fl];
                if (first) {
                    pool.bytes += static_cast<double>(r.hostBytes);
                    pool.seconds += static_cast<double>(r.simTicks) /
                                    static_cast<double>(babol::ticks::perSec);
                    pool.energyFj += static_cast<double>(r.energyFj);
                    pool.ios += static_cast<double>(r.hostIos);
                    pool.latUs.insert(pool.latUs.end(), r.latUs.begin(),
                                      r.latUs.end());
                    for (const auto &[key, v] : r.counts)
                        counts[key] += v;
                } else if (it->second != digest) {
                    deterministic = false;
                    std::fprintf(stderr,
                                 "simbench_cli: %s stream %u differs in "
                                 "round %u:\n  %s\n  %s\n",
                                 fl, stream, round, it->second.c_str(),
                                 digest.c_str());
                }
                if (pass == Pass::Traced) {
                    for (const auto &[key, v] : r.traced)
                        layer[key] += v;
                    layer["sim.run_wall_s"] += r.runWall;
                    layer["measure_wall_s"] += r.measureWall;
                    layer["proc.user_s"] += u1.user - u0.user;
                    layer["proc.sys_s"] += u1.sys - u0.sys;
                    if (round < kStreams) {
                        pool.opLatUs.insert(pool.opLatUs.end(),
                                            tracer.opLatencyUs.begin(),
                                            tracer.opLatencyUs.end());
                        for (const char *key :
                             {"ecc.pages_decoded", "ecc.pages_encoded"})
                            counts[key] += r.traced[key];
                    }
                }
                by_pass.emplace(pass, std::move(r));
            }
            const FlavourRun &plain = by_pass.at(Pass::Plain);
            setup += plain.setupWall;
            plain_wall += plain.measureWall;
            plain_ios += static_cast<double>(plain.hostIos);
            if (args.trace) {
                overhead_pct.push_back(
                    100.0 * (by_pass.at(Pass::Traced).measureWall /
                                 plain.measureWall -
                             1.0));
            }
            if (by_pass.count(Pass::Parallel)) {
                speedup.push_back(plain.measureWall /
                                  by_pass.at(Pass::Parallel).measureWall);
            }
        }
        r_stream.push_back(stream);
        r_setup.push_back(setup);
        r_wall.push_back(plain_wall);
        r_ios.push_back(plain_ios);
        r_cpu.push_back(cpu);
        r_minflt.push_back(minflt);
        if (args.trace) {
            layer["ecc.wall_share"] =
                (layer["ecc.pages_encoded"] * ecc.encodeNs +
                 layer["ecc.pages_decoded"] * (ecc.decodeNs + ecc.extractNs)) *
                1e-9 / layer["measure_wall_s"];
        }
        for (const auto &[key, v] : layer)
            layer_rounds[key].push_back(v);
    }

    JsonObject out;
    out.add("workload", "\"" + args.workload + "\"");
    out.add("seed", static_cast<double>(args.seed));
    out.add("rounds", static_cast<double>(round));
    JsonObject per_round;
    per_round.add("stream", list(r_stream));
    per_round.add("setup_s", list(r_setup));
    per_round.add("wall_s", list(r_wall));
    per_round.add("ios", list(r_ios));
    per_round.add("cpu_s", list(r_cpu));
    per_round.add("minflt", list(r_minflt));
    out.add("per_round", per_round.str());
    out.add("attempted", static_cast<double>(oracle.attempted));
    out.add("failed", static_cast<double>(oracle.failed));
    out.add("mismatched", static_cast<double>(oracle.mismatched));
    out.add("deterministic", deterministic ? "true" : "false");

    JsonObject sim, tails;
    for (const char *fl : kFlavours) {
        const Pool &p = pools.at(fl);
        const Tail tail = tailOf(p.latUs);
        sim.add(std::string("sim_mbps.") + fl, p.bytes / 1e6 / p.seconds);
        sim.add(std::string("sim_p99_us.") + fl, tail.value);
        sim.add(std::string("sim_uj_per_io.") + fl, p.energyFj / 1e9 / p.ios);
        tails.add(fl, "[" + num(tail.pct) + ", " +
                          std::to_string(tail.samples) + "]");
    }
    out.add("sim", sim.str());
    out.add("tail", tails.str());

    JsonObject env;
    env.add("build_type", std::string("\"") + SIMBENCH_BUILD_TYPE + "\"");
    env.add("compiler", std::string("\"g++ ") + __VERSION__ + "\"");
    env.add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    out.add("env", env.str());

    if (args.trace) {
        auto med = [&](const char *key) {
            return median(layer_rounds[key]);
        };
        const double ios = get(counts, "host.ios");
        JsonObject L;
        L.add("sim.events", get(counts, "sim.events"));
        L.add("sim.events_per_io", ratio(get(counts, "sim.events"), ios));
        L.add("sim.run_wall_s", med("sim.run_wall_s"));
        L.add("sim.windows", get(counts, "sim.windows"));
        L.add("sim.cross_shard_msgs", get(counts, "sim.cross_shard_msgs"));
        L.add("sim.windows_per_msg", ratio(get(counts, "sim.windows"),
                                           get(counts, "sim.cross_shard_msgs")));
        L.add("sim.parallel_speedup", median(speedup));
        L.add("ecc.encode_ns_per_page", ecc.encodeNs);
        L.add("ecc.decode_ns_per_page", ecc.decodeNs);
        L.add("ecc.extract_ns_per_page", ecc.extractNs);
        L.add("ecc.pages_encoded", get(counts, "ecc.pages_encoded"));
        L.add("ecc.pages_decoded", get(counts, "ecc.pages_decoded"));
        L.add("ecc.wall_share", med("ecc.wall_share"));
        L.add("proc.user_s", med("proc.user_s"));
        L.add("proc.sys_s", med("proc.sys_s"));
        L.add("ctrl.submit_wall_s", med("ctrl.submit_wall_s"));
        L.add("ctrl.ops_completed", get(counts, "ctrl.ops_completed"));
        L.add("ctrl.ops_failed", get(counts, "ctrl.ops_failed"));
        for (const char *fl : kFlavours)
            L.add(std::string("ctrl.op_p99_us.") + fl,
                  percentile(pools.at(fl).opLatUs, 99.0));
        L.add("chan.bus_busy_frac", ratio(get(counts, "chan.busy_ticks"),
                                          get(counts, "chan.capacity_ticks")));
        L.add("chan.segments_per_io", ratio(get(counts, "chan.segments"), ios));
        L.add("chan.bytes_in", get(counts, "chan.bytes_in"));
        L.add("chan.bytes_out", get(counts, "chan.bytes_out"));
        L.add("nand.reads", get(counts, "nand.reads"));
        L.add("nand.programs", get(counts, "nand.programs"));
        L.add("nand.erases", get(counts, "nand.erases"));
        L.add("dram.bytes_per_io", ratio(get(counts, "dram.bytes"), ios));
        L.add("cpu.busy_frac", ratio(get(counts, "cpu.busy_ticks"),
                                     get(counts, "cpu.capacity_ticks")));
        L.add("cpu.cycles_per_io", ratio(get(counts, "cpu.cycles"), ios));
        L.add("ftl.self_wall_s", med("ftl.self_wall_s"));
        L.add("ftl.gc_page_moves", get(counts, "ftl.gc_page_moves"));
        L.add("ftl.write_amp", ratio(get(counts, "nand.programs"),
                                     get(counts, "host.writes")));
        L.add("ftl.erases", get(counts, "ftl.erases"));
        L.add("ftl.mount_wall_s", med("ftl.mount_wall_s"));
        L.add("ftl.mount_sim_ms",
              get(counts, "ftl.mount_sim_ticks") /
                  static_cast<double>(babol::ticks::perMs));
        L.add("ftl.mount_pages_scanned",
              get(counts, "ftl.mount_pages_scanned"));
        L.add("hic.rmw_count", get(counts, "hic.rmw_count"));
        L.add("hic.page_ops_per_io", ratio(get(counts, "hic.page_ops"), ios));
        L.add("nvme.sq_waits", get(counts, "nvme.sq_waits"));
        L.add("nvme.submit_wall_s", med("nvme.submit_wall_s"));
        L.add("rain.parity_writes", get(counts, "rain.parity_writes"));
        L.add("rain.stripes_sealed", get(counts, "rain.stripes_sealed"));
        L.add("host.gen_wall_s", med("host.gen_wall_s"));

        // Traced minus untraced wall of the same phase, paired and
        // interleaved. A median inside the noise band (quartiles
        // straddling zero) reads as 0: noise is not an overhead, nor a
        // negative one.
        const auto [q1, q3] = quartiles(overhead_pct);
        const double m = median(overhead_pct);
        L.add("obs.trace_overhead_pct", q1 > 0 ? m : 0.0);
        L.add("obs.trace_overhead_q1_pct", q1);
        L.add("obs.trace_overhead_q3_pct", q3);
        out.add("layers", L.str());
        out.add("trace_overhead_pairs_pct", list(overhead_pct));
    }

    std::printf("%s\n", out.str().c_str());
    return 0;
}
