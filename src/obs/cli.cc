#include "cli.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "audit/auditor.hh"
#include "hub.hh"
#include "perfetto.hh"
#include "power/power.hh"
#include "sim/logging.hh"

namespace babol::obs::cli {

const char *
Options::usage()
{
    return "[--trace-out FILE] [--metrics-out FILE] [--audit[=FILE]] "
           "[--power-out FILE] [--power-cap MW]";
}

std::optional<std::uint64_t>
parseCount(const std::string &text, std::uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t n = 0;
    for (char c : text) {
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' ||
            n > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return std::nullopt;
        n = n * 10 + digit;
    }
    if (n == 0 || n > max)
        return std::nullopt;
    return n;
}

bool
Options::parse(int argc, char **argv, int &i)
{
    const char *arg = argv[i];
    if (!std::strcmp(arg, "--trace-out") && i + 1 < argc) {
        traceOut = argv[++i];
        return true;
    }
    if (!std::strcmp(arg, "--metrics-out") && i + 1 < argc) {
        metricsOut = argv[++i];
        return true;
    }
    if (!std::strcmp(arg, "--audit")) {
        audit = true;
        return true;
    }
    if (!std::strncmp(arg, "--audit=", 8) && arg[8]) {
        audit = true;
        auditOut = arg + 8;
        return true;
    }
    if (!std::strcmp(arg, "--power-out") && i + 1 < argc) {
        powerOut = argv[++i];
        return true;
    }
    if (!std::strcmp(arg, "--power-cap") && i + 1 < argc) {
        const char *cap = argv[++i];
        powerCapMw = parseCount(cap).value_or(0);
        if (powerCapMw == 0)
            fatal("--power-cap needs a positive cap in mW, got '%s'", cap);
        return true;
    }
    return false;
}

void
Options::applyStartup() const
{
    if (!traceOut.empty())
        trace().setEnabled(true);
    if (!powerOut.empty() || powerCapMw > 0) {
        auto &pm = power::PowerModel::instance();
        pm.enable();
        if (powerCapMw > 0) {
            power::GovernorConfig g;
            g.capMw = powerCapMw;
            pm.setGovernorConfig(g);
        }
    }
    if (!audit)
        return;
    audit::Auditor::Config cfg;
    cfg.throwOnDiagnostic = false; // collect; report at finalize()
    cfg.enableTrace = true;        // flight dumps + conservation pass
    audit::Auditor::instance().arm(cfg);
}

void
Options::captureMetrics(const EventQueue &eq)
{
    MetricsGroup kernel(metrics(), "kernel");
    registerEventQueueMetrics(kernel, eq);
    snapshot_ = metrics().snapshot();
    snapshot_->simTicks = eq.now();
}

int
Options::finalize() const
{
    if (!traceOut.empty()) {
        std::ofstream out(traceOut);
        if (!out)
            fatal("cannot open %s", traceOut.c_str());
        writePerfettoJson(out, trace());
        std::printf("wrote %llu trace records to %s\n",
                    static_cast<unsigned long long>(trace().size()),
                    traceOut.c_str());
    }

    if (!metricsOut.empty()) {
        babol_assert(snapshot_, "--metrics-out without captureMetrics()");
        std::ofstream out(metricsOut);
        if (!out)
            fatal("cannot open %s", metricsOut.c_str());
        MetricsRegistry::writeJson(out, *snapshot_);
        std::printf("wrote metrics to %s\n", metricsOut.c_str());
    }

    if (!powerOut.empty()) {
        std::ofstream out(powerOut);
        if (!out)
            fatal("cannot open %s", powerOut.c_str());
        power::PowerModel::instance().writeJson(out);
        std::printf("wrote power summary to %s\n", powerOut.c_str());
    }
    if (powerCapMw > 0) {
        auto &pm = power::PowerModel::instance();
        std::printf("power governor: cap %llu mW, %llu throttle "
                    "window(s), %.1f us throttled\n",
                    static_cast<unsigned long long>(powerCapMw),
                    static_cast<unsigned long long>(
                        pm.throttleWindowsTotal()),
                    ticks::toUs(pm.throttledTicksTotal()));
    }

    auto &aud = audit::Auditor::instance();
    if (!audit || !aud.armed())
        return 0;

    aud.finish(); // cross-layer span conservation over the trace ring
    if (auditOut.empty()) {
        aud.writeReport(std::cout);
    } else {
        std::ofstream out(auditOut);
        if (!out)
            fatal("cannot open %s", auditOut.c_str());
        aud.writeReport(out);
        std::printf("wrote audit report to %s\n", auditOut.c_str());
    }
    // Suppressed (fault-expected) diagnostics never fail the run.
    return aud.unsuppressedCount() == 0 ? 0 : 1;
}

} // namespace babol::obs::cli
