/**
 * @file
 * Shared observability command-line flags.
 *
 * Every bench and example harness accepts the same three switches
 * through this helper instead of hand-rolling the argv loop:
 *
 *   --trace-out FILE    write a Perfetto (Chrome trace_event) JSON of
 *                       the trace ring at exit
 *   --metrics-out FILE  write the last simulated run's metrics snapshot
 *                       as JSON
 *   --audit[=FILE]      arm the conformance auditor in collector mode;
 *                       the report goes to stdout (or FILE, which must
 *                       not be empty) at exit and
 *                       the process exits non-zero when any diagnostic
 *                       was recorded
 *   --power-out FILE    enable the power model and dump the per-rail
 *                       energy summary JSON at exit
 *   --power-cap MW      enable the power model and arm a per-channel
 *                       power-budget governor with the given cap
 *
 * Usage pattern:
 *
 *   obs::cli::Options obs_opts;
 *   for (int i = 1; i < argc; ++i) {
 *       if (obs_opts.parse(argc, argv, i))
 *           continue;
 *       ... harness-specific flags ...
 *   }
 *   obs_opts.applyStartup();
 *   ... run ...
 *   obs_opts.captureMetrics(eq);   // while the sim objects are alive
 *   return obs_opts.finalize();    // or fold into the harness status
 */

#ifndef BABOL_OBS_CLI_HH
#define BABOL_OBS_CLI_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "metrics.hh"

namespace babol {
class EventQueue;
}

namespace babol::obs::cli {

/**
 * Parse a positive whole number: digits only, no sign, suffix or
 * overflow, at least 1 and at most @p max. nullopt otherwise, so a
 * typo never reads as 0 or as a truncated prefix.
 */
std::optional<std::uint64_t>
parseCount(const std::string &text,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

struct Options
{
    std::string traceOut;
    std::string metricsOut;
    std::string auditOut; //!< empty = stdout
    bool audit = false;
    std::string powerOut;
    std::uint64_t powerCapMw = 0; //!< 0 = no governor

    /** One-line flag summary for usage messages. */
    static const char *usage();

    /**
     * Try to consume argv[i] (and a possible value argument). Returns
     * true — with @p i advanced past any value — when the flag was one
     * of ours; false to let the harness handle it, which includes one
     * of ours that is missing its value. A --power-cap that is not a
     * positive count is fatal().
     */
    bool parse(int argc, char **argv, int &i);

    /** Arm the auditor (collector mode, trace ring on) when --audit
     *  was given. Call once before the simulation starts. */
    void applyStartup() const;

    /**
     * Snapshot the metrics registry (with the kernel group of @p eq
     * registered) while the run's objects are still alive. Every
     * harness that accepts --metrics-out calls this at the end of each
     * simulated run, before teardown; the last snapshot is the one
     * written.
     */
    void captureMetrics(const EventQueue &eq);

    /**
     * Write the requested outputs: perfetto JSON, metrics JSON, and —
     * when auditing — the end-of-run conservation pass plus the
     * diagnostics report. Returns the suggested process exit status
     * (1 when the audit collected diagnostics, else 0). Panics when
     * --metrics-out was given but nothing was captured.
     */
    int finalize() const;

  private:
    std::optional<MetricsSnapshot> snapshot_;
};

} // namespace babol::obs::cli

#endif // BABOL_OBS_CLI_HH
