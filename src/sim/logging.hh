/**
 * @file
 * Logging and error-reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 *  - panic():  a simulator bug; should never happen regardless of input.
 *  - fatal():  the user's fault (bad configuration); clean exit.
 *  - warn():   functionality works but may be approximate.
 *  - inform(): routine status output.
 *
 * A lightweight printf-style formatter (strfmt) backs all of them; the
 * host toolchain (GCC 12) predates std::format, so we provide our own.
 */

#ifndef BABOL_SIM_LOGGING_HH
#define BABOL_SIM_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace babol {

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list args);

/** Thrown by panic(); lets tests assert that invariants fire. */
class SimPanic : public std::logic_error
{
  public:
    explicit SimPanic(const std::string &what) : std::logic_error(what) {}
};

/** Thrown by fatal(); a user/configuration error. */
class SimFatal : public std::runtime_error
{
  public:
    explicit SimFatal(const std::string &what) : std::runtime_error(what) {}
};

/** Report a simulator bug and abort via SimPanic. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error via SimFatal. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspicious but survivable behaviour on stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Routine status message on stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** panic() unless the condition holds. */
#define babol_assert(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::babol::panic("assertion '%s' failed at %s:%d: %s", #cond,     \
                           __FILE__, __LINE__,                              \
                           ::babol::strfmt(__VA_ARGS__).c_str());           \
        }                                                                   \
    } while (0)

} // namespace babol

#endif // BABOL_SIM_LOGGING_HH
