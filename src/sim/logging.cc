#include "logging.hh"

#include <cstdio>

namespace babol {

std::string
vstrfmt(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (n < 0)
        return std::string("<format error>");

    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vstrfmt(fmt, args);
    va_end(args);
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    throw SimPanic(msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    throw SimFatal(msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace babol
