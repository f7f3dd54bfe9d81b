/**
 * @file
 * Implementation of the logging and termination helpers.
 */

#include "util/logging.hh"

#include <cstdio>
#include <mutex>

namespace secproc::util
{

namespace
{

std::mutex log_mutex;

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Info:  return "info";
      case LogLevel::Warn:  return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

void
logMessage(LogLevel level, const std::string &where, const std::string &msg)
{
    std::lock_guard<std::mutex> guard(log_mutex);
    if (level == LogLevel::Warn) {
        std::fprintf(stderr, "%s: %s (%s)\n", levelTag(level), msg.c_str(),
                     where.c_str());
    } else {
        std::fprintf(stderr, "%s: %s\n", levelTag(level), msg.c_str());
    }
    std::fflush(stderr);
}

void
panicImpl(const std::string &where, const std::string &msg)
{
    logMessage(LogLevel::Error, where, "panic: " + msg + " @ " + where);
    std::abort();
}

void
fatalImpl(const std::string &where, const std::string &msg)
{
    logMessage(LogLevel::Error, where, "fatal: " + msg + " @ " + where);
    std::exit(1);
}

} // namespace secproc::util
