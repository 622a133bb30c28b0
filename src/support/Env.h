//===- support/Env.h - Environment-variable helpers -------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed accessors for the environment variables PASTA exposes to users
/// (e.g. START_GRID_ID, END_GRID_ID, PASTA_TOOL, PASTA_LOG_LEVEL).
/// An in-process override map keeps tests hermetic: overrides shadow the
/// real process environment and can be cleared per test.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_SUPPORT_ENV_H
#define PASTA_SUPPORT_ENV_H

#include <cstdint>
#include <optional>
#include <string>

namespace pasta {

/// Returns the value of \p Name from the override map if set, otherwise
/// from the process environment, otherwise std::nullopt.
std::optional<std::string> getEnv(const std::string &Name);

/// Typed variants; malformed values fall back to \p Default.
std::string getEnvString(const std::string &Name, const std::string &Default);
std::int64_t getEnvInt(const std::string &Name, std::int64_t Default);
double getEnvDouble(const std::string &Name, double Default);
bool getEnvBool(const std::string &Name, bool Default);

/// Installs an in-process override (used by tests and the bench harness).
void setEnvOverride(const std::string &Name, const std::string &Value);

/// Removes one override.
void clearEnvOverride(const std::string &Name);

/// Removes every override.
void clearAllEnvOverrides();

} // namespace pasta

#endif // PASTA_SUPPORT_ENV_H
