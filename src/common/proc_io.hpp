// Process I/O counters from /proc/self/io, for tests and benchmarks that
// count the syscalls a code path makes.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

namespace gm {

/// Write-family syscalls this process has made so far (`syscw`), or
/// nullopt where the kernel does not expose /proc/self/io.
inline std::optional<std::uint64_t> WriteSyscalls() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value)
    if (key == "syscw:") return value;
  return std::nullopt;
}

}  // namespace gm
