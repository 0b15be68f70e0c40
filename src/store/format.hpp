// Durable file primitives for gems::store: whole-file reads and
// crash-safe file replacement (write-to-temp, fsync, rename,
// fsync-directory). The snapshot and WAL byte formats are encoded and
// bounds-checked by the shared codec (common/bytes.hpp); each file section
// is covered by a CRC32, so corruption surfaces as a typed Status instead
// of undefined behavior.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gems::store {

/// Reads an entire file. kNotFound when it does not exist, kIoError on any
/// other failure.
Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path);

/// Crash-safe file replacement: writes `bytes` to `path + ".tmp"`, fsyncs
/// it, renames over `path`, then fsyncs the containing directory so the
/// rename itself is durable. A crash at any point leaves either the old
/// complete file or the new complete file, never a torn one.
Status write_file_durable(const std::string& path,
                          std::span<const std::uint8_t> bytes);

/// fsyncs a directory (required after rename/create for the directory
/// entry to be durable).
Status fsync_dir(const std::string& dir);

/// Creates `dir` (and parents) if missing.
Status ensure_dir(const std::string& dir);

}  // namespace gems::store
