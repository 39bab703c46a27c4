#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fstg::store {

/// --- Crash-consistent filesystem helpers ---------------------------------
///
/// The files this codebase writes go through one of two helpers that
/// write a same-directory temporary and atomically rename it over the
/// target. A reader therefore sees either the old file or the complete new
/// file, never a truncated in-between, and short writes (ENOSPC) are
/// reported instead of silently producing a partial artifact.
///
/// Durable files — store blobs and metadata, checkpoint records, the run
/// ledger, --metrics-out/--trace-out/--telemetry-out JSON — use
/// `atomic_write_file`, which also fsyncs the data and the directory so
/// the file survives power loss. A command's own `-o` output (generated
/// test files, exported netlists, lint and report output), which rerunning
/// the command regenerates, uses `atomic_replace_file`, which skips both
/// fsyncs: an fsync waits for the filesystem journal, whose
/// latency depends on every other writer on the disk, and would put that
/// wait on the command's critical path.

/// Atomically replace `path` with `data`. On failure returns false, sets
/// `*error` (with errno detail, e.g. "No space left on device"), and leaves
/// any previous file at `path` untouched; the temporary is unlinked.
bool atomic_write_file(const std::string& path, std::string_view data,
                       std::string* error);

/// `atomic_write_file` without the fsyncs: just as atomic for readers and
/// across a crash of this process, but not durable across power loss.
bool atomic_replace_file(const std::string& path, std::string_view data,
                         std::string* error);

/// Read a whole file. Returns false (with `*error`) on open/read failure;
/// does not distinguish a missing file from an unreadable one.
bool read_file(const std::string& path, std::string* data, std::string* error);

/// mkdir -p. Returns false only if a component could not be created and
/// does not already exist as a directory.
bool make_dirs(const std::string& path, std::string* error);

bool file_exists(const std::string& path);
bool dir_exists(const std::string& path);

/// Size in bytes, or -1 if the file cannot be stat'ed.
std::int64_t file_size(const std::string& path);

/// Modification time in seconds since the epoch, or -1.
std::int64_t file_mtime(const std::string& path);

bool remove_file(const std::string& path);

/// Names (not paths) of directory entries, excluding "." and "..". Returns
/// an empty list for an unreadable/missing directory.
std::vector<std::string> list_dir(const std::string& path);

/// Advisory whole-store writer lock (flock). Exclusive by construction;
/// `locked()` is false if the lock file could not be created or taken —
/// callers degrade (skip the write) rather than fail. Unlocked + closed on
/// destruction. Advisory: readers never take it (atomic rename already
/// guarantees them a consistent view); it serializes writers and gc.
class FileLock {
 public:
  explicit FileLock(const std::string& lock_path, bool block = true);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  bool locked() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace fstg::store
