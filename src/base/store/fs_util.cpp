#include "base/store/fs_util.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace fstg::store {

namespace {

std::string errno_detail() {
  return std::strerror(errno);
}

/// Directory part of `path` ("." if none): the temp file must live in the
/// same directory as the target for rename() to be atomic.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsync a directory so the rename itself is durable. Best-effort: some
/// filesystems refuse O_DIRECTORY fsync; the rename is still atomic.
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Temp + full write + rename; with `sync`, fsync the data before the
/// rename and the directory after it.
bool write_and_rename(const std::string& path, std::string_view data,
                      bool sync, std::string* error) {
  // pid + per-process sequence keeps concurrent writers (other processes
  // or threads of this one) off each other's temporaries.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) +
      "." + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error) *error = "cannot create " + tmp + ": " + errno_detail();
    return false;
  }

  // Loop over partial writes; a short final count (ENOSPC and friends) is a
  // hard failure that must not leave a truncated file at `path`.
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = "short write to " + tmp + ": " + errno_detail();
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }

  if (sync && ::fsync(fd) != 0) {
    if (error) *error = "fsync " + tmp + ": " + errno_detail();
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    if (error) *error = "close " + tmp + ": " + errno_detail();
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error)
      *error = "rename " + tmp + " -> " + path + ": " + errno_detail();
    ::unlink(tmp.c_str());
    return false;
  }
  if (sync) sync_dir(dir_of(path));
  return true;
}

}  // namespace

bool atomic_write_file(const std::string& path, std::string_view data,
                       std::string* error) {
  return write_and_rename(path, data, /*sync=*/true, error);
}

bool atomic_replace_file(const std::string& path, std::string_view data,
                         std::string* error) {
  return write_and_rename(path, data, /*sync=*/false, error);
}

bool read_file(const std::string& path, std::string* data,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) {
    if (error) *error = "read failed: " + path;
    return false;
  }
  *data = ss.str();
  return true;
}

bool make_dirs(const std::string& path, std::string* error) {
  if (path.empty()) return true;
  std::string partial;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    partial = path.substr(0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      if (error)
        *error = "mkdir " + partial + ": " + errno_detail();
      return false;
    }
  }
  if (!dir_exists(path)) {
    if (error) *error = path + " exists but is not a directory";
    return false;
  }
  return true;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

bool dir_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::int64_t file_size(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_size);
}

std::int64_t file_mtime(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_mtime);
}

bool remove_file(const std::string& path) {
  return ::unlink(path.c_str()) == 0;
}

std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* d = ::opendir(path.c_str());
  if (!d) return names;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  return names;
}

FileLock::FileLock(const std::string& lock_path, bool block) {
  fd_ = ::open(lock_path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  const int op = LOCK_EX | (block ? 0 : LOCK_NB);
  int rc;
  do {
    rc = ::flock(fd_, op);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FileLock::~FileLock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

}  // namespace fstg::store
