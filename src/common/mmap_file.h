#ifndef FKD_COMMON_MMAP_FILE_H_
#define FKD_COMMON_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fkd {

/// Read-only memory-mapped view of a whole file — how weight files are
/// read.
///
/// Snapshot loads parse weights straight out of the kernel page cache
/// through this mapping instead of double-buffering the file into a heap
/// string first. Pages are faulted in on access and can be reclaimed by
/// the kernel under memory pressure.
///
/// The mapping is private and read-only; the view stays valid for the
/// lifetime of the object. Move-only (the destructor unmaps).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. IoError when the file cannot be opened,
  /// stat'ed, or mapped. An empty file maps to a valid zero-length view.
  static Result<MappedFile> Open(const std::string& path);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const {
    return std::string_view(reinterpret_cast<const char*>(data_), size_);
  }
  const std::string& path() const { return path_; }
  bool is_open() const { return data_ != nullptr || mapped_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;  ///< true once Open succeeded (even zero-length)
  std::string path_;
};

}  // namespace fkd

#endif  // FKD_COMMON_MMAP_FILE_H_
