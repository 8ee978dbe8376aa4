#include "storage/file_page_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

namespace scout {
namespace {

// Little helpers over raw byte buffers. memcpy keeps the encoding
// bit-exact for doubles (the round-trip contract) and avoids any
// alignment assumptions on the block buffer.
template <typename T>
void EncodeAt(std::vector<char>* buf, size_t offset, T value) {
  std::memcpy(buf->data() + offset, &value, sizeof(T));
}

template <typename T>
T DecodeAt(const char* buf, size_t offset) {
  T value;
  std::memcpy(&value, buf + offset, sizeof(T));
  return value;
}

size_t EncodeObject(std::vector<char>* buf, size_t offset,
                    const SpatialObject& obj) {
  EncodeAt<uint64_t>(buf, offset, obj.id);
  EncodeAt<uint32_t>(buf, offset + 8, obj.structure_id);
  EncodeAt<uint32_t>(buf, offset + 12, obj.path_index);
  const Vec3 p0 = obj.geom.p0();
  const Vec3 p1 = obj.geom.p1();
  EncodeAt<double>(buf, offset + 16, p0.x);
  EncodeAt<double>(buf, offset + 24, p0.y);
  EncodeAt<double>(buf, offset + 32, p0.z);
  EncodeAt<double>(buf, offset + 40, p1.x);
  EncodeAt<double>(buf, offset + 48, p1.y);
  EncodeAt<double>(buf, offset + 56, p1.z);
  EncodeAt<double>(buf, offset + 64, obj.geom.r0());
  EncodeAt<double>(buf, offset + 72, obj.geom.r1());
  return offset + FilePageStore::kObjectRecordBytes;
}

SpatialObject DecodeObject(const char* buf, size_t offset) {
  SpatialObject obj;
  obj.id = DecodeAt<uint64_t>(buf, offset);
  obj.structure_id = DecodeAt<uint32_t>(buf, offset + 8);
  obj.path_index = DecodeAt<uint32_t>(buf, offset + 12);
  const Vec3 p0(DecodeAt<double>(buf, offset + 16),
                DecodeAt<double>(buf, offset + 24),
                DecodeAt<double>(buf, offset + 32));
  const Vec3 p1(DecodeAt<double>(buf, offset + 40),
                DecodeAt<double>(buf, offset + 48),
                DecodeAt<double>(buf, offset + 56));
  obj.geom = Cylinder(p0, p1, DecodeAt<double>(buf, offset + 64),
                      DecodeAt<double>(buf, offset + 72));
  return obj;
}

Status ErrnoStatus(const std::string& what, int err) {
  const std::string msg = what + ": " + std::strerror(err);
  // EIO is the transient media-error class the retry policy handles;
  // everything else (bad fd, ENOSPC, ...) is a programming or
  // environment error the caller should not retry.
  if (err == EIO || err == EAGAIN || err == EINTR) {
    return Status::Unavailable(msg);
  }
  return Status::Internal(msg);
}

}  // namespace

Status FilePageStore::WriteFile(const PageStore& store,
                                const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot create page file: " + path);
  }
  std::vector<char> header(kHeaderBytes, 0);
  EncodeAt<uint64_t>(&header, 0, kMagic);
  EncodeAt<uint32_t>(&header, 8, kFormatVersion);
  EncodeAt<uint32_t>(&header, 12, static_cast<uint32_t>(kBlockBytes));
  EncodeAt<uint32_t>(&header, 16, static_cast<uint32_t>(store.NumPages()));
  EncodeAt<uint64_t>(&header, 24, static_cast<uint64_t>(store.NumObjects()));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  std::vector<char> block;
  for (const Page& page : store.pages()) {
    if (page.objects.size() > kPageCapacity) {
      return Status::InvalidArgument("page " + std::to_string(page.id) +
                                     " overflows kPageCapacity");
    }
    block.assign(kBlockBytes, 0);
    EncodeAt<uint32_t>(&block, 0, page.id);
    EncodeAt<uint32_t>(&block, 4, static_cast<uint32_t>(page.objects.size()));
    size_t offset = 8;
    for (const SpatialObject& obj : page.objects) {
      offset = EncodeObject(&block, offset, obj);
    }
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
  }
  out.flush();
  if (!out) {
    return Status::Internal("short write to page file: " + path);
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path, const FilePageStoreOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return ErrnoStatus("cannot open page file " + path, errno);
  }
  std::vector<char> header(kHeaderBytes);
  const ssize_t got = ::pread(fd, header.data(), header.size(), 0);
  if (got != static_cast<ssize_t>(header.size())) {
    const int err = errno;
    ::close(fd);
    return got < 0 ? ErrnoStatus("cannot read page-file header", err)
                   : Status::Internal("truncated page-file header: " + path);
  }
  if (DecodeAt<uint64_t>(header.data(), 0) != kMagic) {
    ::close(fd);
    return Status::InvalidArgument("not a scout page file: " + path);
  }
  if (DecodeAt<uint32_t>(header.data(), 8) != kFormatVersion) {
    ::close(fd);
    return Status::InvalidArgument("unsupported page-file version: " + path);
  }
  if (DecodeAt<uint32_t>(header.data(), 12) != kBlockBytes) {
    ::close(fd);
    return Status::InvalidArgument("unexpected page-file block size: " + path);
  }
  std::unique_ptr<FilePageStore> store(new FilePageStore());
  store->fd_ = fd;
  store->page_count_ = DecodeAt<uint32_t>(header.data(), 16);
  store->object_count_ = DecodeAt<uint64_t>(header.data(), 24);
  store->options_ = options;
  return store;
}

FilePageStore::~FilePageStore() {
  if (fd_ >= 0) ::close(fd_);
}

void FilePageStore::EnableFetchLog() {
  const std::lock_guard<std::mutex> lock(log_mutex_);
  log_fetches_ = true;
  fetch_log_.clear();
}

std::vector<PageId> FilePageStore::FetchLog() const {
  const std::lock_guard<std::mutex> lock(log_mutex_);
  return fetch_log_;
}

Status FilePageStore::ReadPage(PageId page, Page* out) {
  if (page >= page_count_) {
    return Status::OutOfRange("page id out of range");
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (log_fetches_) {
    const std::lock_guard<std::mutex> lock(log_mutex_);
    fetch_log_.push_back(page);
  }
  // The emulated device latency is charged per attempt, success or not —
  // a failed transfer occupies the device exactly like a good one (the
  // same accounting the simulated DiskModel uses). Each thread is its
  // own device channel: a read extends the thread's deadline by one
  // latency and sleeps until it. The deadline restarts from `now`
  // whenever it has already passed, and sleep_until wakes late by a
  // scheduler-dependent amount, so after every late wake-up the next
  // read restarts too. The overshoot is therefore never absorbed: N
  // back-to-back reads take about N * (latency + overshoot), not
  // N * latency (~390 us per read at 300 us on a 4-core Linux host).
  // Idle gaps earn no credit either.
  if (options_.device_latency_us > 0) {
    thread_local const FilePageStore* channel_store = nullptr;
    thread_local std::chrono::steady_clock::time_point channel_next{};
    const auto now = std::chrono::steady_clock::now();
    if (channel_store != this || channel_next < now) {
      channel_store = this;
      channel_next = now;
    }
    channel_next += std::chrono::microseconds(options_.device_latency_us);
    std::this_thread::sleep_until(channel_next);
  }
  if (faults_ != nullptr && faults_->Armed()) {
    const uint64_t op = fault_ops_.fetch_add(1, std::memory_order_relaxed);
    if (faults_->ReadFails(page, static_cast<SimMicros>(op) *
                                     kFaultOpSpacingUs)) {
      failed_reads_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("injected read fault on page " +
                                 std::to_string(page));
    }
  }
  char block[kBlockBytes];
  const off_t offset =
      static_cast<off_t>(kHeaderBytes) + static_cast<off_t>(page) * kBlockBytes;
  const ssize_t got = ::pread(fd_, block, kBlockBytes, offset);
  if (got < 0) {
    failed_reads_.fetch_add(1, std::memory_order_relaxed);
    return ErrnoStatus("pread of page " + std::to_string(page), errno);
  }
  if (got != static_cast<ssize_t>(kBlockBytes)) {
    failed_reads_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("short read of page " + std::to_string(page));
  }
  const uint32_t stored_id = DecodeAt<uint32_t>(block, 0);
  const uint32_t num_objects = DecodeAt<uint32_t>(block, 4);
  if (stored_id != page || num_objects > kPageCapacity) {
    failed_reads_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("corrupt page block " + std::to_string(page));
  }
  out->id = page;
  out->objects.clear();
  out->objects.reserve(num_objects);
  size_t record = 8;
  for (uint32_t i = 0; i < num_objects; ++i) {
    out->objects.push_back(DecodeObject(block, record));
    record += kObjectRecordBytes;
  }
  out->RecomputeBounds();
  return Status::OK();
}

}  // namespace scout
