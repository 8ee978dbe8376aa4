#include "prefetch/async_pipeline.h"

#include <algorithm>

namespace scout {

AsyncPrefetchPipeline::AsyncPrefetchPipeline(FilePageStore* store,
                                             const Options& options)
    : store_(store), options_(options) {
  options_.max_in_flight = std::max<size_t>(1, options_.max_in_flight);
}

AsyncPrefetchPipeline::~AsyncPrefetchPipeline() { Stop(); }

void AsyncPrefetchPipeline::Start() {
  if (worker_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

void AsyncPrefetchPipeline::Stop() {
  if (!worker_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  worker_.join();
}

bool AsyncPrefetchPipeline::TryEnqueue(PageId page) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const size_t pending = plan_.size() + urgent_.size() +
                           completions_.size() +
                           (in_service_ != kInvalidPageId ? 1 : 0);
    if (pending >= options_.max_in_flight) return false;
    plan_.push_back(page);
  }
  work_cv_.notify_one();
  return true;
}

void AsyncPrefetchPipeline::PushUrgent(PageId page) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    urgent_.push_back(page);
  }
  work_cv_.notify_one();
}

bool AsyncPrefetchPipeline::TryDrainOne(AsyncFetchResult* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (completions_.empty()) return false;
  *out = std::move(completions_.front());
  completions_.pop_front();
  return true;
}

bool AsyncPrefetchPipeline::WaitDrainOne(AsyncFetchResult* out) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return !completions_.empty() || stop_ ||
           (plan_.empty() && urgent_.empty() &&
            in_service_ == kInvalidPageId);
  });
  if (completions_.empty()) return false;
  *out = std::move(completions_.front());
  completions_.pop_front();
  return true;
}

AsyncPrefetchPipeline::Stage AsyncPrefetchPipeline::TakeQueued(PageId page) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(plan_.begin(), plan_.end(), page);
  if (it != plan_.end()) {
    plan_.erase(it);
    return Stage::kTaken;
  }
  if (in_service_ == page ||
      std::find(urgent_.begin(), urgent_.end(), page) != urgent_.end()) {
    return Stage::kInFlight;
  }
  for (const AsyncFetchResult& r : completions_) {
    if (r.page == page) return Stage::kInFlight;
  }
  return Stage::kAbsent;
}

bool AsyncPrefetchPipeline::TakeOldest(PageId* page) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (plan_.empty()) return false;
  *page = plan_.front();
  plan_.pop_front();
  return true;
}

bool AsyncPrefetchPipeline::TakeUrgent(PageId* page) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (urgent_.empty()) return false;
  *page = urgent_.front();
  urgent_.pop_front();
  return true;
}

size_t AsyncPrefetchPipeline::WorkerUrgentReads() {
  const std::lock_guard<std::mutex> lock(mu_);
  return worker_urgent_reads_;
}

void AsyncPrefetchPipeline::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_ || !urgent_.empty() || !plan_.empty();
    });
    AsyncFetchResult r;
    if (!urgent_.empty()) {
      r.page = urgent_.front();
      r.urgent = true;
      urgent_.pop_front();
      ++worker_urgent_reads_;
    } else if (!plan_.empty()) {
      r.page = plan_.front();
      plan_.pop_front();
      issue_log_.push_back(r.page);
    } else {
      break;  // Stopped with both lanes drained.
    }
    in_service_ = r.page;
    lock.unlock();
    r.status = store_->ReadPage(r.page, &r.data);
    lock.lock();
    in_service_ = kInvalidPageId;
    completions_.push_back(std::move(r));
    done_cv_.notify_one();
  }
}

}  // namespace scout
