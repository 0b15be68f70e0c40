#include "dist/runtime.hpp"

namespace gems::dist {

int RankCtx::size() const noexcept {
  return static_cast<int>(cluster_->size());
}

void RankCtx::send(int to, int tag, std::span<const std::uint8_t> payload) {
  cluster_->deliver(rank_, to, tag, payload);
}

Message RankCtx::recv() { return cluster_->take(rank_); }

void RankCtx::barrier() { cluster_->barrier_wait(); }

namespace {

/// The u64 of an allreduce message; a malformed one fail-stops the rank.
std::uint64_t allreduce_value(const Message& m, int tag) {
  GEMS_CHECK(m.tag == tag);
  ByteReader r(m.payload, "allreduce payload");
  const Result<std::uint64_t> value = r.u64();
  GEMS_CHECK_MSG(value.is_ok() && r.at_end(), "malformed allreduce payload");
  return *value;
}

std::vector<std::uint8_t> allreduce_payload(std::uint64_t value) {
  ByteWriter w;
  w.u64(value);
  return w.take();
}

}  // namespace

std::uint64_t Comm::allreduce_sum(std::uint64_t value) {
  constexpr int kTagReduce = -101;
  constexpr int kTagResult = -102;
  if (rank() == 0) {
    std::uint64_t sum = value;
    for (int i = 1; i < size(); ++i) sum += allreduce_value(recv(), kTagReduce);
    const std::vector<std::uint8_t> out = allreduce_payload(sum);
    for (int i = 1; i < size(); ++i) send(i, kTagResult, out);
    return sum;
  }
  send(0, kTagReduce, allreduce_payload(value));
  return allreduce_value(recv(), kTagResult);
}

SimCluster::SimCluster(std::size_t num_ranks) : num_ranks_(num_ranks) {
  GEMS_CHECK(num_ranks >= 1);
  mailboxes_.reserve(num_ranks);
  for (std::size_t i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  stats_.resize(num_ranks);
}

void SimCluster::run(const std::function<void(RankCtx&)>& body) {
  for (auto& s : stats_) s = RankCommStats{};
  for (auto& mb : mailboxes_) {
    sync::MutexLock lock(mb->mutex);
    mb->queue.clear();
  }
  std::vector<std::thread> threads;
  threads.reserve(num_ranks_);
  for (std::size_t r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([this, r, &body] {
      RankCtx ctx(this, static_cast<int>(r));
      body(ctx);
    });
  }
  for (auto& t : threads) t.join();
}

void SimCluster::deliver(int from, int to, int tag,
                         std::span<const std::uint8_t> payload) {
  GEMS_DCHECK(to >= 0 && static_cast<std::size_t>(to) < num_ranks_);
  {
    Mailbox& mb = *mailboxes_[to];
    sync::MutexLock lock(mb.mutex);
    Message m;
    m.from = from;
    m.tag = tag;
    m.payload.assign(payload.begin(), payload.end());
    mb.queue.push_back(std::move(m));
  }
  mailboxes_[to]->cv.notify_one();
  // Self-sends are delivered but not counted as network traffic.
  if (from != to) {
    // stats_ is written only by the sending rank's thread.
    stats_[from].messages += 1;
    stats_[from].bytes += payload.size();
  }
}

Message SimCluster::take(int rank) {
  Mailbox& mb = *mailboxes_[rank];
  sync::MutexLock lock(mb.mutex);
  while (mb.queue.empty()) mb.cv.wait(mb.mutex);
  Message m = std::move(mb.queue.front());
  mb.queue.pop_front();
  return m;
}

void SimCluster::barrier_wait() {
  sync::MutexLock lock(barrier_mutex_);
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_count_ == num_ranks_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  while (barrier_generation_ == generation) barrier_cv_.wait(barrier_mutex_);
}

std::uint64_t SimCluster::total_messages() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.messages;
  return n;
}

std::uint64_t SimCluster::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.bytes;
  return n;
}

}  // namespace gems::dist
