#include "ccbt/engine/load_model.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ccbt {

namespace {

std::size_t max_threads() {
#ifdef _OPENMP
  return static_cast<std::size_t>(std::max(1, omp_get_max_threads()));
#else
  return 1;
#endif
}

}  // namespace

LoadModel::LoadModel(std::uint32_t ranks, double comm_cost)
    : comm_cost_(comm_cost), bufs_(max_threads()), total_ops_(ranks, 0) {
  for (ThreadCharges& b : bufs_) {
    b.ops = std::make_unique<std::atomic<std::uint64_t>[]>(ranks);
    b.recv = std::make_unique<std::atomic<std::uint64_t>[]>(ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      b.ops[r].store(0, std::memory_order_relaxed);
      b.recv[r].store(0, std::memory_order_relaxed);
    }
  }
}

LoadModel::ThreadCharges& LoadModel::mine() {
#ifdef _OPENMP
  // Engine parallel regions never exceed omp_get_max_threads() at model
  // construction; if a caller enlarges the team afterwards, the modulo
  // folds the surplus threads onto existing buffers, whose atomic
  // counters keep that safe.
  return bufs_[static_cast<std::size_t>(omp_get_thread_num()) %
               bufs_.size()];
#else
  return bufs_[0];
#endif
}

void LoadModel::add_ops(std::uint32_t rank, std::uint64_t n) {
  mine().ops[rank].fetch_add(n, std::memory_order_relaxed);
}

void LoadModel::add_comm(std::uint32_t from, std::uint32_t to,
                         std::uint64_t n) {
  if (from != to) add_received(to, n);
}

void LoadModel::add_received(std::uint32_t to, std::uint64_t n) {
  ThreadCharges& b = mine();
  b.recv[to].fetch_add(n, std::memory_order_relaxed);
  b.comm.fetch_add(n, std::memory_order_relaxed);
}

void LoadModel::Held::add(const Held& o) {
  for (std::size_t r = 0; r < o.ops.size(); ++r) {
    ops[r] += o.ops[r];
    recv[r] += o.recv[r];
  }
}

void LoadModel::Held::apply(LoadModel& model) const {
  for (std::size_t r = 0; r < ops.size(); ++r) {
    const auto rank = static_cast<std::uint32_t>(r);
    if (ops[r] != 0) model.add_ops(rank, ops[r]);
    if (recv[r] != 0) model.add_received(rank, recv[r]);
  }
}

void LoadModel::end_phase() {
  const std::size_t ranks = total_ops_.size();
  double makespan = 0.0;
  last_ops_.assign(ranks, 0);
  for (std::size_t r = 0; r < ranks; ++r) {
    std::uint64_t ops = 0;
    std::uint64_t recv = 0;
    for (ThreadCharges& b : bufs_) {
      ops += b.ops[r].exchange(0, std::memory_order_relaxed);
      recv += b.recv[r].exchange(0, std::memory_order_relaxed);
    }
    total_ops_[r] += ops;
    last_ops_[r] = ops;
    const double work = static_cast<double>(ops) +
                        comm_cost_ * static_cast<double>(recv);
    makespan = std::max(makespan, work);
  }
  last_comm_ = 0;
  for (ThreadCharges& b : bufs_) {
    last_comm_ += b.comm.exchange(0, std::memory_order_relaxed);
  }
  total_comm_ += last_comm_;
  last_makespan_ = makespan;
  sim_time_ += makespan;
}

void LoadModel::repeat_last_phase(std::uint64_t times) {
  for (std::size_t r = 0; r < total_ops_.size(); ++r) {
    total_ops_[r] += times * last_ops_[r];
  }
  total_comm_ += times * last_comm_;
  for (; times > 0; --times) sim_time_ += last_makespan_;  // as end_phase adds
}

std::uint64_t LoadModel::total_ops() const {
  std::uint64_t sum = 0;
  for (auto v : total_ops_) sum += v;
  return sum;
}

std::uint64_t LoadModel::max_rank_ops() const {
  std::uint64_t best = 0;
  for (auto v : total_ops_) best = std::max(best, v);
  return best;
}

double LoadModel::avg_rank_ops() const {
  if (total_ops_.empty()) return 0.0;
  return static_cast<double>(total_ops()) /
         static_cast<double>(total_ops_.size());
}

}  // namespace ccbt
