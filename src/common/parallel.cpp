#include "common/parallel.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "common/cli.hpp"

namespace pcmsim {

namespace {

/// PCMSIM_THREADS as a worker count, 0 (auto) when unset or empty. Anything
/// but a non-negative integer is an error naming the variable, never a
/// silently ignored or wrapped value.
std::size_t env_threads() {
  const char* s = std::getenv("PCMSIM_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  const std::string_view value(s);
  std::size_t v = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw std::invalid_argument("PCMSIM_THREADS: expected a non-negative integer, got '" +
                                std::string(value) + "'");
  }
  return v;
}

std::size_t auto_threads() {
  const std::size_t env = env_threads();
  if (env > 0) return env;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

/// Set while a thread is inside a parallel region; nested regions run inline.
thread_local bool tls_in_region = false;

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t threads() {
    std::lock_guard lk(lifecycle_m_);
    return override_ > 0 ? override_ : auto_threads();
  }

  void set_threads(std::size_t n) {
    std::lock_guard run_lk(run_m_);  // never resize under an active region
    stop_workers();
    std::lock_guard lk(lifecycle_m_);
    override_ = n;
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    const std::size_t width = threads();
    if (width <= 1 || n == 1 || tls_in_region) {
      run_inline(n, fn);
      return;
    }

    // One region at a time. If another thread's region is already active, run
    // inline instead of blocking on it: that region's tasks may themselves be
    // waiting on this thread's output (a helper thread feeding a parallel_map
    // task), so blocking here can deadlock.
    // Results are written to caller-indexed slots, so the serial fallback is
    // bit-identical to the fanned-out execution.
    std::unique_lock run_lk(run_m_, std::try_to_lock);
    if (!run_lk.owns_lock()) {
      run_inline(n, fn);
      return;
    }
    ensure_started(width - 1);  // the caller is the width-th worker

    Job job;
    job.fn = &fn;
    job.n = n;
    {
      std::lock_guard lk(m_);
      job_ = &job;
      ++job_seq_;
    }
    cv_.notify_all();

    tls_in_region = true;
    work_on(job);
    tls_in_region = false;

    {
      std::unique_lock lk(m_);
      done_cv_.wait(lk, [&] { return job.attached == 0; });
      job_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
  }

  ~Pool() { stop_workers(); }

 private:
  static void run_inline(std::size_t n, const std::function<void(std::size_t)>& fn) {
    struct Restore {
      bool prev;
      ~Restore() { tls_in_region = prev; }
    } restore{tls_in_region};
    (void)restore;
    tls_in_region = true;
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }

  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::size_t attached = 0;  ///< workers inside work_on; guarded by m_
    std::exception_ptr error;  ///< first failure; guarded by err_m
    std::mutex err_m;
  };

  static void work_on(Job& job) {
    for (;;) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return;
      try {
        (*job.fn)(i);
      } catch (...) {
        std::lock_guard lk(job.err_m);
        if (!job.error) job.error = std::current_exception();
        job.next.store(job.n, std::memory_order_relaxed);  // cancel the rest
      }
    }
  }

  void worker_main() {
    tls_in_region = true;  // anything a task spawns runs inline
    std::unique_lock lk(m_);
    std::uint64_t seen_seq = 0;
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || (job_ != nullptr && job_seq_ != seen_seq); });
      if (stop_) return;
      seen_seq = job_seq_;
      Job* job = job_;
      ++job->attached;
      lk.unlock();
      work_on(*job);
      lk.lock();
      --job->attached;
      done_cv_.notify_all();
    }
  }

  /// Caller holds run_m_.
  void ensure_started(std::size_t nworkers) {
    if (workers_.size() == nworkers) return;
    stop_workers();
    {
      std::lock_guard lk(m_);
      stop_ = false;
    }
    workers_.reserve(nworkers);
    for (std::size_t i = 0; i < nworkers; ++i) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void stop_workers() {
    {
      std::lock_guard lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  std::mutex lifecycle_m_;  ///< guards override_
  std::size_t override_ = 0;

  std::mutex run_m_;  ///< serializes regions and pool resizes
  std::vector<std::thread> workers_;

  std::mutex m_;  ///< guards job_/job_seq_/stop_/attached
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t job_seq_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t parallel_threads() { return Pool::instance().threads(); }

void set_parallel_threads(std::size_t n) { Pool::instance().set_threads(n); }

std::size_t set_threads_from_cli(const CliArgs& args) {
  const std::int64_t n = args.get_int("threads", 0);
  if (n < 0) {
    throw std::invalid_argument("--threads: expected a non-negative integer (0 = auto), got '" +
                                std::to_string(n) + "'");
  }
  if (n > 0) set_parallel_threads(static_cast<std::size_t>(n));
  return parallel_threads();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  Pool::instance().run(n, fn);
}

}  // namespace pcmsim
