#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>

#include "util/expect.hpp"

namespace nptsn {

ThreadPool::ThreadPool(int num_threads) {
  NPTSN_EXPECT(num_threads >= 1, "thread pool needs at least one thread");
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& task) {
  NPTSN_EXPECT(n >= 0, "parallel_for requires n >= 0");
  if (n == 0) return;

  std::atomic<int> remaining{n};
  // One slot per task index: every exception is captured, and after the
  // barrier the lowest-index one is rethrown. Which task's error surfaces is
  // therefore a function of the input alone, never of thread scheduling —
  // a retrying caller (the trainer's rollback loop) sees the same failure on
  // every attempt, and tests can assert on the propagated message.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::mutex done_mutex;
  std::condition_variable done_cv;

  {
    std::lock_guard lock(mutex_);
    for (int i = 0; i < n; ++i) {
      queue_.emplace([&, i] {
        try {
          task(i);
        } catch (...) {
          errors[static_cast<std::size_t>(i)] = std::current_exception();
        }
        // Count down under done_mutex: the caller may only observe
        // remaining == 0 after this lock is released, so it cannot return
        // (destroying done_mutex and done_cv on its stack) while the last
        // task is still about to notify through them.
        std::lock_guard dlock(done_mutex);
        if (remaining.fetch_sub(1) == 1) done_cv.notify_all();
      });
    }
  }
  cv_.notify_all();

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining.load() == 0; });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace nptsn
